"""Per-figure experiment definitions.

One function per table / figure of the paper's evaluation section.  Each
returns a list of flat row dictionaries -- the data behind the corresponding
figure -- computed on the scaled-down workloads of
:mod:`repro.bench.workloads`.  Sweeps shared by several figures (the
in-memory collision study behind Figures 10-12, the out-of-memory study
behind Figures 13-15) are cached per process so the benchmark files can each
report their own figure without recomputing the sweep.

The benchmark modules under ``benchmarks/`` are thin wrappers that call these
functions, print the resulting tables and feed ``pytest-benchmark``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Tuple

import numpy as np

from repro.algorithms import (
    BiasedNeighborSampling,
    BiasedRandomWalk,
    ForestFireSampling,
    LayerSampling,
    MultiDimensionalRandomWalk,
    UnbiasedNeighborSampling,
)
from repro.algorithms.registry import ALGORITHM_REGISTRY
from repro.api.sampler import GraphSampler
from repro.baselines.graphsaint import GraphSAINTSampler
from repro.baselines.knightking import KnightKingEngine
from repro.bench.workloads import BenchmarkScale, DEFAULT_SCALE, get_graph
from repro.gpusim.device import Device, V100_SPEC
from repro.graph.generators import TABLE2_DATASETS
from repro.graph.properties import graph_stats
from repro.oom.multigpu import run_multi_gpu_sampling, run_multi_gpu_walks
from repro.oom.scheduler import OutOfMemoryConfig, OutOfMemorySampler

__all__ = [
    "table1_design_space",
    "table2_datasets",
    "fig09_baseline_comparison",
    "fig10_inmemory_speedups",
    "fig11_iteration_counts",
    "fig12_search_reduction",
    "fig13_oom_speedups",
    "fig14_kernel_imbalance",
    "fig15_partition_transfers",
    "fig16_neighborsize_and_instances",
    "fig17_multi_gpu_scaling",
]

Row = Dict[str, object]

#: The four applications of the in-memory optimisation study (Fig. 10-12).
_INMEM_APPS = (
    ("biased_neighbor_sampling", BiasedNeighborSampling),
    ("forest_fire_sampling", ForestFireSampling),
    ("layer_sampling", LayerSampling),
    ("unbiased_neighbor_sampling", UnbiasedNeighborSampling),
)

#: The four applications of the out-of-memory study (Fig. 13-15).
_OOM_APPS = (
    ("biased_neighbor_sampling", BiasedNeighborSampling),
    ("biased_random_walk", BiasedRandomWalk),
    ("forest_fire_sampling", ForestFireSampling),
    ("unbiased_neighbor_sampling", UnbiasedNeighborSampling),
)

#: The collision-mitigation variants compared by Fig. 10 (strategy, detector).
_INMEM_VARIANTS = (
    ("repeated", "repeated", "linear"),
    ("updated", "updated", "linear"),
    ("bipartite", "bipartite", "linear"),
    ("bipartite+bitmap", "bipartite", "strided_bitmap"),
)

#: The out-of-memory configurations compared by Fig. 13.
_OOM_VARIANTS = (
    ("baseline", OutOfMemoryConfig.baseline),
    ("BA", OutOfMemoryConfig.batched_only),
    ("BA+WS", OutOfMemoryConfig.batched_scheduled),
    ("BA+WS+BAL", OutOfMemoryConfig.fully_optimized),
)


# --------------------------------------------------------------------------- #
# Tables I and II
# --------------------------------------------------------------------------- #
def table1_design_space(scale: BenchmarkScale = DEFAULT_SCALE) -> List[Row]:
    """Table I: every registered algorithm, expressed and run through the API."""
    graph = get_graph("AM", weighted=True, scale=scale)
    rows: List[Row] = []
    for name, info in sorted(ALGORITHM_REGISTRY.items()):
        program = info.program_factory()
        config = info.config_factory(depth=2, seed=scale.seed)
        seeds: List = list(range(8))
        if name == "multidimensional_random_walk":
            seeds = [list(range(8))]
        result = GraphSampler(graph, program, config).run(seeds)
        rows.append(
            {
                "algorithm": name,
                "bias": info.bias,
                "neighbors": info.neighbor_shape,
                "scope": info.scope,
                "random_walk": info.is_random_walk,
                "sampled_edges": result.total_sampled_edges,
            }
        )
    return rows


def table2_datasets(scale: BenchmarkScale = DEFAULT_SCALE) -> List[Row]:
    """Table II: paper dataset statistics vs the generated stand-ins."""
    rows: List[Row] = []
    for abbr in scale.all_graphs:
        spec = TABLE2_DATASETS[abbr]
        stats = graph_stats(get_graph(abbr, scale=scale))
        rows.append(
            {
                "dataset": abbr,
                "name": spec.name,
                "paper_vertices": spec.paper_vertices,
                "paper_edges": spec.paper_edges,
                "paper_avg_degree": spec.paper_avg_degree,
                "repro_vertices": stats.num_vertices,
                "repro_edges": stats.num_edges,
                "repro_avg_degree": round(stats.avg_degree, 2),
                "repro_max_degree": stats.max_degree,
                "degree_gini": round(stats.degree_gini, 3),
            }
        )
    return rows


# --------------------------------------------------------------------------- #
# Figure 9: C-SAW vs KnightKing and GraphSAINT
# --------------------------------------------------------------------------- #
@lru_cache(maxsize=4)
def fig09_baseline_comparison(scale: BenchmarkScale = DEFAULT_SCALE) -> Tuple[Row, ...]:
    """Fig. 9: SEPS of C-SAW (1 and 6 GPUs) vs KnightKing and GraphSAINT."""
    rows: List[Row] = []
    rng = np.random.default_rng(scale.seed)
    for abbr in scale.all_graphs:
        graph = get_graph(abbr, weighted=True, scale=scale)
        seeds = rng.integers(0, graph.num_vertices, size=64)

        # Panel (a): biased random walk vs KnightKing.
        knightking = KnightKingEngine(graph, biased=True, seed=scale.seed)
        kk = knightking.run_walks(seeds, scale.walk_length, num_walkers=scale.walk_instances)
        csaw1 = run_multi_gpu_walks(
            graph, seeds, num_walkers=scale.walk_instances,
            walk_length=scale.walk_length, num_gpus=1, biased=True, seed=scale.seed,
        )
        csaw6 = run_multi_gpu_walks(
            graph, seeds, num_walkers=scale.walk_instances,
            walk_length=scale.walk_length, num_gpus=6, biased=True, seed=scale.seed,
        )
        rows.append(
            {
                "panel": "a:biased_random_walk",
                "graph": abbr,
                "knightking_mseps": kk.seps() / 1e6,
                "csaw_1gpu_mseps": csaw1.seps() / 1e6,
                "csaw_6gpu_mseps": csaw6.seps() / 1e6,
                "speedup_1gpu": csaw1.seps() / kk.seps() if kk.seps() else 0.0,
                "speedup_6gpu": csaw6.seps() / kk.seps() if kk.seps() else 0.0,
            }
        )

        # Panel (b): multi-dimensional random walk vs GraphSAINT.
        saint = GraphSAINTSampler(graph, seed=scale.seed)
        gs = saint.run(
            num_instances=scale.sampling_instances,
            frontier_size=scale.frontier_size,
            steps=scale.frontier_steps,
        )
        program = MultiDimensionalRandomWalk()
        pools = [
            rng.integers(0, graph.num_vertices, size=scale.frontier_size).tolist()
            for _ in range(scale.sampling_instances)
        ]
        config = program.default_config(depth=scale.frontier_steps, seed=scale.seed)
        csaw = GraphSampler(graph, program, config).run(pools)
        rows.append(
            {
                "panel": "b:multidimensional_random_walk",
                "graph": abbr,
                "graphsaint_mseps": gs.seps() / 1e6,
                "csaw_1gpu_mseps": csaw.seps() / 1e6,
                "speedup_1gpu": csaw.seps() / gs.seps() if gs.seps() else 0.0,
            }
        )
    return tuple(rows)


# --------------------------------------------------------------------------- #
# Figures 10-12: in-memory optimisation study (shared sweep)
# --------------------------------------------------------------------------- #
@lru_cache(maxsize=4)
def _inmemory_sweep(scale: BenchmarkScale = DEFAULT_SCALE) -> Dict[Tuple[str, str, str], Dict[str, float]]:
    """Run every (graph, app, variant) cell of the in-memory study once."""
    results: Dict[Tuple[str, str, str], Dict[str, float]] = {}
    for abbr in scale.in_memory_graphs:
        graph = get_graph(abbr, weighted=True, weight_distribution="heavy_tailed", scale=scale)
        seeds = list(range(min(scale.sampling_instances, graph.num_vertices)))
        for app_name, app_factory in _INMEM_APPS:
            for variant, strategy, detector in _INMEM_VARIANTS:
                program = app_factory()
                config = program.default_config(
                    depth=2, neighbor_size=4, strategy=strategy, detector=detector,
                    seed=scale.seed,
                )
                result = GraphSampler(graph, program, config).run(seeds)
                results[(abbr, app_name, variant)] = {
                    "kernel_time": result.kernel_time(),
                    "mean_iterations": result.mean_iterations(),
                    "collision_probes": float(result.cost.collision_probes),
                    "atomic_conflicts": float(result.cost.atomic_conflicts),
                    "sampled_edges": float(result.total_sampled_edges),
                }
    return results


def fig10_inmemory_speedups(scale: BenchmarkScale = DEFAULT_SCALE) -> List[Row]:
    """Fig. 10: speedup of each collision-mitigation variant over repeated sampling."""
    sweep = _inmemory_sweep(scale)
    rows: List[Row] = []
    for abbr in scale.in_memory_graphs:
        for app_name, _ in _INMEM_APPS:
            base = sweep[(abbr, app_name, "repeated")]["kernel_time"]
            row: Row = {"graph": abbr, "application": app_name}
            for variant, _, _ in _INMEM_VARIANTS:
                time = sweep[(abbr, app_name, variant)]["kernel_time"]
                row[f"speedup_{variant}"] = base / time if time > 0 else 0.0
            rows.append(row)
    return rows


def fig11_iteration_counts(scale: BenchmarkScale = DEFAULT_SCALE) -> List[Row]:
    """Fig. 11: mean do-while iterations with and without bipartite region search."""
    sweep = _inmemory_sweep(scale)
    rows: List[Row] = []
    for abbr in scale.in_memory_graphs:
        for app_name, _ in _INMEM_APPS:
            baseline = sweep[(abbr, app_name, "repeated")]["mean_iterations"]
            bipartite = sweep[(abbr, app_name, "bipartite")]["mean_iterations"]
            rows.append(
                {
                    "graph": abbr,
                    "application": app_name,
                    "iterations_baseline": baseline,
                    "iterations_bipartite": bipartite,
                    "reduction": baseline / bipartite if bipartite > 0 else 0.0,
                }
            )
    return rows


def fig12_search_reduction(scale: BenchmarkScale = DEFAULT_SCALE) -> List[Row]:
    """Fig. 12: collision-search count of the bitmap relative to the linear baseline."""
    sweep = _inmemory_sweep(scale)
    rows: List[Row] = []
    for abbr in scale.in_memory_graphs:
        for app_name, _ in _INMEM_APPS:
            baseline = sweep[(abbr, app_name, "bipartite")]["collision_probes"]
            bitmap = sweep[(abbr, app_name, "bipartite+bitmap")]["collision_probes"]
            rows.append(
                {
                    "graph": abbr,
                    "application": app_name,
                    "searches_baseline": int(baseline),
                    "searches_bitmap": int(bitmap),
                    "ratio": bitmap / baseline if baseline > 0 else 0.0,
                }
            )
    return rows


# --------------------------------------------------------------------------- #
# Figures 13-15: out-of-memory optimisation study (shared sweep)
# --------------------------------------------------------------------------- #
#: Device used for the out-of-memory study.  Effective concurrency is reduced
#: in proportion to the scaled-down workloads so that thread-block allocation
#: (Fig. 14) remains a binding constraint, as it is at paper scale.
_OOM_SPEC = V100_SPEC.scaled(concurrent_warps=128)


@lru_cache(maxsize=4)
def _oom_sweep(scale: BenchmarkScale = DEFAULT_SCALE) -> Dict[Tuple[str, str, str], Dict[str, float]]:
    """Run every (graph, app, variant) cell of the out-of-memory study once."""
    results: Dict[Tuple[str, str, str], Dict[str, float]] = {}
    for abbr in scale.all_graphs:
        graph = get_graph(abbr, weighted=True, weight_distribution="heavy_tailed", scale=scale)
        seeds = list(range(min(scale.oom_instances, graph.num_vertices)))
        for app_name, app_factory in _OOM_APPS:
            for variant, oom_factory in _OOM_VARIANTS:
                program = app_factory()
                config = program.default_config(
                    depth=scale.oom_depth, neighbor_size=2, seed=scale.seed
                )
                sampler = OutOfMemorySampler(
                    graph,
                    program,
                    config,
                    oom_factory(),
                    device=Device(_OOM_SPEC),
                )
                result = sampler.run(seeds)
                results[(abbr, app_name, variant)] = {
                    "makespan": result.makespan,
                    "partition_transfers": float(result.partition_transfers),
                    "stream_imbalance": result.stream_imbalance(),
                    "kernel_time_std": result.kernel_time_std(),
                    "sampled_edges": float(result.total_sampled_edges),
                    "rounds": float(result.rounds),
                }
    return results


def fig13_oom_speedups(scale: BenchmarkScale = DEFAULT_SCALE) -> List[Row]:
    """Fig. 13: speedup of BA / BA+WS / BA+WS+BAL over the unoptimised baseline."""
    sweep = _oom_sweep(scale)
    rows: List[Row] = []
    for abbr in scale.all_graphs:
        for app_name, _ in _OOM_APPS:
            base = sweep[(abbr, app_name, "baseline")]["makespan"]
            row: Row = {"graph": abbr, "application": app_name}
            for variant, _ in _OOM_VARIANTS:
                makespan = sweep[(abbr, app_name, variant)]["makespan"]
                row[f"speedup_{variant}"] = base / makespan if makespan > 0 else 0.0
            rows.append(row)
    return rows


def fig14_kernel_imbalance(scale: BenchmarkScale = DEFAULT_SCALE) -> List[Row]:
    """Fig. 14: workload imbalance across concurrent kernels per configuration."""
    sweep = _oom_sweep(scale)
    rows: List[Row] = []
    for abbr in scale.all_graphs:
        for app_name, _ in _OOM_APPS:
            row: Row = {"graph": abbr, "application": app_name}
            for variant, _ in _OOM_VARIANTS:
                row[f"imbalance_{variant}"] = sweep[(abbr, app_name, variant)]["stream_imbalance"]
            rows.append(row)
    return rows


def fig15_partition_transfers(scale: BenchmarkScale = DEFAULT_SCALE) -> List[Row]:
    """Fig. 15: partition transfer counts, active-order vs workload-aware scheduling."""
    sweep = _oom_sweep(scale)
    rows: List[Row] = []
    for abbr in scale.all_graphs:
        for app_name, _ in _OOM_APPS:
            active = sweep[(abbr, app_name, "BA")]["partition_transfers"]
            aware = sweep[(abbr, app_name, "BA+WS")]["partition_transfers"]
            rows.append(
                {
                    "graph": abbr,
                    "application": app_name,
                    "transfers_active": int(active),
                    "transfers_workload_aware": int(aware),
                    "reduction": active / aware if aware > 0 else 0.0,
                }
            )
    return rows


# --------------------------------------------------------------------------- #
# Figure 16: NeighborSize and instance-count sweeps
# --------------------------------------------------------------------------- #
@lru_cache(maxsize=4)
def fig16_neighborsize_and_instances(scale: BenchmarkScale = DEFAULT_SCALE) -> Tuple[Row, ...]:
    """Fig. 16: biased neighbor sampling time vs NeighborSize and vs #instances."""
    rows: List[Row] = []
    for abbr in scale.all_graphs:
        graph = get_graph(abbr, weighted=True, scale=scale)
        program = BiasedNeighborSampling()
        seeds = list(range(min(scale.sampling_instances, graph.num_vertices)))

        for neighbor_size in scale.neighbor_sizes:
            config = program.default_config(depth=2, neighbor_size=neighbor_size, seed=scale.seed)
            result = GraphSampler(graph, program, config).run(seeds)
            rows.append(
                {
                    "panel": "a:neighbor_size",
                    "graph": abbr,
                    "neighbor_size": neighbor_size,
                    "instances": len(seeds),
                    "sampling_time_ms": result.kernel_time() * 1e3,
                    "sampled_edges": result.total_sampled_edges,
                }
            )

        for instances in scale.instance_sweep:
            config = program.default_config(
                depth=2, neighbor_size=max(scale.neighbor_sizes), seed=scale.seed
            )
            seed_list = list(range(min(instances, graph.num_vertices)))
            result = GraphSampler(graph, program, config).run(
                seed_list, num_instances=instances
            )
            rows.append(
                {
                    "panel": "b:instances",
                    "graph": abbr,
                    "neighbor_size": max(scale.neighbor_sizes),
                    "instances": instances,
                    "sampling_time_ms": result.kernel_time() * 1e3,
                    "sampled_edges": result.total_sampled_edges,
                }
            )
    return tuple(rows)


# --------------------------------------------------------------------------- #
# Figure 17: multi-GPU scalability
# --------------------------------------------------------------------------- #
#: Device spec for the scalability study (see _OOM_SPEC for the rationale of
#: reducing effective concurrency alongside the workload scale).
_SCALING_SPEC = V100_SPEC.scaled(concurrent_warps=256)


@lru_cache(maxsize=4)
def fig17_multi_gpu_scaling(scale: BenchmarkScale = DEFAULT_SCALE) -> Tuple[Row, ...]:
    """Fig. 17: biased neighbor sampling speedup from 1 to 6 GPUs."""
    rows: List[Row] = []
    graphs = scale.in_memory_graphs[: max(4, len(scale.in_memory_graphs) // 2)]
    for abbr in graphs:
        graph = get_graph(abbr, weighted=True, scale=scale)
        program = BiasedNeighborSampling()
        config = program.default_config(depth=2, neighbor_size=2, seed=scale.seed)
        seeds = np.arange(min(256, graph.num_vertices))
        for instances in scale.scaling_instances:
            baseline = None
            for num_gpus in scale.gpu_counts:
                result = run_multi_gpu_sampling(
                    graph,
                    program,
                    config,
                    seeds,
                    num_instances=instances,
                    num_gpus=num_gpus,
                    device_specs=[_SCALING_SPEC] * num_gpus,
                )
                makespan = result.makespan(_SCALING_SPEC)
                if num_gpus == scale.gpu_counts[0]:
                    baseline = makespan
                rows.append(
                    {
                        "graph": abbr,
                        "instances": instances,
                        "gpus": num_gpus,
                        "makespan_ms": makespan * 1e3,
                        "speedup": baseline / makespan if makespan > 0 else 0.0,
                        "seps": result.seps(_SCALING_SPEC),
                    }
                )
    return tuple(rows)
