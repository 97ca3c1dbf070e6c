"""Integration tests spanning multiple subsystems.

These exercise the same pipelines the benchmarks use (framework vs CPU
reference distributions, in-memory vs out-of-memory equivalence, C-SAW vs the
baseline engines, the small benchmark scale itself) at a size small enough
for the regular test run.
"""

import numpy as np
import pytest

from repro import generate_dataset, sample_graph
from repro.algorithms import (
    BiasedNeighborSampling,
    SimpleRandomWalk,
    UnbiasedNeighborSampling,
    run_random_walks,
)
from repro.algorithms.registry import ALGORITHM_REGISTRY
from repro.baselines.knightking import KnightKingEngine
from repro.baselines.graphsaint import GraphSAINTSampler
from repro.bench import figures
from repro.bench.workloads import SMALL_SCALE
from stats_helpers import total_variation_distance
from repro.oom.multigpu import run_multi_gpu_walks
from repro.oom.scheduler import OutOfMemoryConfig, OutOfMemorySampler
from repro.selection.collision import CollisionStrategy


class TestFrameworkVsReferenceDistributions:
    def test_walk_visit_distribution_matches_numpy_reference(self, ring10):
        """On a symmetric ring, long uniform walks visit vertices uniformly."""
        result = run_random_walks(ring10, seeds=np.arange(10), num_walkers=200,
                                  walk_length=40, seed=0)
        visits = np.bincount(result.all_edges()[:, 1], minlength=10).astype(float)
        visits /= visits.sum()
        assert total_variation_distance(visits, np.full(10, 0.1)) < 0.05

    def test_neighbor_sampling_first_hop_unbiased(self, toy_graph):
        """First-hop samples of vertex 8 cover all its neighbors roughly evenly."""
        program = UnbiasedNeighborSampling()
        config = program.default_config(depth=1, neighbor_size=1, seed=0)
        counts = {}
        for trial in range(2000):
            result = sample_graph(toy_graph, program, seeds=[8],
                                  config=config.replace(seed=trial))
            dst = int(result.samples[0].edges[0, 1])
            counts[dst] = counts.get(dst, 0) + 1
        freqs = np.array([counts.get(v, 0) for v in toy_graph.neighbors(8)], dtype=float)
        freqs /= freqs.sum()
        assert total_variation_distance(freqs, np.full(5, 0.2)) < 0.06


class TestStrategiesProduceSameSampleShape:
    @pytest.mark.parametrize("strategy", list(CollisionStrategy))
    def test_all_strategies_complete_on_every_algorithm(self, small_weighted_graph, strategy):
        for name, info in list(ALGORITHM_REGISTRY.items())[:6]:
            program = info.program_factory()
            config = info.config_factory(depth=2, strategy=strategy, seed=1)
            seeds = [[0, 1, 2]] if name == "multidimensional_random_walk" else [0, 1, 2]
            result = sample_graph(small_weighted_graph, program, seeds=seeds, config=config)
            assert result.num_instances >= 1


class TestOutOfMemoryMatchesInMemory:
    def test_total_edges_comparable(self, am_dataset):
        program = BiasedNeighborSampling()
        config = program.default_config(depth=2, neighbor_size=2, seed=4)
        seeds = list(range(60))
        in_mem = sample_graph(am_dataset, program, seeds=seeds, config=config)
        oom = OutOfMemorySampler(am_dataset, program, config,
                                 OutOfMemoryConfig.fully_optimized()).run(seeds)
        assert oom.total_sampled_edges > 0
        ratio = oom.total_sampled_edges / in_mem.total_sampled_edges
        assert 0.6 < ratio < 1.4


class TestCSawBeatsBaselines:
    def test_beats_knightking_on_biased_walks(self, am_dataset):
        engine = KnightKingEngine(am_dataset, biased=True, seed=0)
        kk = engine.run_walks(list(range(50)), walk_length=20, num_walkers=300)
        csaw = run_multi_gpu_walks(am_dataset, np.arange(50), num_walkers=300,
                                   walk_length=20, num_gpus=1, biased=True, seed=0)
        assert csaw.seps() > kk.seps()

    def test_beats_graphsaint_on_frontier_sampling(self, am_dataset):
        from repro.algorithms import MultiDimensionalRandomWalk

        saint = GraphSAINTSampler(am_dataset, seed=0)
        gs = saint.run(num_instances=30, frontier_size=200, steps=10)
        program = MultiDimensionalRandomWalk()
        rng = np.random.default_rng(0)
        pools = [rng.integers(0, am_dataset.num_vertices, 200).tolist() for _ in range(30)]
        csaw = sample_graph(am_dataset, program, seeds=pools,
                            config=program.default_config(depth=10, seed=0))
        assert csaw.seps() > gs.seps()


class TestSmallBenchmarkScale:
    """Smoke-run the per-figure experiment functions at the tiny test scale."""

    def test_table_experiments(self):
        assert len(figures.table1_design_space(SMALL_SCALE)) >= 13
        assert len(figures.table2_datasets(SMALL_SCALE)) == len(SMALL_SCALE.all_graphs)

    def test_inmemory_figures(self):
        fig10 = figures.fig10_inmemory_speedups(SMALL_SCALE)
        fig11 = figures.fig11_iteration_counts(SMALL_SCALE)
        fig12 = figures.fig12_search_reduction(SMALL_SCALE)
        assert len(fig10) == len(SMALL_SCALE.in_memory_graphs) * 4
        assert all(r["iterations_bipartite"] <= r["iterations_baseline"] + 1e-9 for r in fig11)
        assert all(r["ratio"] <= 1.0 + 1e-9 for r in fig12)

    def test_oom_figures(self):
        fig13 = figures.fig13_oom_speedups(SMALL_SCALE)
        fig15 = figures.fig15_partition_transfers(SMALL_SCALE)
        assert len(fig13) == len(SMALL_SCALE.all_graphs) * 4
        assert np.mean([r["speedup_BA"] for r in fig13]) > 1.0
        assert all(r["transfers_workload_aware"] <= r["transfers_active"] for r in fig15)

    def test_scaling_figures(self):
        fig17 = figures.fig17_multi_gpu_scaling(SMALL_SCALE)
        assert len(fig17) > 0
        assert all(r["speedup"] > 0 for r in fig17)


class TestDatasetPipeline:
    def test_generate_sample_and_walk_roundtrip(self):
        graph = generate_dataset("WG", seed=2, weighted=True)
        program = SimpleRandomWalk()
        result = sample_graph(graph, program, seeds=list(range(10)),
                              config=program.default_config(depth=5))
        assert result.total_sampled_edges > 0
        walks = run_random_walks(graph, seeds=np.arange(10), walk_length=5, seed=2)
        assert walks.total_sampled_edges > 0
