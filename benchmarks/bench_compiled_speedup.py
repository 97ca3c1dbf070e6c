"""Compiled-tier speedup over the interpreted batched engine.

Acceptance benchmark for the compiled step kernels (:mod:`repro.compiled`):
on a 100k-vertex generated graph with 1,000 sampling instances, **every**
walk workload below must run >= 3x faster on the compiled tier (best
available backend) than on the interpreted engine, the pure-numpy backend
must never be slower than interpretation, and every compiled run must be
bit-identical to its interpreted twin (samples, iteration counts and cost
totals).  The out-of-memory and sharded routes are measured too: their
compiled drains must plan ``step_tier=compiled`` and match their
interpreted twins bit for bit, the out-of-memory drain -- the walk
kernel's second driver -- must run every walk workload >= 2x faster than
the interpreted drain (ROADMAP item 3's gate for that route), and the
sharded cluster -- whose walkers the third driver, the shard epoch, steps
as columns -- must run >= 2x faster than its interpreted envelope path
(ROADMAP item 1's gate).  Each walk
workload is also stepped depth by depth on the compiled step engine -- what
the resolver would pick for it were the fused walk kernel deleted -- which
must be bit-identical too; the engine/walk time ratio rides on the
workload's row, so "both compiled kernels stay" is a number in the
trajectory.

Run standalone (it is intentionally not a pytest file -- it measures wall
clock, which the simulated-time benchmarks never do):

    PYTHONPATH=src python benchmarks/bench_compiled_speedup.py            # full
    PYTHONPATH=src python benchmarks/bench_compiled_speedup.py --quick    # CI smoke

The uniform-bias walks win by skipping neighbor materialisation and the
segmented CTPS build entirely (degrees + closed-form charges + one fused
binary search per draw).  The non-uniform kinds win through per-vertex
structure reuse (:mod:`repro.compiled.structures`): the flat bias table and
segmented CTPS prefix are built once per (graph, bias kind) and reused
across every depth step, request and route, so their per-step cost
collapses to the fused SELECT itself.

Full runs append machine-readable rows to
``benchmarks/results/BENCH_planner.json`` (keyed ``(bench, route)``), which
``benchmarks/gate.py`` compares against the saved baselines.
"""

from __future__ import annotations

import argparse
import os
import time
from unittest import mock

import numpy as np

from repro.algorithms.registry import ALGORITHM_REGISTRY
from repro.api.instance import make_instances
from repro.api.results import SampleResult
from repro.api.sampler import GraphSampler
from repro.compiled import available_backends, force_backend
from repro.gpusim.costmodel import CostModel
from repro.graph.generators import powerlaw_graph

#: (algorithm, config overrides); every workload carries the >= 3x assertion
#: now that structure reuse covers the non-uniform bias kinds.
WORKLOADS = [
    ("simple_random_walk", dict(depth=8)),
    ("deepwalk", dict(depth=8)),
    ("biased_random_walk", dict(depth=8)),
    ("node2vec", dict(depth=8)),
]

SPEEDUP_FLOOR = 3.0

#: The out-of-memory route drains through the walk kernel too, but pays the
#: partition schedule (queue routing, one launch record per kernel) on both
#: tiers, so its floor is lower.
OOM_SPEEDUP_FLOOR = 2.0

#: The sharded route is measured on biased_random_walk, the structure-reuse
#: showcase.  Compiled, each shard steps its resident walkers as columns
#: with the walk kernel's ``step`` and ships emigrants as one column batch
#: per destination; interpreted, every walker is an envelope stepped on a
#: per-shard engine.  Both tiers pay the same epochs and migrations.
ROUTE_ALGORITHM = "biased_random_walk"
SHARDED_SPEEDUP_FLOOR = 2.0


def _identical(a, b) -> bool:
    return (
        a.cost.as_dict() == b.cost.as_dict()
        and a.iteration_counts == b.iteration_counts
        and all(
            np.array_equal(x.edges, y.edges) and np.array_equal(x.seeds, y.seeds)
            for x, y in zip(a.samples, b.samples)
        )
    )


def interpreted():
    """The process-wide compiled-tier switch turned off for a ``with`` block."""
    return mock.patch.dict(os.environ, {"REPRO_COMPILED": "0"})


def _best_of(runner, repeats=2):  # best-of-2 to absorb machine noise
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = runner()
        best = min(best, time.perf_counter() - start)
    return best, result


def _run(graph, seeds, num_instances, info, config):
    return GraphSampler(graph, info.program_factory(), config).run(
        seeds, num_instances=num_instances
    )


def _run_stepped_on_engine(graph, seeds, num_instances, info, config):
    """The executor's depth loop minus the walk kernel it would fuse into."""
    engine = GraphSampler(graph, info.program_factory(), config).engine
    assert engine.kind is not None
    instances = make_instances(seeds, num_instances=num_instances)
    total, iteration_counts = CostModel(), []
    for depth in range(config.depth):
        step_cost = CostModel()
        if engine.step_instances(instances, depth, step_cost, iteration_counts) is None:
            break
        step_cost.kernel_launches += 1
        total.merge(step_cost)
    return SampleResult.from_instances(
        instances, total, iteration_counts=iteration_counts
    )


def run_workload(graph, seeds, num_instances, name, overrides):
    info = ALGORITHM_REGISTRY[name]
    config = info.config_factory(seed=1, **overrides)
    args = (graph, seeds, num_instances, info, config)
    with interpreted():
        t_interp, r_interp = _best_of(lambda: _run(*args))
    timings = {}
    identical = True
    for backend in available_backends():
        with force_backend(backend):
            t, r = _best_of(lambda: _run(*args))
        timings[backend] = t
        identical = identical and _identical(r_interp, r)
    t_engine, r_engine = _best_of(lambda: _run_stepped_on_engine(*args))
    identical = identical and _identical(r_interp, r_engine)
    return t_interp, timings, t_engine, identical


# --------------------------------------------------------------------------- #
# Route coverage: the compiled kernel inside the OOM and sharded drains
# --------------------------------------------------------------------------- #

def run_oom_route(graph, seeds, num_instances, name, overrides):
    """Interpreted vs compiled partition drains of the OOM scheduler."""
    from repro.oom.scheduler import OutOfMemoryConfig, OutOfMemorySampler

    info = ALGORITHM_REGISTRY[name]
    config = info.config_factory(seed=1, **overrides)
    oom = OutOfMemoryConfig.fully_optimized(num_partitions=3)

    def sampler():
        return OutOfMemorySampler(graph, info.program_factory(), config, oom)

    def one(expected_tier):
        plan = sampler().plan(seeds, num_instances=num_instances)
        assert plan.step_tier == expected_tier, plan.compiled_fallback
        # A sampler per run, as the service builds one per request (and as
        # the in-memory leg above does): a reused sampler's warp counter
        # keeps advancing, so its second run is a different, cold sample.
        return _best_of(
            lambda: sampler().run(seeds, num_instances=num_instances)
        )

    with interpreted():
        t_interp, r_interp = one("interpreted")
    t_comp, r_comp = one("compiled")
    identical = _identical(r_interp.sample, r_comp.sample)
    return t_interp, t_comp, identical


def run_sharded_route(graph, seeds, num_instances, name, overrides):
    """Interpreted envelope shards vs compiled shard epochs of the cluster."""
    from repro.distributed import ShardedSamplingCluster

    info = ALGORITHM_REGISTRY[name]
    config = info.config_factory(seed=1, **overrides)

    def one(expected_tier):
        cluster = ShardedSamplingCluster(graph, name, config, num_shards=3)
        plan = cluster.plan(seeds, num_instances=num_instances)
        assert plan.step_tier == expected_tier, plan.compiled_fallback
        return _best_of(
            lambda: cluster.run(seeds, num_instances=num_instances)
        )

    with interpreted():
        t_interp, r_interp = one("interpreted")
    t_comp, r_comp = one("compiled")
    identical = _identical(r_interp.result, r_comp.result)
    return t_interp, t_comp, identical


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="reduced sizes for CI smoke runs (no speedup assertion, "
             "no record keeping)",
    )
    args = parser.parse_args()

    if args.quick:
        num_vertices, num_instances = 5_000, 100
        route_instances = 30
    else:
        num_vertices, num_instances = 100_000, 1_000
        route_instances = 200
    graph = powerlaw_graph(num_vertices, avg_degree=8, seed=1)
    seeds = list(range(0, num_vertices, max(1, num_vertices // 1031)))
    backends = available_backends()
    print(f"graph: {graph}, instances: {num_instances}, backends: {backends}")
    header = f"{'workload':24s} {'interp':>9s}"
    for backend in backends:
        header += f" {backend:>9s}"
    print(header + f" {'best':>8s} {'engine':>9s}  identical")

    failures = []
    records = []
    for name, overrides in WORKLOADS:
        t_interp, timings, t_engine, identical = run_workload(
            graph, seeds, num_instances, name, overrides
        )
        t_best = min(timings.values())
        speedup = t_interp / t_best if t_best > 0 else float("inf")
        line = f"{name:24s} {t_interp:8.2f}s"
        for backend in backends:
            line += f" {timings[backend]:8.2f}s"
        print(line + f" {speedup:7.2f}x {t_engine:8.2f}s  {identical}")
        if not identical:
            failures.append(
                f"{name}: walk kernel / compiled engine / interpreted diverged"
            )
        if not args.quick:
            if speedup < SPEEDUP_FLOOR:
                failures.append(
                    f"{name}: compiled speedup {speedup:.2f}x below the "
                    f"{SPEEDUP_FLOOR}x floor"
                )
            if timings["numpy"] > t_interp * 1.10:
                failures.append(
                    f"{name}: numpy backend slower than interpretation "
                    f"({timings['numpy']:.2f}s vs {t_interp:.2f}s)"
                )
            records.append({
                "bench": f"compiled_{name}",
                "route": "in_memory",
                "wall_time_s": t_best,
                "interp_time_s": t_interp,
                "speedup": speedup,
                # The same walk stepped on the compiled engine, not fused.
                "engine_over_walk": t_engine / t_best,
                "identical": identical,
                "num_instances": num_instances,
            })

    route_seeds = seeds[:route_instances]
    route_legs = [
        ("out_of_memory", run_oom_route, name, overrides)
        for name, overrides in WORKLOADS
    ] + [("sharded", run_sharded_route, ROUTE_ALGORITHM, dict(depth=8))]
    for route, runner, name, overrides in route_legs:
        t_interp, t_comp, identical = runner(
            graph, route_seeds, route_instances, name, overrides
        )
        speedup = t_interp / t_comp if t_comp > 0 else float("inf")
        label = f"{name}/{route}"
        print(
            f"{label:24s} {t_interp:8.2f}s {t_comp:8.2f}s"
            + " " * 10 * (len(backends) - 1)
            + f" {speedup:7.2f}x  {identical}"
        )
        if not identical:
            failures.append(
                f"{label}: compiled result diverged from interpreted"
            )
        if not args.quick:
            floor = {"out_of_memory": OOM_SPEEDUP_FLOOR,
                     "sharded": SHARDED_SPEEDUP_FLOOR}[route]
            if speedup < floor:
                failures.append(
                    f"{label}: compiled {route} run {speedup:.2f}x below the "
                    f"{floor}x floor"
                )
            if t_comp > t_interp * 1.10:
                failures.append(
                    f"{label}: compiled drain slower than interpretation "
                    f"({t_comp:.2f}s vs {t_interp:.2f}s)"
                )
            record = {
                "bench": f"compiled_{name}",
                "route": route,
                "wall_time_s": t_comp,
                "interp_time_s": t_interp,
                "speedup": speedup,
                "identical": identical,
                "num_instances": route_instances,
            }
            # The gated ratio, under the name ROADMAP items 1 and 3 gate it by.
            record["compiled_over_interpreted"] = speedup
            records.append(record)

    if records:
        # Running as a script puts benchmarks/ on sys.path, so the pytest
        # conftest's merge helper is importable directly.
        from conftest import RESULTS_DIR, write_planner_records

        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        path = write_planner_records(RESULTS_DIR, records)
        print(f"recorded {len(records)} rows -> {path}")

    if failures:
        for failure in failures:
            print("FAIL:", failure)
        return 1
    if not args.quick:
        worst = min(r["speedup"] for r in records if r["route"] == "in_memory")
        print(f"OK: every asserted workload >= {SPEEDUP_FLOOR}x "
              f"(worst {worst:.2f}x)")
    else:
        print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
