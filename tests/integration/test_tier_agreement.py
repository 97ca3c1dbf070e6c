"""What a plan reports is what was constructed -- every algorithm, every route.

``resolve_step`` is the single decider of "which code runs the depth step";
the planner reports it, ``BatchedStepEngine`` binds its hook sites from it and
the executor instantiates the walk kernel from it.  These tests spy on what was
actually built and run and hold it to the plan: ``step_tier == "compiled"``
<=> every engine has a declared ``kind``; ``kernel == "walk"`` <=> a
``CompiledWalkKernel`` ran (either driver: the depth loop's ``run`` or the
partition drain's ``expand``); through the service both equal
``SampleResponse.stats["step_tier"]``.

The second half holds the walk kernel's drain driver to the engines it
stands in for: on the out-of-memory route, for every walk algorithm and
every ``OutOfMemoryConfig`` preset, the kernel, the declared-site engine's
``expand_entries`` and the ``ScalarMainLoop`` oracle agree on samples,
iteration counts, cost totals and the whole simulated schedule.
"""

import contextlib
import json

import numpy as np
import pytest

from repro.algorithms.registry import ALGORITHM_REGISTRY
from repro.api.instance import InstanceBatch, make_instances
from repro.api.sampler import GraphSampler
from repro.baselines.reference import ScalarMainLoop
from repro.compiled import clear_kernel_cache, resolve_step
from repro.compiled.walk_kernel import CompiledWalkKernel
from repro.distributed import ShardedSamplingCluster
from repro.engine.hetero import run_coalesced
from repro.engine.step import BatchedStepEngine
from repro.gpusim.device import make_device
from repro.gpusim.prng import CounterRNG
from repro.graph.generators import powerlaw_graph
from repro.graph.partition import partition_graph
from repro.oom.scheduler import OutOfMemoryConfig, OutOfMemorySampler
from repro.planner import calibration
from repro.planner.executor import Executor
from repro.planner.planner import PlanRequest, plan
from repro.service.client import SamplingClient
from repro.service.server import SamplingService

from bitcompat import assert_equivalent, interpreted

ALL_ALGORITHMS = sorted(ALGORITHM_REGISTRY)
ROUTES = ("in_memory", "coalesced", "out_of_memory", "sharded")
SEEDS = list(range(0, 150, 15))


@pytest.fixture(scope="module")
def graph():
    return powerlaw_graph(150, 6.0, exponent=2.2, seed=5)


@pytest.fixture()
def built(monkeypatch):
    """Spy: ``built()`` -> (tier, kernel) of what was constructed and run."""
    engines, walk_runs = [], []
    init = BatchedStepEngine.__init__

    def spy_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        engines.append(self.kind is not None)

    def spy_driver(driver):
        def spy(self, *args, **kwargs):
            walk_runs.append(self)
            return driver(self, *args, **kwargs)
        return spy

    monkeypatch.setattr(BatchedStepEngine, "__init__", spy_init)
    for name in ("run", "expand"):  # the depth-loop and the drain driver
        monkeypatch.setattr(
            CompiledWalkKernel, name, spy_driver(getattr(CompiledWalkKernel, name))
        )

    def observed():
        assert engines and len(set(engines)) == 1, engines
        if not engines[0]:
            return "interpreted", "none"
        return "compiled", "walk" if walk_runs else "engine"

    return observed


def run_route(graph, info, route):
    """Run one facade; returns the ExecutionPlan it reported."""
    program, config = info.program_factory(), info.config_factory(seed=11)
    if route == "in_memory":
        sampler = GraphSampler(graph, program, config)
    elif route == "out_of_memory":
        sampler = OutOfMemorySampler(
            graph, program, config,
            OutOfMemoryConfig.fully_optimized(num_partitions=3),
        )
    elif route == "sharded":
        sampler = ShardedSamplingCluster(graph, info.name, config, num_shards=3)
    else:
        # Stateful programs never fuse: they ride the route as one member.
        halves = [SEEDS[:5], SEEDS[5:]] if program.supports_coalescing else [SEEDS]
        run_coalesced(graph, program, config, [make_instances(h) for h in halves])
        return plan(PlanRequest(
            graph=graph, program=program, config=config,
            members=[make_instances(h) for h in halves],
            force_route="coalesced",
        ))
    sampler.run(SEEDS)
    return sampler.plan(SEEDS)


def assert_agreement(execution_plan, program, built):
    resolution = resolve_step(
        execution_plan.config, execution_plan.route, program=program
    )
    assert (resolution.tier, resolution.kernel) == built()
    assert execution_plan.step_tier == resolution.tier
    assert execution_plan.compiled_backend == resolution.backend
    assert execution_plan.compiled_fallback == resolution.fallback


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
def test_plan_matches_construction(graph, built, algorithm, route):
    info = ALGORITHM_REGISTRY[algorithm]
    execution_plan = run_route(graph, info, route)
    assert execution_plan.route == route
    assert_agreement(execution_plan, info.program_factory(), built)


def test_calibration_cannot_split_plan_from_engine(
    graph, built, monkeypatch, tmp_path
):
    # A calibration written before the tier stopped being cost-guessed: its
    # huge compiled overhead used to make plan() report "interpreted" while
    # the sampler had built a compiled engine.  The key must load
    # (ignored) and move nothing.
    legacy = tmp_path / "calibration.json"
    legacy.write_text(json.dumps({
        "time_scale": 1.0, "compiled_speedup": 3.0, "compiled_overhead_s": 1e9,
    }))
    monkeypatch.setenv("REPRO_CALIBRATION", str(legacy))
    calibration.clear_calibration_cache()
    clear_kernel_cache()
    try:
        assert calibration.load_calibration() == calibration.Calibration(
            time_scale=1.0, compiled_speedup=3.0
        )
        info = ALGORITHM_REGISTRY["simple_random_walk"]
        execution_plan = run_route(graph, info, "in_memory")
        assert execution_plan.step_tier == "compiled"
        assert_agreement(execution_plan, info.program_factory(), built)
    finally:
        calibration.clear_calibration_cache()


@pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
def test_served_response_reports_what_ran(graph, built, algorithm):
    with SamplingService(num_workers=2, mode="thread", cache_bytes=None) as svc:
        svc.load_graph("g", graph)
        response = SamplingClient(svc).sample("g", algorithm, SEEDS, timeout=120)
    assert response.ok, response.error
    # The front-end planned from graph stats + the algorithm name, the
    # worker built from the program object: one resolver, one answer.
    tier, kernel = built()
    assert response.stats["step_tier"] == response.plan["step_tier"] == tier
    info = ALGORITHM_REGISTRY[algorithm]
    resolution = resolve_step(
        info.config_factory(), response.route, program=info.program_factory()
    )
    assert (resolution.tier, resolution.kernel) == (tier, kernel)


# --------------------------------------------------------------------------- #
# The drain driver against the engines it stands in for
# --------------------------------------------------------------------------- #
WALK_ALGORITHMS = ("biased_random_walk", "deepwalk", "node2vec",
                   "simple_random_walk")
PRESETS = ("baseline", "batched_only", "batched_scheduled", "fully_optimized")
SCHEDULE_FIELDS = ("makespan", "kernel_times", "transfer_times", "rounds",
                   "partition_transfers", "stream_busy_times")
# Seed 30 has no out-edges; the pairs put one walker's two entries into two
# partitions of the same round (and, for 0 / 15, into one kernel); ids that
# are not 0..n-1 make the drain look its walker rows up.  Builders, because a
# batch caches the states an engine drain mutates.
PAIRS = [[0, 15], [3, 140], [30, 45], [60, 149]]
DRAIN_CASES = {
    "flat": (lambda: make_instances(SEEDS), {}),
    "multi_seed": (lambda: make_instances(PAIRS), {}),
    "depth_1": (lambda: make_instances(SEEDS), {"depth": 1}),
    "scattered_ids": (
        lambda: InstanceBatch(
            np.array([9, 2, 7, 4]), np.array([0, 1, 2, 3, 4]),
            np.array([0, 45, 60, 149]),
        ),
        {},
    ),
}


def walk_program(algorithm):
    info = ALGORITHM_REGISTRY[algorithm]
    # p != q: node2vec's biases must actually read the prev column.
    kwargs = {"p": 0.25, "q": 4.0} if algorithm == "node2vec" else {}
    return info.program_factory(**kwargs)


def drain(graph, program, config, oom, instances, engine=None):
    """One out-of-memory run through the Executor (which alone can take
    multi-seed instances).  Without ``engine`` the route resolves as served:
    the walk kernel's drain.  With one, the plan interprets, so the executor
    drains through the ``expand_entries`` of exactly the engine it was handed.
    """
    with interpreted() if engine is not None else contextlib.nullcontext():
        if engine is None:
            engine = BatchedStepEngine(
                graph, program, config, CounterRNG(config.seed), "out_of_memory"
            )
        executor = Executor(
            plan(PlanRequest(
                graph=graph, program=program, config=config,
                instances=instances, oom_config=oom,
                force_route="out_of_memory",
            )),
            graph, program=program, engine=engine, device=make_device("gpu"),
            partitions=partition_graph(graph, oom.num_partitions),
        )
        return executor.execute(instances)


def declared_engine(graph, program, config):
    """The engine with declared-shape sites (built while the tier is on)."""
    engine = BatchedStepEngine(
        graph, program, config, CounterRNG(config.seed), "out_of_memory"
    )
    assert engine.kind == program.compiled_bias
    return engine


def assert_same_drain(a, b):
    assert_equivalent(a.sample, b.sample)
    assert a.cost.as_dict() == b.cost.as_dict()
    for name in SCHEDULE_FIELDS:
        assert getattr(a, name) == getattr(b, name), name


@pytest.mark.parametrize("case", sorted(DRAIN_CASES))
@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("algorithm", WALK_ALGORITHMS)
def test_drain_driver_agrees_with_both_engines(graph, algorithm, preset, case):
    batch, overrides = DRAIN_CASES[case]
    config = ALGORITHM_REGISTRY[algorithm].config_factory(seed=11, **overrides)
    oom = getattr(OutOfMemoryConfig, preset)(num_partitions=3)
    program = walk_program(algorithm)
    assert resolve_step(config, "out_of_memory", program=program).kernel == "walk"

    kernel_run = drain(graph, program, config, oom, batch())
    assert kernel_run.total_sampled_edges > 0
    engine_run = drain(
        graph, program, config, oom, batch(),
        engine=declared_engine(graph, program, config),
    )
    assert_same_drain(kernel_run, engine_run)
    if algorithm == "node2vec" and case == "multi_seed":
        # The per-entry oracle lets a walker's second entry of one kernel
        # see the first one's prev; the batched kernels (engine and walk
        # alike) evaluate every bias before any update -- docs/engine.md.
        return
    oracle = drain(
        graph, program, config, oom, batch(),
        engine=ScalarMainLoop(graph, program, config),
    )
    assert_same_drain(kernel_run, oracle)


@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("case", ("flat", "multi_seed", "scattered_ids"))
def test_node2vec_prev_column_tracks_prev_vertex(graph, monkeypatch, preset, case):
    """After every kernel, ``prev[rank]`` is that instance's ``prev_vertex``."""
    batch, _ = DRAIN_CASES[case]
    config = ALGORITHM_REGISTRY["node2vec"].config_factory(seed=11)
    oom = getattr(OutOfMemoryConfig, preset)(num_partitions=3)
    program = walk_program("node2vec")
    if case == "multi_seed":
        owners = partition_graph(graph, 3).owner(np.asarray(PAIRS))
        assert any(a != b for a, b in owners)  # two partitions, one round
        assert any(a == b for a, b in owners)  # two entries, one kernel

    column_trace, state_trace = [], []
    expand = CompiledWalkKernel.expand
    expand_entries = BatchedStepEngine.expand_entries

    def spy_expand(self, *args):
        out = expand(self, *args)
        column_trace.append(self._walkers.prevs.tolist())
        return out

    def spy_expand_entries(self, v, i, d, instance_map, *rest):
        out = expand_entries(self, v, i, d, instance_map, *rest)
        # The map is built in batch order: row k is the k-th state.
        state_trace.append([s.prev_vertex for s in instance_map.values()])
        return out

    monkeypatch.setattr(CompiledWalkKernel, "expand", spy_expand)
    monkeypatch.setattr(BatchedStepEngine, "expand_entries", spy_expand_entries)
    drain(graph, program, config, oom, batch())
    drain(
        graph, program, config, oom, batch(),
        engine=declared_engine(graph, program, config),
    )
    assert len(column_trace) > len(batch())
    assert column_trace == state_trace
