"""What a plan reports is what was constructed -- every algorithm, every route.

``resolve_step`` is the single decider of "which code runs the depth step";
the planner reports it, ``make_step_engine`` constructs from it and the
executor instantiates the walk kernel from it.  These tests spy on what was
actually built and run and hold it to the plan: ``step_tier == "compiled"``
<=> every engine is a ``CompiledStepEngine``; ``kernel == "walk"`` <=> a
``CompiledWalkKernel`` ran; through the service both equal
``SampleResponse.stats["step_tier"]``.
"""

import json

import pytest

from repro.algorithms.registry import ALGORITHM_REGISTRY
from repro.api.instance import make_instances
from repro.api.sampler import GraphSampler
from repro.compiled import CompiledStepEngine, clear_kernel_cache, resolve_step
from repro.compiled.walk_kernel import CompiledWalkKernel
from repro.distributed import ShardedSamplingCluster
from repro.engine.hetero import run_coalesced
from repro.engine.step import BatchedStepEngine
from repro.graph.generators import powerlaw_graph
from repro.oom.scheduler import OutOfMemoryConfig, OutOfMemorySampler
from repro.planner import calibration
from repro.planner.planner import PlanRequest, plan
from repro.service.client import SamplingClient
from repro.service.server import SamplingService

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
    init, run = BatchedStepEngine.__init__, CompiledWalkKernel.run

    def spy_init(self, *args, **kwargs):
        engines.append(type(self) is CompiledStepEngine)
        init(self, *args, **kwargs)

    def spy_run(self, *args, **kwargs):
        walk_runs.append(self)
        return run(self, *args, **kwargs)

    monkeypatch.setattr(BatchedStepEngine, "__init__", spy_init)
    monkeypatch.setattr(CompiledWalkKernel, "run", spy_run)

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
    # the sampler had built a CompiledStepEngine.  The key must load
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
