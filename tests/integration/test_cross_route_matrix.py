"""Cross-route equivalence matrix: the planner refactor's acceptance bar.

Every registry algorithm, through every planner route, must be bit-identical
to its reference execution:

* ``in_memory``  -- the planner-driven engine run vs the scalar MAIN-loop
  oracle (samples, iteration counts, cost totals *and* per-kernel records);
* ``coalesced``  -- every member of a fused batch vs a standalone run of
  just that member (samples + iteration counts; cost is the batch's);
* ``out_of_memory`` -- the planner-driven engine scheduler vs the oracle's
  per-entry expansion, fully optimised (BA + WS + BAL);
* ``sharded``    -- shard-count invariance (1 vs 3 shards, in-process).

The suite is parametrized as one (algorithm x route) matrix over the shared
scaffolding in ``bitcompat.py`` -- the single successor of the three
bespoke bit-compat suites' private comparison helpers.  It also pins the
plan metadata: each facade must *construct* an ExecutionPlan whose route
matches the tier it is.
"""

import numpy as np
import pytest

from repro.algorithms.registry import ALGORITHM_REGISTRY
from repro.api.sampler import GraphSampler
from repro.distributed import ShardedSamplingCluster
from repro.engine.hetero import run_coalesced
from repro.graph.generators import powerlaw_graph
from repro.oom.scheduler import OutOfMemoryConfig, OutOfMemorySampler

from bitcompat import (assert_equivalent, assert_same_samples, fingerprint,
                       interpreted, oracle_run)

ALL_ALGORITHMS = sorted(ALGORITHM_REGISTRY)
ROUTES = ("in_memory", "coalesced", "out_of_memory", "sharded")

NUM_SEEDS = 10


@pytest.fixture(scope="module")
def graph():
    return powerlaw_graph(150, 6.0, exponent=2.2, seed=5)


@pytest.fixture(scope="module")
def seeds(graph):
    step = graph.num_vertices // NUM_SEEDS
    return [int(s) for s in range(0, graph.num_vertices, step)][:NUM_SEEDS]


def _check_in_memory(graph, info, seeds):
    config = info.config_factory(seed=11)
    scalar = oracle_run(graph, info.program_factory(), config, seeds)
    engine_sampler = GraphSampler(graph, info.program_factory(), config)
    assert engine_sampler.plan(seeds).route == "in_memory"
    engine = engine_sampler.run(seeds)
    assert_equivalent(scalar, engine, kernels=True)


def _check_coalesced(graph, info, seeds):
    from repro.api.instance import make_instances

    config = info.config_factory(seed=11)
    if not info.program_factory().supports_coalescing:
        # Stateful programs never fuse; the planner must refuse the batch.
        from repro.planner.errors import PlanError
        from repro.planner.planner import PlanRequest, plan

        with pytest.raises(PlanError, match="stateful"):
            plan(PlanRequest(
                graph=graph,
                program=info.program_factory(),
                config=config,
                members=[make_instances(seeds[:5]), make_instances(seeds[5:])],
                force_route="coalesced",
            ))
        return
    halves = [seeds[:5], seeds[5:]]
    batch = run_coalesced(
        graph, info.program_factory(), config,
        [make_instances(h) for h in halves],
    )
    for half, member_result in zip(halves, batch):
        solo = GraphSampler(graph, info.program_factory(), config).run(half)
        assert_same_samples(solo, member_result)
        assert solo.iteration_counts == member_result.iteration_counts


def _check_out_of_memory(graph, info, seeds):
    config = info.config_factory(seed=9)
    oom = OutOfMemoryConfig.fully_optimized(num_partitions=3)
    scalar = oracle_run(
        graph, info.program_factory(), config, seeds, oom_config=oom
    )
    sampler = OutOfMemorySampler(graph, info.program_factory(), config, oom)
    plan = sampler.plan(seeds)
    assert plan.route == "out_of_memory"
    assert plan.layout.oom is oom
    engine = sampler.run(seeds)
    assert_equivalent(scalar.sample, engine.sample)
    assert scalar.rounds == engine.rounds
    assert scalar.makespan == pytest.approx(engine.makespan)


def _check_sharded(graph, info, seeds):
    results = []
    for num_shards in (1, 3):
        cluster = ShardedSamplingCluster(
            graph, info.name, num_shards=num_shards
        )
        plan = cluster.plan(seeds)
        assert plan.route == "sharded"
        assert plan.layout.num_partitions == cluster.num_shards
        results.append(cluster.run(seeds))
    assert fingerprint(results[0].result) == fingerprint(results[1].result)
    assert results[0].result.total_sampled_edges > 0


_CHECKS = {
    "in_memory": _check_in_memory,
    "coalesced": _check_coalesced,
    "out_of_memory": _check_out_of_memory,
    "sharded": _check_sharded,
}


class TestCrossRouteMatrix:
    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
    def test_route_is_bit_identical(self, graph, seeds, algorithm, route):
        _CHECKS[route](graph, ALGORITHM_REGISTRY[algorithm], seeds)


# --------------------------------------------------------------------------- #
# The compiled axis: every algorithm, compiled tier on vs off, every route
# --------------------------------------------------------------------------- #

#: Registry algorithms whose (program, default config) compile -- everything
#: but the four stateful-hook programs below.
COMPILED = frozenset(
    {
        "simple_random_walk",
        "deepwalk",
        "biased_random_walk",
        "node2vec",
        "unbiased_neighbor_sampling",
        "biased_neighbor_sampling",
        "snowball_sampling",
        "layer_sampling",
        "multidimensional_random_walk",
    }
)

#: Of those, the walk shapes that run on the fused walk kernel in-memory;
#: the rest run on the compiled step engine.
COMPILED_WALKS = frozenset(
    {"simple_random_walk", "deepwalk", "biased_random_walk", "node2vec"}
)

#: Stateful-hook programs stay interpreted, each with an explicit reason.
STATEFUL_REASONS = {
    "forest_fire": "overrides",
    "random_walk_with_jump": "overrides",
    "random_walk_with_restart": "overrides",
    "metropolis_hastings": "accept",
}


class TestCompiledAxis:
    """Compiled step kernels vs the interpreted engine, per algorithm.

    The compiled tier is on by default, so the compiled-on leg is exactly
    what users run; the compiled-off leg pins the interpreted reference.
    Bit-identity covers samples, iteration counts, cost totals *and* the
    per-kernel records -- the compiled tier must charge every counter the
    interpreted MAIN loop charges, per depth step.
    """

    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
    def test_compiled_matches_interpreted_in_memory(self, graph, seeds, algorithm):
        info = ALGORITHM_REGISTRY[algorithm]
        config = info.config_factory(seed=11)
        with interpreted():
            interp_sampler = GraphSampler(graph, info.program_factory(), config)
            interp_plan = interp_sampler.plan(seeds)
            assert interp_plan.step_tier == "interpreted"
            assert "REPRO_COMPILED" in interp_plan.compiled_fallback
            interp = interp_sampler.run(seeds)

        compiled_sampler = GraphSampler(graph, info.program_factory(), config)
        plan = compiled_sampler.plan(seeds)
        if algorithm in COMPILED:
            assert plan.step_tier == "compiled"
            assert plan.compiled_backend in ("numpy", "numba")
            assert plan.compiled_fallback is None
        else:
            # Stateful-hook programs stay interpreted with a recorded reason.
            assert plan.step_tier == "interpreted"
            reason_match = next(
                v for k, v in STATEFUL_REASONS.items() if algorithm.startswith(k)
            )
            assert reason_match in plan.compiled_fallback
        compiled = compiled_sampler.run(seeds)
        assert_equivalent(interp, compiled, kernels=True)

    @pytest.mark.parametrize("algorithm", sorted(COMPILED))
    def test_compiled_matches_interpreted_coalesced(self, graph, seeds, algorithm):
        from repro.api.instance import make_instances

        info = ALGORITHM_REGISTRY[algorithm]
        config = info.config_factory(seed=11)
        halves = [seeds[:5], seeds[5:]]

        def batch():
            return run_coalesced(
                graph, info.program_factory(), config,
                [make_instances(h) for h in halves],
            )

        with interpreted():
            interp_batch = batch()
        compiled_batch = batch()
        for interp_member, compiled_member in zip(interp_batch, compiled_batch):
            assert_same_samples(interp_member, compiled_member)
            assert interp_member.iteration_counts == compiled_member.iteration_counts
            assert interp_member.cost.as_dict() == compiled_member.cost.as_dict()
        # ... and each compiled member still replays its standalone stream.
        for half, member_result in zip(halves, compiled_batch):
            solo = GraphSampler(graph, info.program_factory(), config).run(half)
            assert_same_samples(solo, member_result)
            assert solo.iteration_counts == member_result.iteration_counts

    @pytest.mark.parametrize("algorithm", sorted(COMPILED))
    def test_oom_route_compiles_bit_identically(self, graph, seeds, algorithm):
        info = ALGORITHM_REGISTRY[algorithm]
        config = info.config_factory(seed=9)
        oom = OutOfMemoryConfig.fully_optimized(num_partitions=3)

        def run(expected_tier):
            sampler = OutOfMemorySampler(
                graph, info.program_factory(), config, oom
            )
            assert sampler.plan(seeds).step_tier == expected_tier
            return sampler.run(seeds)

        with interpreted():
            interp = run("interpreted")
        compiled = run("compiled")
        assert_equivalent(interp.sample, compiled.sample)
        assert interp.rounds == compiled.rounds
        assert interp.makespan == pytest.approx(compiled.makespan)

    @pytest.mark.parametrize("algorithm", sorted(COMPILED))
    def test_sharded_route_compiles_bit_identically(
        self, graph, seeds, algorithm, monkeypatch
    ):
        info = ALGORITHM_REGISTRY[algorithm]
        cluster = ShardedSamplingCluster(graph, info.name, num_shards=3)
        plan = cluster.plan(seeds)
        assert plan.step_tier == "compiled"
        compiled = cluster.run(seeds)

        monkeypatch.setenv("REPRO_COMPILED", "0")
        interp_cluster = ShardedSamplingCluster(graph, info.name, num_shards=3)
        assert interp_cluster.plan(seeds).step_tier == "interpreted"
        interp = interp_cluster.run(seeds)
        assert fingerprint(interp.result) == fingerprint(compiled.result)
        assert compiled.result.total_sampled_edges > 0
