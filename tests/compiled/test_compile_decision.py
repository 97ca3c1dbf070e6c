"""Static eligibility: which (program, config) pairs compile, and why not."""

import pytest

from repro.algorithms.registry import ALGORITHM_REGISTRY
from repro.api.bias import SamplingProgram
from repro.api.config import PoolPolicy, SamplingConfig, SelectionScope
from repro.compiled import compile_decision, resolve_step
from repro.algorithms.random_walk import SimpleRandomWalk

#: algorithm -> (kind, walk_shape) for every eligible registry default.
COMPILED_ALGORITHMS = {
    "simple_random_walk": ("uniform", True),
    "deepwalk": ("uniform", True),
    "biased_random_walk": ("weight_or_degree", True),
    "node2vec": ("node2vec", True),
    "unbiased_neighbor_sampling": ("uniform", False),
    "biased_neighbor_sampling": ("weight_or_degree", False),
    "snowball_sampling": ("uniform", False),
    "layer_sampling": ("weight_or_uniform", False),
    "multidimensional_random_walk": ("uniform", False),
}


def walk_config(**overrides) -> SamplingConfig:
    return SimpleRandomWalk.default_config(**overrides)


class TestCompileDecision:
    @pytest.mark.parametrize("name", sorted(ALGORITHM_REGISTRY))
    def test_registry_eligibility(self, name):
        info = ALGORITHM_REGISTRY[name]
        decision = compile_decision(info.program_factory(), info.config_factory())
        if name in COMPILED_ALGORITHMS:
            kind, walk_shape = COMPILED_ALGORITHMS[name]
            assert decision.eligible
            assert decision.kind == kind
            assert decision.walk_shape == walk_shape
            assert decision.reason is None
        else:
            # The stateful-hook programs: an explicit reason is recorded.
            assert not decision.eligible
            assert decision.reason

    def test_deepwalk_inherits_uniform_and_biased_overrides_it(self):
        from repro.algorithms.random_walk import BiasedRandomWalk, DeepWalk

        assert DeepWalk.compiled_bias == "uniform"
        assert BiasedRandomWalk.compiled_bias == "weight_or_degree"

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(frontier_size=2),
            dict(with_replacement=False),
            dict(track_visited=True),
            dict(scope=SelectionScope.PER_LAYER),
            dict(pool_policy=PoolPolicy.REPLACE_SELECTED),
        ],
    )
    def test_non_walk_configs_compile_on_the_engine(self, overrides):
        # Config features the fused walk kernel cannot host no longer gate
        # eligibility -- they demote the plan to the compiled step engine.
        decision = compile_decision(SimpleRandomWalk(), walk_config(**overrides))
        assert decision.eligible
        assert not decision.walk_shape

    def test_default_walk_config_is_walk_shaped(self):
        decision = compile_decision(SimpleRandomWalk(), walk_config())
        assert decision.eligible
        assert decision.walk_shape

    def test_hook_overrides_reject(self):
        class AcceptingWalk(SimpleRandomWalk):
            def accept(self, edges, sampled):
                return sampled

        class UpdatingWalk(SimpleRandomWalk):
            def update(self, edges, sampled):
                return sampled

        class CountingWalk(SimpleRandomWalk):
            def neighbor_count(self, edges, requested):
                return requested

        for program, hook in (
            (AcceptingWalk(), "accept"),
            (UpdatingWalk(), "update"),
            (CountingWalk(), "neighbor_count"),
        ):
            decision = compile_decision(program, walk_config())
            assert not decision.eligible
            assert hook in decision.reason

    def test_undeclared_and_unknown_kinds_reject(self):
        assert not compile_decision(SamplingProgram(), SamplingConfig()).eligible

        class MysteryWalk(SimpleRandomWalk):
            compiled_bias = "quantum"

        decision = compile_decision(MysteryWalk(), walk_config())
        assert not decision.eligible
        assert "quantum" in decision.reason


class TestResolveStep:
    def test_eligible_walk_compiles_on_engine_routes(self):
        # The walk kernel has a driver on each: the depth loop (in-memory,
        # coalesced), the partition drain (out-of-memory) and the shard
        # epoch (sharded).
        for route in ("in_memory", "coalesced", "out_of_memory", "sharded"):
            resolution = resolve_step(
                walk_config(), route, program=SimpleRandomWalk()
            )
            assert resolution.tier == "compiled"
            assert resolution.kernel == "walk"
            assert resolution.backend in ("numpy", "numba")
            assert resolution.fallback is None

    def test_non_engine_routes_compile_on_the_engine(self):
        # Non-walk shapes compile on the numpy engine kernel (no walk-kernel
        # driver to jit), here on the out-of-memory route.
        non_walk = walk_config().replace(with_replacement=False)
        for route, config in (("out_of_memory", non_walk),):
            resolution = resolve_step(config, route, program=SimpleRandomWalk())
            assert resolution.tier == "compiled"
            assert resolution.kernel == "engine"
            assert resolution.backend == "numpy"
            assert resolution.fallback is None

    def test_env_disable(self, monkeypatch):
        monkeypatch.setenv("REPRO_COMPILED", "0")
        resolution = resolve_step(
            walk_config(), "in_memory", program=SimpleRandomWalk()
        )
        assert (resolution.tier, resolution.kernel) == ("interpreted", "none")
        assert "REPRO_COMPILED" in resolution.fallback

    def test_algorithm_name_resolves_via_registry(self):
        resolution = resolve_step(
            walk_config(), "in_memory", algorithm="simple_random_walk"
        )
        assert (resolution.tier, resolution.fallback) == ("compiled", None)
        resolution = resolve_step(
            walk_config(), "in_memory", algorithm="no_such_algorithm"
        )
        assert resolution.tier == "interpreted"
        assert "unknown" in resolution.fallback

    @pytest.mark.parametrize("walkers", [1, 8, 64])
    def test_tier_never_depends_on_size(self, walkers):
        # Compiled beats interpreted down to one walker, so small walk plans
        # compile like large ones (there is no cost comparison to lose).
        from repro.api.sampler import GraphSampler
        from repro.graph.generators import powerlaw_graph

        graph = powerlaw_graph(200, 5.0, seed=1)
        sampler = GraphSampler(graph, SimpleRandomWalk(), walk_config())
        execution_plan = sampler.plan(list(range(walkers)))
        assert execution_plan.num_instances == walkers
        assert execution_plan.step_tier == "compiled"
        assert execution_plan.compiled_fallback is None
