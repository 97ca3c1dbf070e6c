"""Static eligibility: which (program, config) pairs compile, and why not.

:func:`resolve_step` is the one decision: eligible means ``tier ==
"compiled"``, the refusal reason is ``fallback`` and a walk shape is
``kernel == "walk"``.
"""

import pytest

from repro.algorithms.registry import ALGORITHM_REGISTRY
from repro.api.bias import SamplingProgram
from repro.api.config import PoolPolicy, SamplingConfig, SelectionScope
from repro.compiled import resolve_step
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


def decide(program, config):
    return resolve_step(config, program=program)


class TestEligibility:
    @pytest.mark.parametrize("name", sorted(ALGORITHM_REGISTRY))
    def test_registry_eligibility(self, name):
        info = ALGORITHM_REGISTRY[name]
        decision = decide(info.program_factory(), info.config_factory())
        if name in COMPILED_ALGORITHMS:
            kind, walk_shape = COMPILED_ALGORITHMS[name]
            assert decision.tier == "compiled"
            assert decision.kind == kind
            assert (decision.kernel == "walk") == walk_shape
            assert decision.fallback is None
        else:
            # The stateful-hook programs: an explicit reason is recorded.
            assert decision.tier != "compiled"
            assert decision.fallback

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
        decision = decide(SimpleRandomWalk(), walk_config(**overrides))
        assert decision.tier == "compiled"
        assert decision.kernel != "walk"

    def test_default_walk_config_is_walk_shaped(self):
        decision = decide(SimpleRandomWalk(), walk_config())
        assert decision.tier == "compiled"
        assert decision.kernel == "walk"

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
            decision = decide(program, walk_config())
            assert decision.tier != "compiled"
            assert hook in decision.fallback

    def test_undeclared_and_unknown_kinds_reject(self):
        assert decide(SamplingProgram(), SamplingConfig()).tier != "compiled"

        class MysteryWalk(SimpleRandomWalk):
            compiled_bias = "quantum"

        decision = decide(MysteryWalk(), walk_config())
        assert decision.tier != "compiled"
        assert "quantum" in decision.fallback


class TestResolveStep:
    def test_eligible_walk_compiles_on_the_walk_kernel(self):
        # Every route's loop calls it: the depth loop (in-memory,
        # coalesced), the partition drain (out-of-memory) and the shard
        # epoch (sharded).
        resolution = resolve_step(walk_config(), program=SimpleRandomWalk())
        assert resolution.tier == "compiled"
        assert resolution.kernel == "walk"
        assert resolution.backend in ("numpy", "numba")
        assert resolution.fallback is None

    def test_non_walk_shapes_compile_on_the_engine(self):
        # Non-walk shapes compile on the numpy engine kernel (no walk-kernel
        # inner loop to jit).
        non_walk = walk_config().replace(with_replacement=False)
        resolution = resolve_step(non_walk, program=SimpleRandomWalk())
        assert resolution.tier == "compiled"
        assert resolution.kernel == "engine"
        assert resolution.backend == "numpy"
        assert resolution.fallback is None

    def test_env_disable(self, monkeypatch):
        monkeypatch.setenv("REPRO_COMPILED", "0")
        resolution = resolve_step(walk_config(), program=SimpleRandomWalk())
        assert (resolution.tier, resolution.kernel) == ("interpreted", "none")
        assert "REPRO_COMPILED" in resolution.fallback

    def test_algorithm_name_resolves_via_registry(self):
        resolution = resolve_step(
            walk_config(), algorithm="simple_random_walk"
        )
        assert (resolution.tier, resolution.fallback) == ("compiled", None)
        resolution = resolve_step(walk_config(), algorithm="no_such_algorithm")
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
