"""Kernel-cache keying: hits, misses, and invalidation."""

import pytest

from repro.algorithms.node2vec import Node2Vec
from repro.algorithms.random_walk import SimpleRandomWalk
from repro.compiled import (
    clear_kernel_cache,
    kernel_cache_stats,
    resolve_step,
)
from repro.compiled import backends as backends_mod
from repro.api.instance import make_instances
from repro.graph.generators import powerlaw_graph
from repro.planner.planner import PlanRequest, plan


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_kernel_cache()
    yield
    clear_kernel_cache()


class TestKernelCache:
    def test_same_key_hits(self):
        # Instance counts are no part of the key: any two plans of one
        # (program, config) share the resolution.
        program = SimpleRandomWalk()
        config = SimpleRandomWalk.default_config()
        r1 = resolve_step(config, program=program)
        r2 = resolve_step(config, program=SimpleRandomWalk())
        assert r1 is r2
        stats = kernel_cache_stats()
        assert (stats["entries"], stats["hits"], stats["misses"]) == (1, 1, 1)

    def test_config_and_program_divergence_miss(self):
        program = SimpleRandomWalk()
        resolve_step(SimpleRandomWalk.default_config(), program=program)
        resolve_step(
            SimpleRandomWalk.default_config(depth=4), program=program
        )
        assert kernel_cache_stats()["entries"] == 2

    def test_one_entry_serves_all_four_routes(self):
        # The route is no part of the key: the plans of one (program,
        # config) share one resolution whichever route they take.
        graph = powerlaw_graph(100, 4.0, seed=3)
        program = SimpleRandomWalk()
        config = SimpleRandomWalk.default_config()
        batch = make_instances([0, 1, 2])
        for route in ("in_memory", "coalesced", "out_of_memory", "sharded"):
            inputs = (
                {"members": [batch, batch]} if route == "coalesced"
                else {"instances": batch}
            )
            plan(PlanRequest(
                graph=graph, program=program, config=config,
                force_route=route, **inputs,
            ))
        stats = kernel_cache_stats()
        assert (stats["entries"], stats["misses"], stats["hits"]) == (1, 1, 3)

    def test_node2vec_parameters_key_the_cache(self):
        config = Node2Vec.default_config()
        resolve_step(config, program=Node2Vec(p=0.5, q=2.0))
        resolve_step(config, program=Node2Vec(p=2.0, q=0.5))
        assert kernel_cache_stats()["entries"] == 2

    def test_backend_fingerprint_invalidates(self, monkeypatch):
        program = SimpleRandomWalk()
        config = SimpleRandomWalk.default_config()
        resolve_step(config, program=program)
        # A changed backend environment (numba appearing/disappearing, or a
        # forced backend) must never serve the previously cached kernel.
        monkeypatch.setattr(backends_mod, "_backend_override", "numpy")
        resolve_step(config, program=program)
        stats = kernel_cache_stats()
        assert (stats["entries"], stats["misses"], stats["hits"]) == (2, 2, 0)

    def test_ineligible_resolves_interpreted_with_a_reason(self):
        # Stateful-hook programs are the remaining ineligible shape (config
        # variations demote to the engine kernel instead of rejecting); the
        # refusal is memoised like any other resolution.
        from repro.algorithms.metropolis_hastings import MetropolisHastingsWalk

        config = SimpleRandomWalk.default_config()
        for _ in range(2):
            resolution = resolve_step(
                config, program=MetropolisHastingsWalk()
            )
            assert (resolution.tier, resolution.kernel) == ("interpreted", "none")
            assert "accept" in resolution.fallback
        stats = kernel_cache_stats()
        assert (stats["entries"], stats["hits"], stats["misses"]) == (1, 1, 1)

    def test_engine_kind_for_non_walk_shapes(self):
        config = SimpleRandomWalk.default_config(with_replacement=False)
        resolution = resolve_step(config, program=SimpleRandomWalk())
        # Engine-kind resolutions have no separate kernel object: the
        # compiled step engine itself is the kernel.
        assert resolution.kernel == "engine"
        assert resolution.backend == "numpy"

    def test_switch_bypasses_the_cache(self, monkeypatch):
        monkeypatch.setenv("REPRO_COMPILED", "0")
        resolve_step(
            SimpleRandomWalk.default_config(), program=SimpleRandomWalk()
        )
        assert kernel_cache_stats()["entries"] == 0
