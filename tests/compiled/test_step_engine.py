"""CompiledStepEngine: construction policy and declared-shape equivalence."""

import numpy as np
import pytest

from repro.algorithms.registry import ALGORITHM_REGISTRY
from repro.api.sampler import GraphSampler
from repro.compiled import clear_structure_cache, structure_cache_stats
from repro.compiled.step_engine import CompiledStepEngine, make_step_engine
from repro.engine.step import BatchedStepEngine
from repro.gpusim.prng import CounterRNG
from repro.graph.generators import powerlaw_graph

ENGINE_SHAPED = (
    "unbiased_neighbor_sampling",
    "biased_neighbor_sampling",
    "snowball_sampling",
    "layer_sampling",
    "multidimensional_random_walk",
)

STATEFUL = (
    "forest_fire_sampling",
    "metropolis_hastings_walk",
    "random_walk_with_jump",
    "random_walk_with_restart",
)


@pytest.fixture(scope="module")
def graph():
    return powerlaw_graph(150, 5.0, seed=7)


@pytest.fixture(autouse=True)
def fresh_structures():
    clear_structure_cache()
    yield
    clear_structure_cache()


def _build(graph, name):
    info = ALGORITHM_REGISTRY[name]
    config = info.config_factory(seed=13)
    return make_step_engine(
        graph, info.program_factory(), config, CounterRNG(config.seed),
        "in_memory",
    )


class TestEngineSelection:
    @pytest.mark.parametrize("name", ENGINE_SHAPED)
    def test_eligible_programs_get_the_compiled_engine(self, graph, name):
        engine = _build(graph, name)
        assert isinstance(engine, CompiledStepEngine)

    @pytest.mark.parametrize("name", STATEFUL)
    def test_stateful_programs_stay_interpreted(self, graph, name):
        engine = _build(graph, name)
        assert not isinstance(engine, CompiledStepEngine)
        assert isinstance(engine, BatchedStepEngine)

    def test_env_disable_forces_interpreted(self, graph, monkeypatch):
        monkeypatch.setenv("REPRO_COMPILED", "0")
        engine = _build(graph, "biased_neighbor_sampling")
        assert not isinstance(engine, CompiledStepEngine)

    def test_biased_engines_share_cached_structures(self, graph):
        _build(graph, "biased_neighbor_sampling")
        first = structure_cache_stats()
        assert first["misses"] == 1
        _build(graph, "biased_neighbor_sampling")
        second = structure_cache_stats()
        assert (second["hits"], second["misses"]) == (first["hits"] + 1, 1)


class TestDeclaredShapeEquivalence:
    """The compiled engine's declared-shape overrides vs the real hooks.

    The cross-route matrix already pins full-run bit-identity; these tests
    pin it at the engine level, per algorithm, so a shape regression is
    attributed to the override rather than to route plumbing.
    """

    @pytest.mark.parametrize("name", ENGINE_SHAPED)
    def test_engine_runs_bit_identical(self, graph, name, monkeypatch):
        info = ALGORITHM_REGISTRY[name]
        config = info.config_factory(seed=13)
        seeds = [int(s) for s in range(0, graph.num_vertices, 15)]

        def run(compiled):
            sampler = GraphSampler(graph, info.program_factory(), config)
            assert isinstance(sampler.engine, CompiledStepEngine) == compiled
            return sampler.run(seeds)

        compiled = run(True)
        monkeypatch.setenv("REPRO_COMPILED", "0")
        interp = run(False)
        assert interp.iteration_counts == compiled.iteration_counts
        assert interp.cost.as_dict() == compiled.cost.as_dict()
        for a, b in zip(interp.samples, compiled.samples):
            assert np.array_equal(a.edges, b.edges)


class TestGroupedWarpIds:
    """``_alloc_warp_block`` with warp groups: one grouped running count."""

    @staticmethod
    def loop_reference(groups, alloc, cursors):
        """The per-group loop the running count replaced."""
        warp_ids = np.full(alloc.size, -1, dtype=np.int64)
        for group in np.unique(groups[alloc]):
            members = alloc & (groups == group)
            count = int(members.sum())
            warp_ids[members] = cursors[group] + np.arange(count, dtype=np.int64)
            cursors[group] += count
        return warp_ids

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_the_loop_on_random_layouts(self, graph, seed):
        rng = np.random.default_rng(seed)
        num_groups = int(rng.integers(1, 12))
        num_segments = int(rng.integers(0, 40))
        # Repeated and interleaved groups, some never allocated, some
        # segments unallocated; a per-walker layout when groups are distinct.
        groups = rng.integers(0, num_groups, num_segments)
        alloc = rng.random(num_segments) < 0.7
        start = rng.integers(0, 50, num_groups)

        info = ALGORITHM_REGISTRY["simple_random_walk"]
        engine = BatchedStepEngine(
            graph, info.program_factory(), info.config_factory(), CounterRNG(0)
        )
        instances = [object() for _ in range(num_segments)]
        engine.set_warp_groups(
            {id(inst): int(g) for inst, g in zip(instances, groups)},
            num_groups, initial_cursors=start,
        )
        expected_cursors = start.astype(np.int64)
        expected = self.loop_reference(groups, alloc, expected_cursors)
        assert np.array_equal(engine._alloc_warp_block(instances, alloc), expected)
        assert np.array_equal(engine.group_cursors(), expected_cursors)
