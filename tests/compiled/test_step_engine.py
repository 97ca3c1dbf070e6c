"""The step engine's hook sites: binding policy and declared-shape equivalence."""

import numpy as np
import pytest

from repro.algorithms.registry import ALGORITHM_REGISTRY
from repro.api.instance import make_instances
from repro.api.sampler import GraphSampler
from repro.baselines.reference import ScalarMainLoop
from repro.compiled import (
    clear_structure_cache,
    resolve_step,
    structure_cache_stats,
)
from repro.engine.step import BatchedStepEngine, alloc_warp_ids
from repro.gpusim.costmodel import CostModel
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
    program = info.program_factory()
    return BatchedStepEngine(
        graph, program, config, CounterRNG(config.seed),
        resolve_step(config, program=program).kind,
    )


class TestEngineSelection:
    @pytest.mark.parametrize("name", ENGINE_SHAPED)
    def test_eligible_programs_get_declared_sites(self, graph, name):
        engine = _build(graph, name)
        program = ALGORITHM_REGISTRY[name].program_factory()
        assert engine.kind == program.compiled_bias

    @pytest.mark.parametrize("name", STATEFUL)
    def test_stateful_programs_stay_interpreted(self, graph, name):
        assert _build(graph, name).kind is None

    def test_env_disable_forces_interpreted(self, graph, monkeypatch):
        monkeypatch.setenv("REPRO_COMPILED", "0")
        assert _build(graph, "biased_neighbor_sampling").kind is None

    def test_no_kind_means_hook_dispatching_sites(self, graph):
        info = ALGORITHM_REGISTRY["biased_neighbor_sampling"]
        engine = BatchedStepEngine(
            graph, info.program_factory(), info.config_factory(), CounterRNG(0)
        )
        assert engine.kind is None

    def test_only_the_walk_kernel_reads_the_structure_cache(self, graph):
        """The engine evaluates biases per step; the per-graph tables have
        one reader, the fused walk kernel."""
        seeds = list(range(0, graph.num_vertices, 15))

        def run(name, **overrides):
            info = ALGORITHM_REGISTRY[name]
            sampler = GraphSampler(
                graph, info.program_factory(),
                info.config_factory(seed=13, **overrides),
            )
            sampler.run(seeds)
            return sampler

        assert run("biased_neighbor_sampling").engine.kind == "weight_or_degree"
        # A frontier-selecting node2vec is no walk shape: the engine kernel
        # runs its declared node2vec site, which reads no structure.
        node2vec = run("node2vec", frontier_size=2)
        assert node2vec.engine.kind == "node2vec"
        assert node2vec.plan(seeds).step_tier == "compiled"
        stats = structure_cache_stats()
        assert (stats["builds"], stats["hits"], stats["misses"]) == (0, 0, 0)
        run("biased_random_walk")
        stats = structure_cache_stats()
        assert (stats["builds"], stats["hits"], stats["misses"]) == (1, 0, 1)
        run("biased_random_walk")
        stats = structure_cache_stats()
        assert (stats["builds"], stats["hits"], stats["misses"]) == (1, 1, 1)


class TestDeclaredShapeEquivalence:
    """The engine's declared-shape sites vs the real hooks.

    The cross-route matrix already pins full-run bit-identity; these tests
    pin it at the engine level, per algorithm, so a shape regression is
    attributed to the site rather than to route plumbing.
    """

    @pytest.mark.parametrize("name", ENGINE_SHAPED)
    def test_engine_runs_bit_identical(self, graph, name, monkeypatch):
        info = ALGORITHM_REGISTRY[name]
        config = info.config_factory(seed=13)
        seeds = [int(s) for s in range(0, graph.num_vertices, 15)]

        def run(compiled):
            sampler = GraphSampler(graph, info.program_factory(), config)
            assert (sampler.engine.kind is not None) == compiled
            return sampler.run(seeds)

        compiled = run(True)
        monkeypatch.setenv("REPRO_COMPILED", "0")
        interp = run(False)
        assert interp.iteration_counts == compiled.iteration_counts
        assert interp.cost.as_dict() == compiled.cost.as_dict()
        for a, b in zip(interp.samples, compiled.samples):
            assert np.array_equal(a.edges, b.edges)


class TestGroupedWarpIds:
    """``alloc_warp_ids``: the one allocator of the engine and the walk kernel."""

    @staticmethod
    def loop_reference(groups, cursors):
        """The per-group loop the grouped running count replaced."""
        warp_ids = np.full(groups.size, -1, dtype=np.int64)
        for group in np.unique(groups):
            members = groups == group
            count = int(members.sum())
            warp_ids[members] = cursors[group] + np.arange(count, dtype=np.int64)
            cursors[group] += count
        return warp_ids

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_the_loop_on_random_layouts(self, seed):
        rng = np.random.default_rng(seed)
        num_groups = int(rng.integers(1, 12))
        num_segments = int(rng.integers(0, 40))
        # Repeated and interleaved groups, some never allocated; a
        # per-walker layout when groups are distinct.
        groups = rng.integers(0, num_groups, num_segments)
        start = rng.integers(0, 50, num_groups).astype(np.int64)

        expected_cursors = start.copy()
        expected = self.loop_reference(groups, expected_cursors)
        cursors = start.copy()
        assert np.array_equal(
            alloc_warp_ids(cursors, num_segments, groups), expected
        )
        assert np.array_equal(cursors, expected_cursors)

    def test_one_group_is_a_plain_run(self):
        cursors = np.array([5, 9], dtype=np.int64)
        assert alloc_warp_ids(cursors, 3, 1).tolist() == [9, 10, 11]
        assert alloc_warp_ids(cursors, 2).tolist() == [5, 6]  # ungrouped: 0
        assert alloc_warp_ids(cursors, 0, 1).size == 0
        assert cursors.tolist() == [7, 12]


class TestPrevVertex:
    """``prev_vertex`` feeds node2vec's dynamic bias: walks only."""

    @pytest.fixture(scope="class")
    def walk_graph(self):
        return powerlaw_graph(300, 6.0, exponent=2.2, seed=3)

    @pytest.mark.parametrize("stepper", ["oracle", "engine"])
    def test_prev_vertex_only_set_for_single_vertex_frontiers(self, walk_graph,
                                                              stepper):
        """Multi-vertex frontiers must not clobber prev_vertex (the node2vec bug)."""
        info = ALGORITHM_REGISTRY["unbiased_neighbor_sampling"]
        program, config = info.program_factory(), info.config_factory(seed=1, depth=2)
        if stepper == "engine":
            engine = GraphSampler(walk_graph, program, config).engine
        else:
            engine = ScalarMainLoop(walk_graph, program, config)
        insts = make_instances([[1, 2, 3]])
        engine.step_instances(insts, 0, CostModel(), [])
        assert insts[0].prev_vertex == -1  # three-vertex frontier: untouched

    def test_walk_prev_vertex_still_tracked(self, walk_graph):
        """Single-vertex (walk) frontiers keep feeding node2vec's dynamic bias."""
        info = ALGORITHM_REGISTRY["simple_random_walk"]
        sampler = GraphSampler(
            walk_graph, info.program_factory(), info.config_factory(seed=1),
        )
        insts = make_instances([5])
        sampler.engine.step_instances(insts, 0, CostModel(), [])
        assert insts[0].prev_vertex == 5
