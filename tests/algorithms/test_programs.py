"""Tests for the algorithm zoo: every Table I program behaves as specified."""

import numpy as np
import pytest

from repro.algorithms import (
    BiasedNeighborSampling,
    BiasedRandomWalk,
    DeepWalk,
    ForestFireSampling,
    LayerSampling,
    MetropolisHastingsWalk,
    MultiDimensionalRandomWalk,
    Node2Vec,
    RandomWalkWithJump,
    RandomWalkWithRestart,
    SimpleRandomWalk,
    SnowballSampling,
    UnbiasedNeighborSampling,
    run_random_walks,
)
from repro.api.bias import EdgePool, SamplingProgram
from repro.api.instance import InstanceState
from repro.api.sampler import sample_graph
from repro.api.select import gather_neighbors


def edge_pool(graph, vertex, prev=-1):
    inst = InstanceState(0, np.array([vertex]))
    inst.prev_vertex = prev
    return gather_neighbors(graph, vertex, inst)


#: The programs whose bias is all ones: ``compiled_bias = "uniform"``.
UNIFORM_PROGRAMS = (
    SimpleRandomWalk,
    UnbiasedNeighborSampling,
    SnowballSampling,
    MultiDimensionalRandomWalk,
    ForestFireSampling,
    MetropolisHastingsWalk,
    RandomWalkWithJump,
)


@pytest.mark.parametrize("cls", UNIFORM_PROGRAMS, ids=lambda cls: cls.__name__)
def test_uniform_bias_is_stated_once(cls, toy_graph):
    """The declaration and the ``SamplingProgram`` defaults state the
    all-ones bias; no uniform program restates it in its own hooks."""
    assert cls.compiled_bias == "uniform"
    assert cls.edge_bias is SamplingProgram.edge_bias
    assert cls.edge_bias_batch is SamplingProgram.edge_bias_batch
    pool = edge_pool(toy_graph, 8)
    assert np.array_equal(cls().edge_bias(pool), np.ones(pool.size))


class TestNeighborSampling:
    def test_unbiased_edge_bias_uniform(self, toy_graph):
        pool = edge_pool(toy_graph, 8)
        assert np.allclose(UnbiasedNeighborSampling().edge_bias(pool), 1.0)

    def test_biased_uses_weights_when_available(self, weighted_toy_graph):
        pool = edge_pool(weighted_toy_graph, 8)
        assert np.allclose(BiasedNeighborSampling().edge_bias(pool), pool.weights)

    def test_biased_falls_back_to_degree(self, toy_graph):
        pool = edge_pool(toy_graph, 8)
        bias = BiasedNeighborSampling().edge_bias(pool)
        assert np.array_equal(bias, toy_graph.degrees[pool.neighbors] + 1.0)

    def test_update_filters_visited(self, toy_graph):
        pool = edge_pool(toy_graph, 8)
        pool.instance.mark_visited(np.array([5, 7]))
        fresh = UnbiasedNeighborSampling().update(pool, np.array([5, 7, 9]))
        assert list(fresh) == [9]

    def test_no_duplicate_edges_and_no_reexpansion(self, small_powerlaw_graph):
        """Traversal sampling without replacement: per instance, the same edge
        is never sampled twice and no vertex is expanded as a frontier vertex
        more than once (the visited filter keeps it out of later pools)."""
        program = UnbiasedNeighborSampling()
        config = program.default_config(depth=3, neighbor_size=3)
        result = sample_graph(small_powerlaw_graph, program, seeds=list(range(10)),
                              config=config)
        for sample in result.samples:
            pairs = [tuple(e) for e in sample.edges.tolist()]
            assert len(pairs) == len(set(pairs)), "an edge was sampled twice"
            sources = sample.edges[:, 0]
            # A frontier vertex expanded once contributes a contiguous block of
            # source entries; count how many distinct blocks each source has.
            for src in np.unique(sources):
                positions = np.nonzero(sources == src)[0]
                assert np.all(np.diff(positions) == 1), "a vertex was expanded twice"


class TestForestFireAndSnowball:
    def test_forest_fire_neighbor_count_bounded(self, toy_graph):
        program = ForestFireSampling(burning_probability=0.7, seed=1)
        pool = edge_pool(toy_graph, 8)
        for _ in range(50):
            count = program.neighbor_count(pool, 999)
            assert 0 <= count <= pool.size

    def test_forest_fire_mean_burn_rate(self, toy_graph):
        program = ForestFireSampling(burning_probability=0.7, seed=2)
        pool = edge_pool(toy_graph, 8)
        draws = [program.neighbor_count(pool, 999) for _ in range(3000)]
        # Mean of the geometric draw is p/(1-p) = 2.33, truncated by pool size 5.
        assert 1.2 < np.mean(draws) < 3.0

    def test_forest_fire_invalid_probability(self):
        with pytest.raises(ValueError):
            ForestFireSampling(burning_probability=1.5)

    def test_snowball_takes_every_neighbor(self, toy_graph):
        program = SnowballSampling()
        pool = edge_pool(toy_graph, 8)
        assert program.neighbor_count(pool, 1) == pool.size

    def test_snowball_cap(self, toy_graph):
        program = SnowballSampling(max_per_vertex=2)
        pool = edge_pool(toy_graph, 8)
        assert program.neighbor_count(pool, 1) == 2
        with pytest.raises(ValueError):
            SnowballSampling(max_per_vertex=0)

    def test_snowball_depth1_samples_all_neighbors(self, toy_graph):
        program = SnowballSampling()
        result = sample_graph(toy_graph, program, seeds=[8],
                              config=program.default_config(depth=1))
        assert result.total_sampled_edges == toy_graph.degree(8)


class TestLayerSampling:
    def test_layer_budget_shared_across_frontier(self, toy_graph):
        program = LayerSampling()
        config = program.default_config(depth=1, neighbor_size=3)
        result = sample_graph(toy_graph, program, seeds=[[8, 0]], config=config)
        # Per-layer scope: at most NeighborSize edges for the whole layer.
        assert 0 < result.total_sampled_edges <= 3

    def test_uses_weights_when_available(self, weighted_toy_graph):
        program = LayerSampling()
        pool = edge_pool(weighted_toy_graph, 8)
        assert np.allclose(program.edge_bias(pool), pool.weights)


class TestRandomWalks:
    def test_walk_is_a_path(self, toy_graph):
        program = SimpleRandomWalk()
        config = program.default_config(depth=6)
        result = sample_graph(toy_graph, program, seeds=[8], config=config)
        edges = result.samples[0].edges
        # Consecutive edges chain: dst of step i == src of step i+1.
        for i in range(len(edges) - 1):
            assert edges[i, 1] == edges[i + 1, 0]
        for src, dst in edges:
            assert toy_graph.has_edge(int(src), int(dst))

    def test_deepwalk_is_unbiased_alias(self, toy_graph):
        pool = edge_pool(toy_graph, 8)
        assert np.allclose(DeepWalk().edge_bias(pool), 1.0)

    def test_biased_walk_prefers_heavy_edges(self, weighted_toy_graph):
        pool = edge_pool(weighted_toy_graph, 8)
        assert np.allclose(BiasedRandomWalk().edge_bias(pool), pool.weights)

    def test_run_random_walks_lengths(self, small_powerlaw_graph):
        result = run_random_walks(small_powerlaw_graph, seeds=np.arange(20),
                                  walk_length=15, seed=3)
        assert result.num_instances == 20
        assert result.total_sampled_edges <= 20 * 15
        assert result.total_sampled_edges > 0
        for sample in result.samples:
            for src, dst in sample.edges:
                assert small_powerlaw_graph.has_edge(int(src), int(dst))

    def test_run_random_walks_deterministic(self, small_powerlaw_graph):
        a = run_random_walks(small_powerlaw_graph, seeds=np.arange(10), walk_length=5, seed=1)
        b = run_random_walks(small_powerlaw_graph, seeds=np.arange(10), walk_length=5, seed=1)
        assert np.array_equal(a.all_edges(), b.all_edges())

    def test_run_random_walks_invalid_length(self, ring10):
        with pytest.raises(ValueError):
            run_random_walks(ring10, seeds=[0], walk_length=0)


class TestMetropolisHastings:
    def test_rejection_keeps_walker_in_place(self, toy_graph):
        program = MetropolisHastingsWalk(seed=0)
        pool = edge_pool(toy_graph, 8)
        stay = program.update(pool, np.array([], dtype=np.int64))
        assert list(stay) == [8]

    def test_acceptance_probability_degree_ratio(self, toy_graph):
        program = MetropolisHastingsWalk(seed=1)
        # From a low-degree vertex to the hub 8, acceptance should be partial.
        pool = edge_pool(toy_graph, 12)
        accepted = sum(
            program.accept(pool, np.array([pool.neighbors[0]])).size for _ in range(500)
        )
        ratio = toy_graph.degree(12) / toy_graph.degree(int(pool.neighbors[0]))
        assert accepted / 500 == pytest.approx(min(1.0, ratio), abs=0.1)

    def test_walk_runs(self, toy_graph):
        program = MetropolisHastingsWalk(seed=2)
        result = sample_graph(toy_graph, program, seeds=[8, 0],
                              config=program.default_config(depth=5))
        assert result.num_instances == 2


class TestJumpRestart:
    def test_jump_probability_one_always_teleports(self, toy_graph):
        program = RandomWalkWithJump(jump_probability=1.0, seed=3)
        pool = edge_pool(toy_graph, 8)
        targets = {int(program.update(pool, np.array([5]))[0]) for _ in range(100)}
        assert len(targets) > 3  # teleports all over the graph

    def test_jump_probability_zero_never_teleports(self, toy_graph):
        program = RandomWalkWithJump(jump_probability=0.0, seed=3)
        pool = edge_pool(toy_graph, 8)
        assert list(program.update(pool, np.array([5]))) == [5]

    def test_restart_returns_to_seed(self, toy_graph):
        program = RandomWalkWithRestart(restart_probability=1.0, seed=4)
        inst = InstanceState(0, np.array([2]))
        inst.set_pool(np.array([8]))
        pool = EdgePool(src=8, neighbors=toy_graph.neighbors(8),
                        weights=toy_graph.neighbor_weights(8), instance=inst,
                        graph=toy_graph)
        assert list(program.update(pool, np.array([5]))) == [2]

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            RandomWalkWithJump(jump_probability=1.5)


class TestMultiDimensionalRandomWalk:
    def test_pool_size_stays_constant(self, small_powerlaw_graph):
        program = MultiDimensionalRandomWalk()
        config = program.default_config(depth=10)
        sampler_seeds = [[0, 1, 2, 3, 4]]
        result = sample_graph(small_powerlaw_graph, program, seeds=sampler_seeds, config=config)
        # One edge sampled per step (when the selected vertex has neighbors).
        assert 0 < result.total_sampled_edges <= 10

    def test_vertex_bias_is_degree_based(self, toy_graph):
        from repro.api.bias import FrontierPoolView
        program = MultiDimensionalRandomWalk()
        inst = InstanceState(0, np.array([8, 12, 0]))
        view = FrontierPoolView(vertices=inst.frontier_pool,
                                degrees=toy_graph.degrees[inst.frontier_pool],
                                instance=inst, graph=toy_graph)
        bias = program.vertex_bias(view)
        assert bias[0] > bias[1]  # hub 8 outweighs low-degree 12


class TestNode2Vec:
    def test_first_step_uses_plain_weights(self, weighted_toy_graph):
        program = Node2Vec(p=4.0, q=0.25)
        pool = edge_pool(weighted_toy_graph, 8, prev=-1)
        assert np.allclose(program.edge_bias(pool), pool.weights)

    def test_return_and_outward_biases(self, weighted_toy_graph):
        p, q = 4.0, 0.25
        program = Node2Vec(p=p, q=q)
        pool = edge_pool(weighted_toy_graph, 8, prev=5)
        bias = program.edge_bias(pool)
        neighbors = pool.neighbors.tolist()
        prev_neighbors = set(weighted_toy_graph.neighbors(5).tolist())
        for i, u in enumerate(neighbors):
            w = pool.weights[i]
            if u == 5:
                assert bias[i] == pytest.approx(w / p)
            elif u in prev_neighbors:
                assert bias[i] == pytest.approx(w)
            else:
                assert bias[i] == pytest.approx(w / q)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            Node2Vec(p=0.0)
        with pytest.raises(ValueError):
            Node2Vec(q=-1.0)

    def test_walk_runs_end_to_end(self, weighted_toy_graph):
        program = Node2Vec(p=2.0, q=0.5)
        result = sample_graph(weighted_toy_graph, program, seeds=[8, 0, 3],
                              config=program.default_config(depth=6))
        assert result.total_sampled_edges > 0
