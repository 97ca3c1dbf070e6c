"""Tests for warp-centric SELECT, batch walk steps and the MAIN-loop sampler."""

import numpy as np
import pytest

from repro.api.bias import EdgePool, FrontierPoolView, SamplingProgram, UniformProgram
from repro.api.config import SamplingConfig
from repro.api.sampler import GraphSampler, sample_graph
from repro.api.select import gather_neighbors, warp_select
from repro.api.instance import InstanceState
from repro.gpusim.costmodel import CostModel
from repro.gpusim.prng import CounterRNG
from repro.gpusim.warp import WarpExecutor
from repro.graph.generators import ring_graph, star_graph


def make_warp(seed=0):
    return WarpExecutor(warp_id=1, cost=CostModel(), rng=CounterRNG(seed))


class TestGatherNeighbors:
    def test_returns_pool_and_charges_memory(self, toy_graph):
        inst = InstanceState(0, np.array([8]))
        cost = CostModel()
        pool = gather_neighbors(toy_graph, 8, inst, cost)
        assert set(pool.neighbors.tolist()) == {5, 7, 9, 10, 11}
        assert pool.src == 8
        assert pool.size == 5
        assert cost.global_bytes > 0
        assert np.allclose(pool.weights, 1.0)

    def test_neighbor_degrees(self, toy_graph):
        inst = InstanceState(0, np.array([8]))
        pool = gather_neighbors(toy_graph, 8, inst)
        assert np.array_equal(pool.neighbor_degrees(), toy_graph.degrees[pool.neighbors])


class TestWarpSelect:
    def test_without_replacement_distinct(self):
        warp = make_warp()
        result = warp_select(np.ones(6), 4, warp, 0, with_replacement=False)
        assert len(set(result.indices.tolist())) == 4

    def test_with_replacement_allows_repeats(self):
        warp = make_warp()
        result = warp_select(np.array([100.0, 1.0]), 16, warp, 0, with_replacement=True)
        assert result.indices.size == 16
        assert result.collisions == 0
        # With such a skewed bias, repeats of candidate 0 are essentially certain.
        assert np.sum(result.indices == 0) > 8

    def test_zero_count(self):
        result = warp_select(np.ones(3), 0, make_warp(), 0)
        assert result.indices.size == 0

    def test_negative_count(self):
        with pytest.raises(ValueError):
            warp_select(np.ones(3), -1, make_warp(), 0)

    def test_charges_divergence(self):
        warp = make_warp()
        warp_select(np.ones(8), 4, warp, 0, strategy="repeated", detector="linear")
        assert warp.cost.warp_steps > 0


class TestGraphSampler:
    def test_basic_run_produces_edges(self, toy_graph):
        program = UniformProgram()
        config = SamplingConfig(frontier_size=0, neighbor_size=2, depth=2)
        result = sample_graph(toy_graph, program, seeds=[8, 0], config=config)
        assert result.num_instances == 2
        assert result.total_sampled_edges > 0
        assert len(result.kernels) <= 2

    def test_result_cost_is_a_copy_of_the_device_cost(self, small_powerlaw_graph):
        sampler = GraphSampler(small_powerlaw_graph, UniformProgram(),
                               SamplingConfig(neighbor_size=1, depth=4, seed=1))
        result = sampler.run(list(range(10)))
        assert result.cost.as_dict() == sampler.device.cost.as_dict()
        assert result.cost is not sampler.device.cost

    def test_sampled_edges_exist_in_graph(self, toy_graph):
        program = UniformProgram()
        config = SamplingConfig(frontier_size=0, neighbor_size=3, depth=3)
        result = sample_graph(toy_graph, program, seeds=list(range(5)), config=config)
        for sample in result.samples:
            for src, dst in sample.edges:
                assert toy_graph.has_edge(int(src), int(dst))

    def test_determinism_same_seed(self, toy_graph):
        program = UniformProgram()
        config = SamplingConfig(neighbor_size=2, depth=2, seed=5)
        a = sample_graph(toy_graph, program, seeds=[8], config=config)
        b = sample_graph(toy_graph, program, seeds=[8], config=config)
        assert np.array_equal(a.samples[0].edges, b.samples[0].edges)

    def test_different_seeds_differ(self, small_powerlaw_graph):
        program = UniformProgram()
        a = sample_graph(small_powerlaw_graph, program, seeds=list(range(20)),
                         config=SamplingConfig(neighbor_size=2, depth=2, seed=1))
        b = sample_graph(small_powerlaw_graph, program, seeds=list(range(20)),
                         config=SamplingConfig(neighbor_size=2, depth=2, seed=2))
        assert not np.array_equal(a.all_edges(), b.all_edges())

    def test_depth_limits_sample_size(self, small_powerlaw_graph):
        program = UniformProgram()
        shallow = sample_graph(small_powerlaw_graph, program, seeds=list(range(10)),
                               config=SamplingConfig(neighbor_size=2, depth=1, seed=0))
        deep = sample_graph(small_powerlaw_graph, program, seeds=list(range(10)),
                            config=SamplingConfig(neighbor_size=2, depth=3, seed=0))
        assert deep.total_sampled_edges > shallow.total_sampled_edges
        # Depth 1 with NeighborSize 2 samples at most 2 edges per instance.
        assert shallow.total_sampled_edges <= 20

    def test_invalid_seed_rejected(self, toy_graph):
        with pytest.raises(ValueError):
            sample_graph(toy_graph, UniformProgram(), seeds=[99],
                         config=SamplingConfig(depth=1))

    def test_empty_graph_rejected(self):
        import numpy as np
        from repro.graph.csr import CSRGraph
        empty = CSRGraph(np.array([0]), np.array([], dtype=np.int64))
        with pytest.raises(ValueError):
            GraphSampler(empty, UniformProgram(), SamplingConfig())

    def test_bad_bias_program_rejected(self, toy_graph):
        class BadProgram(SamplingProgram):
            def edge_bias(self, edges):
                return np.ones(edges.size + 1)

        with pytest.raises(ValueError):
            sample_graph(toy_graph, BadProgram(), seeds=[8], config=SamplingConfig(depth=1))

    def test_negative_bias_rejected(self, toy_graph):
        class NegativeProgram(SamplingProgram):
            def edge_bias(self, edges):
                return -np.ones(edges.size)

        with pytest.raises(ValueError):
            sample_graph(toy_graph, NegativeProgram(), seeds=[8], config=SamplingConfig(depth=1))

    def test_isolated_seed_finishes_without_edges(self):
        graph = star_graph(3, bidirectional=False)
        result = sample_graph(graph, UniformProgram(), seeds=[1],
                              config=SamplingConfig(depth=3, neighbor_size=2))
        assert result.total_sampled_edges == 0

    def test_kernel_time_and_seps_positive(self, small_powerlaw_graph):
        result = sample_graph(small_powerlaw_graph, UniformProgram(), seeds=list(range(10)),
                              config=SamplingConfig(neighbor_size=2, depth=2))
        assert result.kernel_time() > 0
        assert result.seps() > 0
        summary = result.summary()
        assert summary["sampled_edges"] == result.total_sampled_edges

    def test_accept_hook_filters_recorded_edges(self, toy_graph):
        class RejectAll(SamplingProgram):
            def accept(self, edges, sampled):
                return sampled[:0]

            def update(self, edges, sampled):
                return np.array([edges.src])

        result = sample_graph(toy_graph, RejectAll(), seeds=[8],
                              config=SamplingConfig(depth=3, neighbor_size=1,
                                                    with_replacement=True))
        assert result.total_sampled_edges == 0

    def test_frontier_pool_view_passed_to_vertex_bias(self, toy_graph):
        seen = {}

        class Spy(SamplingProgram):
            def vertex_bias(self, pool: FrontierPoolView):
                seen["size"] = pool.size
                seen["degrees"] = pool.degrees.copy()
                return np.ones(pool.size)

        config = SamplingConfig(frontier_size=1, neighbor_size=1, depth=1)
        sample_graph(toy_graph, Spy(), seeds=[[8, 0, 3]], config=config)
        assert seen["size"] == 3
        assert np.array_equal(seen["degrees"], toy_graph.degrees[[8, 0, 3]])
