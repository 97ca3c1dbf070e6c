"""Tests for graph partitioning and analytics."""

import numpy as np
import pytest

from repro.graph.builder import from_edge_list
from repro.graph.generators import powerlaw_graph, ring_graph
from repro.graph.partition import (
    PartitionSet,
    partition_bounds,
    partition_graph,
    range_owners,
    uniform_stride,
)
from repro.graph.properties import degree_histogram, gini_coefficient, graph_stats


class TestPartition:
    def test_partition_counts(self, small_powerlaw_graph):
        parts = partition_graph(small_powerlaw_graph, 4)
        assert parts.num_partitions == 4
        assert sum(p.num_vertices for p in parts) == small_powerlaw_graph.num_vertices
        assert sum(p.num_edges for p in parts) == small_powerlaw_graph.num_edges

    def test_partition_of_matches_ranges(self, small_powerlaw_graph):
        parts = partition_graph(small_powerlaw_graph, 4)
        for p in parts:
            assert parts.partition_of(p.lo) == p.index
            assert parts.partition_of(p.hi - 1) == p.index

    def test_partition_of_many_vectorised(self, small_powerlaw_graph):
        parts = partition_graph(small_powerlaw_graph, 3)
        vertices = np.arange(small_powerlaw_graph.num_vertices)
        owners = parts.partition_of_many(vertices)
        scalar = np.array([parts.partition_of(int(v)) for v in vertices])
        assert np.array_equal(owners, scalar)

    def test_partition_neighbor_lists_complete(self, small_powerlaw_graph):
        """Every partition keeps the *full* neighbor list of its vertices."""
        parts = partition_graph(small_powerlaw_graph, 4)
        for p in parts:
            for v in range(p.lo, min(p.hi, p.lo + 20)):
                assert np.array_equal(
                    p.subgraph.neighbors(v), small_powerlaw_graph.neighbors(v)
                )

    @pytest.mark.parametrize("balance", ["vertices", "edges"])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_footprints_equal_the_materialised_slice(
        self, small_powerlaw_graph, small_weighted_graph, weighted, balance
    ):
        """``nbytes`` / ``num_edges`` are closed forms; the slice is lazy.

        Transfer durations -- and through them ``sim_seps`` -- are computed
        from ``nbytes``, so the closed form must equal the slice's exactly.
        """
        graph = small_weighted_graph if weighted else small_powerlaw_graph
        parts = partition_graph(graph, 3, balance=balance)
        for p in parts:
            assert "subgraph" not in vars(p)  # reading footprints copies nothing
            footprint = (p.nbytes, p.num_edges)
            assert footprint == (p.subgraph.nbytes, p.subgraph.num_edges)
            assert p.subgraph is p.subgraph  # built once
        assert list(parts.sizes_bytes()) == [p.subgraph.nbytes for p in parts]
        assert list(parts.edge_counts()) == [p.subgraph.num_edges for p in parts]

    def test_edge_balanced_partition(self):
        g = powerlaw_graph(1000, 10.0, seed=4)
        by_vertex = partition_graph(g, 4, balance="vertices")
        by_edge = partition_graph(g, 4, balance="edges")
        assert np.std(by_edge.edge_counts()) <= np.std(by_vertex.edge_counts()) + 1e-9

    def test_single_partition(self, ring10):
        parts = partition_graph(ring10, 1)
        assert parts.num_partitions == 1
        assert parts[0].num_edges == ring10.num_edges

    def test_invalid_partition_requests(self, ring10):
        with pytest.raises(ValueError):
            partition_graph(ring10, 0)
        with pytest.raises(ValueError):
            partition_graph(ring10, 11)
        with pytest.raises(ValueError):
            partition_graph(ring10, 3, balance="magic")

    def test_partition_of_out_of_range(self, ring10):
        parts = partition_graph(ring10, 2)
        with pytest.raises(IndexError):
            parts.partition_of(10)

    def test_bad_boundaries_rejected(self, ring10):
        with pytest.raises(ValueError):
            PartitionSet(ring10, [0, 5, 5, 10])
        with pytest.raises(ValueError):
            PartitionSet(ring10, [1, 10])

    def test_sizes_bytes(self, small_powerlaw_graph):
        parts = partition_graph(small_powerlaw_graph, 4)
        sizes = parts.sizes_bytes()
        assert sizes.shape == (4,)
        assert np.all(sizes > 0)


class TestOwnerLookup:
    def test_owner_matches_partition_of(self, small_powerlaw_graph):
        parts = partition_graph(small_powerlaw_graph, 4)
        vertices = np.arange(small_powerlaw_graph.num_vertices)
        owners = parts.owner(vertices)
        scalar = np.array([parts.partition_of(int(v)) for v in vertices])
        assert np.array_equal(owners, scalar)

    def test_owner_scalar(self, ring10):
        parts = partition_graph(ring10, 2)
        assert int(parts.owner(0)) == 0
        assert int(parts.owner(9)) == 1
        with pytest.raises(IndexError):
            parts.owner(10)
        with pytest.raises(IndexError):
            parts.owner(np.array([-1, 3]))

    def test_uniform_stride_fast_path(self):
        # 100 vertices into 4 equal ranges: the O(1) division path.
        g = powerlaw_graph(100, 6.0, seed=1)
        bounds = partition_bounds(g, 4)
        assert uniform_stride(bounds) == 25
        vertices = np.arange(100)
        assert np.array_equal(
            range_owners(bounds, vertices, stride=25),
            range_owners(bounds, vertices),
        )

    def test_non_uniform_falls_back_to_searchsorted(self):
        bounds = np.array([0, 3, 50, 100], dtype=np.int64)
        assert uniform_stride(bounds) is None
        owners = range_owners(bounds, np.array([0, 2, 3, 49, 50, 99]))
        assert owners.tolist() == [0, 0, 1, 1, 2, 2]


class TestEdgeBalancedOnSkew:
    """The equal-edge policy under heavy (power-law) degree skew."""

    @pytest.fixture(scope="class")
    def skewed_graph(self):
        # exponent close to 2 gives a very heavy head: the first vertices
        # concentrate a large share of all edges.
        return powerlaw_graph(5000, 12.0, exponent=1.9, seed=13)

    @pytest.mark.parametrize("num_partitions", [2, 4, 8])
    def test_ranges_cover_all_vertices(self, skewed_graph, num_partitions):
        parts = partition_graph(skewed_graph, num_partitions, balance="edges")
        bounds = parts.boundaries
        assert bounds[0] == 0
        assert bounds[-1] == skewed_graph.num_vertices
        assert np.all(np.diff(bounds) > 0)
        assert sum(p.num_vertices for p in parts) == skewed_graph.num_vertices
        assert sum(p.num_edges for p in parts) == skewed_graph.num_edges

    @pytest.mark.parametrize("num_partitions", [2, 4])
    def test_edge_counts_within_tolerance(self, skewed_graph, num_partitions):
        parts = partition_graph(skewed_graph, num_partitions, balance="edges")
        counts = parts.edge_counts()
        target = skewed_graph.num_edges / num_partitions
        # A contiguous split cannot beat the heaviest single vertex, so the
        # tolerance is the max degree plus the ideal per-partition share.
        slack = int(skewed_graph.degrees.max()) + 1
        assert np.all(np.abs(counts - target) <= target + slack)
        # And it must be far better balanced than the equal-vertex split.
        by_vertex = partition_graph(skewed_graph, num_partitions, balance="vertices")
        assert counts.std() <= by_vertex.edge_counts().std()

    def test_empty_graph_rejected(self):
        empty = from_edge_list(np.empty((0, 2), dtype=np.int64), num_vertices=0)
        with pytest.raises(ValueError, match="empty graph"):
            partition_bounds(empty, 2, balance="edges")

    def test_single_vertex_graph(self):
        lonely = from_edge_list(np.empty((0, 2), dtype=np.int64), num_vertices=1)
        parts = partition_graph(lonely, 1, balance="edges")
        assert parts.num_partitions == 1
        assert parts[0].num_vertices == 1
        assert parts[0].num_edges == 0
        with pytest.raises(ValueError, match="more partitions than vertices"):
            partition_bounds(lonely, 2, balance="edges")

    def test_edgeless_graph_with_vertices(self):
        hermits = from_edge_list(np.empty((0, 2), dtype=np.int64), num_vertices=7)
        parts = partition_graph(hermits, 3, balance="edges")
        bounds = parts.boundaries
        assert bounds[0] == 0 and bounds[-1] == 7
        assert np.all(np.diff(bounds) > 0)
        assert sum(p.num_vertices for p in parts) == 7


class TestProperties:
    def test_graph_stats_ring(self, ring10):
        stats = graph_stats(ring10)
        assert stats.num_vertices == 10
        assert stats.avg_degree == pytest.approx(2.0)
        assert stats.max_degree == 2
        assert stats.degree_gini == pytest.approx(0.0, abs=1e-9)
        assert stats.isolated_vertices == 0

    def test_gini_coefficient_extremes(self):
        assert gini_coefficient(np.array([1.0, 1.0, 1.0])) == pytest.approx(0.0, abs=1e-9)
        skewed = gini_coefficient(np.array([0.0] * 99 + [100.0]))
        assert skewed > 0.9
        assert gini_coefficient(np.array([])) == 0.0
        assert gini_coefficient(np.zeros(5)) == 0.0

    def test_gini_rejects_negative(self):
        with pytest.raises(ValueError):
            gini_coefficient(np.array([-1.0, 2.0]))

    def test_degree_histogram(self, ring10):
        hist = degree_histogram(ring10)
        assert hist[2] == 10
        assert hist.sum() == 10

    def test_stats_as_dict(self, ring10):
        d = graph_stats(ring10).as_dict()
        assert d["num_vertices"] == 10
        assert "degree_gini" in d
