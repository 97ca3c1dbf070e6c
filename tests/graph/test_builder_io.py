"""Tests for graph builders and persistence."""

import os
import subprocess
import sys

import numpy as np
import networkx as nx
import pytest

from repro.graph.builder import from_edge_list, from_networkx, to_networkx
from repro.graph.io import load_edge_list, load_npz, save_edge_list, save_npz


class TestFromEdgeList:
    def test_basic(self):
        g = from_edge_list([(0, 1), (1, 2), (2, 0)])
        assert g.num_vertices == 3
        assert g.num_edges == 3
        assert g.has_edge(0, 1)

    def test_explicit_vertex_count(self):
        g = from_edge_list([(0, 1)], num_vertices=5)
        assert g.num_vertices == 5
        assert g.degree(4) == 0

    def test_vertex_count_too_small(self):
        with pytest.raises(ValueError):
            from_edge_list([(0, 4)], num_vertices=3)

    def test_symmetrize(self):
        g = from_edge_list([(0, 1)], symmetrize=True)
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert g.num_edges == 2

    def test_dedup(self):
        g = from_edge_list([(0, 1), (0, 1), (1, 0)], dedup=True)
        assert g.num_edges == 2

    def test_weights_preserved_and_aligned(self):
        g = from_edge_list([(1, 0), (0, 2), (0, 1)], weights=[5.0, 2.0, 3.0])
        # After grouping by source, vertex 0's neighbors are [2, 1] with
        # weights [2.0, 3.0] (stable order) and vertex 1's neighbor 0 has 5.0.
        assert np.allclose(sorted(g.neighbor_weights(0)), [2.0, 3.0])
        assert np.allclose(g.neighbor_weights(1), [5.0])

    def test_sort_neighbors(self):
        g = from_edge_list([(0, 5), (0, 2), (0, 4)], num_vertices=6, sort_neighbors=True)
        assert list(g.neighbors(0)) == [2, 4, 5]

    def test_empty_edges(self):
        g = from_edge_list([], num_vertices=4)
        assert g.num_vertices == 4
        assert g.num_edges == 0

    def test_negative_vertex_rejected(self):
        with pytest.raises(ValueError):
            from_edge_list([(-1, 0)])

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            from_edge_list(np.array([[0, 1, 2]]))


class TestNetworkxRoundtrip:
    def test_undirected_graph_is_symmetrised(self):
        nxg = nx.path_graph(4)
        g = from_networkx(nxg)
        assert g.num_edges == 2 * nxg.number_of_edges()
        assert g.has_edge(0, 1) and g.has_edge(1, 0)

    def test_directed_graph(self):
        nxg = nx.DiGraph([(0, 1), (1, 2)])
        g = from_networkx(nxg)
        assert g.num_edges == 2
        assert g.has_edge(0, 1) and not g.has_edge(1, 0)

    def test_weight_attribute(self):
        nxg = nx.DiGraph()
        nxg.add_edge(0, 1, weight=2.5)
        g = from_networkx(nxg, weight_attr="weight")
        assert np.allclose(g.neighbor_weights(0), [2.5])

    def test_roundtrip_to_networkx(self):
        g = from_edge_list([(0, 1), (1, 2), (2, 0)], weights=[1.0, 2.0, 3.0])
        nxg = to_networkx(g)
        assert nxg.number_of_edges() == 3
        assert nxg[0][1]["weight"] == pytest.approx(1.0)

    def test_import_repro_loads_no_networkx(self):
        """networkx loads on first use, so ``import repro`` -- and every
        spawned worker or shard process -- starts without it."""
        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro; print(sorted(m for m in sys.modules"
             " if m.split('.')[0] == 'networkx'))"],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, check=True,
        )
        assert proc.stdout.strip() == "[]"


class TestIO:
    def test_npz_roundtrip(self, tmp_path, small_weighted_graph):
        path = tmp_path / "graph.npz"
        save_npz(small_weighted_graph, path)
        loaded = load_npz(path)
        assert loaded == small_weighted_graph

    def test_npz_roundtrip_unweighted(self, tmp_path, ring10):
        path = tmp_path / "ring.npz"
        save_npz(ring10, path)
        assert load_npz(path) == ring10

    def test_edge_list_roundtrip(self, tmp_path):
        g = from_edge_list([(0, 1), (1, 2), (2, 0)], weights=[1.5, 2.5, 3.5])
        path = tmp_path / "graph.txt"
        save_edge_list(g, path)
        loaded = load_edge_list(path)
        assert loaded.num_edges == 3
        assert np.allclose(sorted(loaded.weights), [1.5, 2.5, 3.5])

    def test_edge_list_comments_ignored(self, tmp_path):
        path = tmp_path / "snap.txt"
        path.write_text("# comment line\n% another\n0 1\n1 2\n", encoding="utf-8")
        g = load_edge_list(path)
        assert g.num_edges == 2
        assert not g.is_weighted
