"""DeltaGraph: merged views, mutations, budgeted compaction, bit-compat."""

import numpy as np
import pytest

from repro.graph import CSRGraph, from_edge_list
from repro.graph.delta import DeltaGraph, as_csr


@pytest.fixture
def base():
    # 0 -> 1, 2 ; 1 -> 2 ; 2 -> 0 ; 3 isolated
    return from_edge_list(
        [(0, 1), (0, 2), (1, 2), (2, 0)], num_vertices=4,
        weights=[1.0, 2.0, 3.0, 4.0],
    )


class TestMergedView:
    def test_fresh_delta_matches_base(self, base):
        delta = DeltaGraph(base)
        assert delta.num_vertices == 4
        assert delta.num_edges == 4
        for v in range(4):
            assert np.array_equal(delta.neighbors(v), base.neighbors(v))
            assert np.array_equal(delta.neighbor_weights(v), base.neighbor_weights(v))
            assert delta.degree(v) == base.degree(v)

    def test_insertions_append_after_base_edges(self, base):
        delta = DeltaGraph(base)
        delta.add_edge(0, 3, 5.0)
        assert delta.degree(0) == 3
        assert np.array_equal(delta.neighbors(0), [1, 2, 3])
        assert np.array_equal(delta.neighbor_weights(0), [1.0, 2.0, 5.0])
        assert delta.num_edges == 5
        assert delta.has_edge(0, 3)

    def test_unweighted_insert_defaults_to_one(self, base):
        delta = DeltaGraph(base)
        delta.add_edge(3, 0)
        assert np.array_equal(delta.neighbor_weights(3), [1.0])

    def test_removal_tombstones_base_edge(self, base):
        delta = DeltaGraph(base)
        delta.remove_edge(0, 1)
        assert np.array_equal(delta.neighbors(0), [2])
        assert delta.num_edges == 3
        assert not delta.has_edge(0, 1)

    def test_removal_prefers_base_copy_then_insert(self, base):
        delta = DeltaGraph(base)
        delta.add_edge(0, 1, 9.0)  # parallel to the base 0 -> 1
        delta.remove_edge(0, 1)    # kills the *base* copy first
        assert np.array_equal(delta.neighbor_weights(0), [2.0, 9.0])
        delta.remove_edge(0, 1)    # now the inserted copy
        assert np.array_equal(delta.neighbors(0), [2])
        with pytest.raises(KeyError):
            delta.remove_edge(0, 1)

    def test_add_vertices_grows_id_space(self, base):
        delta = DeltaGraph(base)
        first = delta.add_vertices(2)
        assert first == 4
        assert delta.num_vertices == 6
        assert delta.degree(5) == 0
        delta.add_edge(5, 0, 1.5)
        delta.add_edge(0, 4)
        assert np.array_equal(delta.neighbors(5), [0])
        assert np.array_equal(delta.neighbors(0), [1, 2, 4])

    def test_retire_vertex_drops_both_directions(self, base):
        delta = DeltaGraph(base)
        delta.retire_vertex(2)
        assert delta.degree(2) == 0
        assert np.array_equal(delta.neighbors(0), [1])  # 0 -> 2 gone
        assert np.array_equal(delta.neighbors(1), [])   # 1 -> 2 gone
        assert delta.num_edges == 1
        assert delta.is_retired(2)
        delta.retire_vertex(2)  # idempotent
        assert delta.num_edges == 1
        with pytest.raises(ValueError):
            delta.add_edge(0, 2)
        with pytest.raises(ValueError):
            delta.add_edge(2, 0)

    def test_retire_drops_pending_inserts_into_vertex(self, base):
        delta = DeltaGraph(base)
        delta.add_edge(3, 1, 7.0)
        delta.retire_vertex(1)
        assert np.array_equal(delta.neighbors(3), [])
        assert delta.num_edges == 2  # 0->2 and 2->0 survive

    def test_retire_newly_added_vertex_hides_inserts_everywhere(self, base):
        # A vertex born after the base can only be referenced by buffered
        # inserts; retiring it must scrub them from views AND compaction.
        delta = DeltaGraph(base)
        new = delta.add_vertices(1)
        delta.add_edge(0, new, 2.0)
        delta.add_edge(new, 0, 3.0)
        delta.retire_vertex(new)
        assert np.array_equal(delta.neighbors(0), [1, 2])
        assert delta.num_edges == 4
        snap = delta.to_csr()
        assert snap.num_edges == 4
        assert not np.any(snap.col_idx == new)

    def test_remove_edge_into_retired_vertex_raises(self, base):
        delta = DeltaGraph(base)
        delta.retire_vertex(2)
        with pytest.raises(KeyError):
            delta.remove_edge(0, 2)  # hidden by the retirement, not live
        with pytest.raises(KeyError):
            delta.remove_edge(2, 0)  # retired source has no live edges

    def test_bounds_checks(self, base):
        delta = DeltaGraph(base)
        with pytest.raises(IndexError):
            delta.add_edge(0, 99)
        with pytest.raises(IndexError):
            delta.neighbors(-1)
        with pytest.raises(ValueError):
            delta.add_edge(0, 1, -1.0)


class TestCompaction:
    def test_to_csr_matches_from_edge_list(self, base):
        delta = DeltaGraph(base)
        delta.add_edge(0, 3, 5.0)
        delta.remove_edge(1, 2)
        delta.add_edge(3, 3, 0.5)
        snap = delta.to_csr()
        ref = from_edge_list(
            [(0, 1), (0, 2), (0, 3), (2, 0), (3, 3)], num_vertices=4,
            weights=[1.0, 2.0, 5.0, 4.0, 0.5],
        )
        assert np.array_equal(snap.row_ptr, ref.row_ptr)
        assert np.array_equal(snap.col_idx, ref.col_idx)
        assert np.array_equal(snap.weights, ref.weights)

    def test_unweighted_base_stays_unweighted(self):
        base = from_edge_list([(0, 1), (1, 0)], num_vertices=2)
        delta = DeltaGraph(base)
        delta.add_edge(0, 0)
        assert not delta.to_csr().is_weighted
        delta.add_edge(1, 1, 2.0)  # a weighted insert promotes the graph
        snap = delta.to_csr()
        assert snap.is_weighted
        assert np.array_equal(snap.weights, [1.0, 1.0, 1.0, 2.0])

    def test_compact_clears_overlay_and_bumps_version(self, base):
        delta = DeltaGraph(base)
        delta.add_edge(0, 3)
        delta.remove_edge(2, 0)
        touched = delta.compact()
        assert np.array_equal(touched, [0, 2])
        assert delta.overlay_size == 0
        assert delta.version == 1
        assert delta.base.num_edges == 4
        assert np.array_equal(delta.neighbors(0), [1, 2, 3])

    def test_compact_touches_in_neighbors_of_retired(self, base):
        delta = DeltaGraph(base)
        delta.retire_vertex(2)
        touched = delta.compact()
        # 0 and 1 lose their edge into 2 even though never mutated directly.
        assert np.array_equal(touched, [0, 1, 2])
        assert delta.base.degree(2) == 0
        assert delta.num_edges == 1

    def test_retirement_survives_compaction(self, base):
        delta = DeltaGraph(base)
        delta.retire_vertex(3)
        delta.compact()
        with pytest.raises(ValueError):
            delta.add_edge(0, 3)
        assert delta.is_retired(3)

    def test_budget_triggers_auto_compaction(self, base):
        delta = DeltaGraph(base, compaction_budget=2)
        delta.add_edge(0, 3)
        delta.add_edge(1, 3)
        assert delta.version == 0  # at budget, not over it
        assert delta.overlay_size == 2
        assert delta.base is base
        delta.add_edge(3, 0)
        assert delta.version == 1
        assert delta.overlay_size == 0
        assert delta.base is not base
        assert isinstance(delta.base, CSRGraph)
        assert delta.base.num_edges == 7
        assert delta.touched_vertices().size == 0

    def test_vertex_losing_all_edges_is_touched_and_empty(self, base):
        delta = DeltaGraph(base)
        delta.remove_edge(1, 2)
        touched = delta.compact()
        assert np.array_equal(touched, [1])
        assert delta.base.degree(1) == 0
        assert delta.base.neighbor_weights(1).size == 0
        assert np.array_equal(delta.base.neighbors(0), [1, 2])

    def test_to_csr_publishes_without_compacting(self, base):
        delta = DeltaGraph(base)
        delta.add_edge(0, 3)
        delta.retire_vertex(1)
        snap = delta.to_csr()
        assert snap is not base
        assert delta.base is base
        assert delta.version == 0
        assert np.array_equal(delta.touched_vertices(), [0, 1])
        assert snap.num_edges == delta.num_edges == 3

    def test_compact_includes_new_vertices_in_touched(self, base):
        delta = DeltaGraph(base)
        delta.add_vertices(2)
        delta.add_edge(4, 5)
        touched = delta.compact()
        assert np.array_equal(touched, [4, 5])
        assert delta.base.num_vertices == 6

    def test_empty_base_graph(self):
        delta = DeltaGraph(CSRGraph(np.array([0]), np.array([], dtype=np.int64)))
        assert delta.num_vertices == 0
        delta.add_vertices(2)
        delta.add_edge(0, 1)
        snap = delta.to_csr()
        assert snap.num_vertices == 2
        assert np.array_equal(snap.col_idx, [1])


class TestAsCsr:
    def test_as_csr_passthrough_and_snapshot(self, base):
        assert as_csr(base) is base
        delta = DeltaGraph(base)
        delta.add_edge(0, 3)
        snap = as_csr(delta)
        assert isinstance(snap, CSRGraph)
        assert snap.num_edges == 5
        with pytest.raises(TypeError):
            as_csr([1, 2, 3])
