"""Property-based tests (hypothesis) for the core data structures and invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.api.select import warp_select
from repro.gpusim.costmodel import CostModel
from repro.gpusim.prng import CounterRNG
from repro.gpusim.scan import kogge_stone_inclusive, warp_prefix_sum
from repro.gpusim.warp import WarpExecutor
from repro.graph.builder import from_edge_list
from repro.graph.partition import partition_graph
from repro.graph.properties import gini_coefficient
from repro.selection.alias import build_alias_table
from repro.selection.bipartite import bipartite_remap
from repro.selection.bitmap import ContiguousBitmap, StridedBitmap
from repro.selection.collision import select_without_replacement
from repro.selection.ctps import CTPS
from repro.selection.segmented import (
    SegmentedCTPS,
    segmented_kogge_stone_inclusive,
    segmented_warp_select,
)


positive_biases = st.lists(
    st.floats(min_value=0.01, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=64,
)

edge_lists = st.lists(
    st.tuples(st.integers(0, 30), st.integers(0, 30)), min_size=0, max_size=120
)


class TestCTPSProperties:
    @given(positive_biases)
    @settings(max_examples=60, deadline=None)
    def test_boundaries_monotone_and_normalised(self, biases):
        ctps = CTPS.from_biases(np.array(biases))
        assert ctps.boundaries[0] == 0.0
        assert ctps.boundaries[-1] == 1.0
        assert np.all(np.diff(ctps.boundaries) >= -1e-12)
        assert np.isclose(ctps.probabilities().sum(), 1.0)

    @given(positive_biases, st.floats(min_value=0.0, max_value=0.999999))
    @settings(max_examples=60, deadline=None)
    def test_search_returns_region_containing_r(self, biases, r):
        ctps = CTPS.from_biases(np.array(biases))
        index = ctps.search(r)
        lo, hi = ctps.region(index)
        assert lo <= r < hi or np.isclose(hi, r, atol=1e-12)

    @given(positive_biases)
    @settings(max_examples=40, deadline=None)
    def test_probabilities_proportional_to_biases(self, biases):
        biases = np.array(biases)
        ctps = CTPS.from_biases(biases)
        expected = biases / biases.sum()
        assert np.allclose(ctps.probabilities(), expected, atol=1e-9)


class TestScanProperties:
    @given(st.lists(st.floats(min_value=0, max_value=1e5), min_size=1, max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_kogge_stone_equals_cumsum(self, values):
        values = np.array(values)
        assert np.allclose(kogge_stone_inclusive(values), np.cumsum(values), rtol=1e-9)

    @given(st.lists(st.floats(min_value=0, max_value=1e5), min_size=1, max_size=100))
    @settings(max_examples=40, deadline=None)
    def test_warp_prefix_sum_starts_at_zero_ends_at_total(self, values):
        values = np.array(values)
        out = warp_prefix_sum(values)
        assert out[0] == 0.0
        assert np.isclose(out[-1], values.sum())
        assert out.size == values.size + 1


class TestSelectionProperties:
    @given(positive_biases, st.integers(min_value=1, max_value=8), st.integers(0, 1000))
    @settings(max_examples=60, deadline=None)
    def test_without_replacement_indices_distinct_and_valid(self, biases, count, seed):
        biases = np.array(biases)
        count = min(count, biases.size)
        result = select_without_replacement(
            biases, count, CounterRNG(seed), strategy="bipartite", detector="strided_bitmap"
        )
        assert result.indices.size == count
        assert len(set(result.indices.tolist())) == count
        assert result.indices.min() >= 0 and result.indices.max() < biases.size

    @given(positive_biases)
    @settings(max_examples=40, deadline=None)
    def test_alias_table_reconstructs_distribution(self, biases):
        biases = np.array(biases)
        table = build_alias_table(biases)
        assert np.allclose(table.probabilities(), biases / biases.sum(), atol=1e-9)

    @given(
        st.floats(min_value=0.0, max_value=0.999999),
        st.floats(min_value=0.0, max_value=0.98),
        st.floats(min_value=0.001, max_value=0.9),
    )
    @settings(max_examples=100, deadline=None)
    def test_bipartite_remap_avoids_selected_region(self, r_prime, lo, width):
        hi = min(lo + width, 0.999)
        if hi <= lo:
            return
        remapped = bipartite_remap(r_prime, (lo, hi))
        assert 0.0 <= remapped <= 1.0 + 1e-12
        # The remapped draw never lands strictly inside the excluded region.
        assert not (lo < remapped < hi) or np.isclose(remapped, lo) or np.isclose(remapped, hi)


class TestBitmapProperties:
    @given(st.integers(1, 300), st.data())
    @settings(max_examples=50, deadline=None)
    def test_bitmaps_agree_with_set_semantics(self, num_candidates, data):
        marks = data.draw(
            st.lists(st.integers(0, num_candidates - 1), min_size=0, max_size=50)
        )
        contiguous = ContiguousBitmap(num_candidates)
        strided = StridedBitmap(num_candidates)
        seen = set()
        for candidate in marks:
            expected = candidate in seen
            assert contiguous.check_and_mark(candidate) is expected
            assert strided.check_and_mark(candidate) is expected
            seen.add(candidate)
        for candidate in range(num_candidates):
            assert contiguous.is_marked(candidate) == (candidate in seen)
            assert strided.is_marked(candidate) == (candidate in seen)


class TestGraphProperties:
    @given(edge_lists)
    @settings(max_examples=50, deadline=None)
    def test_csr_roundtrip_preserves_edges(self, edges):
        graph = from_edge_list(edges, num_vertices=31)
        assert graph.num_edges == len(edges)
        rebuilt = sorted(map(tuple, graph.edge_array().tolist()))
        assert rebuilt == sorted((int(a), int(b)) for a, b in edges)
        assert int(graph.degrees.sum()) == graph.num_edges

    @given(edge_lists, st.integers(1, 6))
    @settings(max_examples=50, deadline=None)
    def test_partition_covers_all_edges_exactly_once(self, edges, parts):
        graph = from_edge_list(edges, num_vertices=31)
        partition = partition_graph(graph, min(parts, graph.num_vertices))
        assert sum(p.num_edges for p in partition) == graph.num_edges
        owners = partition.partition_of_many(np.arange(graph.num_vertices))
        for p in partition:
            assert np.all(owners[p.lo:p.hi] == p.index)

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=100))
    @settings(max_examples=40, deadline=None)
    def test_gini_in_unit_interval(self, values):
        g = gini_coefficient(np.array(values))
        assert -1e-9 <= g < 1.0


# Zero biases are allowed; positive biases stay well away from the denormal
# range where a candidate's CTPS region rounds to zero width (there both the
# scalar and the segmented selectors raise the same RuntimeError).
segment_pools = st.lists(
    st.lists(
        st.one_of(
            st.just(0.0),
            st.floats(min_value=0.01, max_value=1e6,
                      allow_nan=False, allow_infinity=False),
        ),
        min_size=1,
        max_size=24,
    ).filter(lambda seg: any(b > 0 for b in seg)),
    min_size=1,
    max_size=12,
)


def _flatten_pools(pools):
    lengths = np.array([len(p) for p in pools], dtype=np.int64)
    offsets = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    biases = np.concatenate([np.asarray(p, dtype=np.float64) for p in pools])
    return biases, offsets, lengths


class TestSegmentedSelectionProperties:
    """The engine's segmented kernels must equal per-segment scalar calls."""

    @given(segment_pools)
    @settings(max_examples=50, deadline=None)
    def test_segmented_scan_equals_per_segment_scan(self, pools):
        biases, offsets, _ = _flatten_pools(pools)
        c_seg, c_ref = CostModel(), CostModel()
        got = segmented_kogge_stone_inclusive(biases, offsets, c_seg)
        ref = np.concatenate(
            [kogge_stone_inclusive(np.asarray(p, dtype=np.float64), c_ref)
             for p in pools]
        )
        assert np.array_equal(got, ref)
        assert c_seg.as_dict() == c_ref.as_dict()

    @given(segment_pools)
    @settings(max_examples=40, deadline=None)
    def test_segmented_ctps_boundaries_bitwise_equal(self, pools):
        biases, offsets, _ = _flatten_pools(pools)
        ctps = SegmentedCTPS.from_biases(biases, offsets)
        for k, pool in enumerate(pools):
            ref = CTPS.from_biases(np.asarray(pool, dtype=np.float64))
            assert np.array_equal(ctps.segment_boundaries(k), ref.boundaries)

    @given(segment_pools, st.integers(0, 2**20), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_segmented_its_matches_scalar_warp_select(self, pools, seed, with_repl):
        """Segmented ITS == per-segment warp_select for identical coordinates."""
        biases, offsets, lengths = _flatten_pools(pools)
        rng = CounterRNG(seed)
        positives = np.array(
            [int(np.count_nonzero(np.asarray(p) > 0)) for p in pools], dtype=np.int64
        )
        counts = np.minimum(3, positives) if not with_repl else np.minimum(3, lengths)
        insts = np.arange(len(pools), dtype=np.int64)
        depths = np.full(len(pools), 2, dtype=np.int64)
        slots = insts + 5
        warps = insts + 100
        c_seg, c_ref = CostModel(), CostModel()
        result = segmented_warp_select(
            biases, offsets, counts, rng, [insts, depths, slots, warps],
            with_replacement=with_repl, cost=c_seg,
        )
        for k, pool in enumerate(pools):
            warp = WarpExecutor(warp_id=int(warps[k]), cost=c_ref, rng=rng)
            ref = warp_select(
                np.asarray(pool, dtype=np.float64), int(counts[k]), warp,
                int(insts[k]), int(depths[k]), int(slots[k]),
                with_replacement=with_repl,
            )
            idx, iters = result.segment(k)
            assert np.array_equal(idx, ref.indices)
            assert np.array_equal(iters, ref.iterations)
            if not with_repl:
                assert int(result.probes[k]) == ref.probes
                assert int(result.collisions[k]) == ref.collisions
        assert c_seg.as_dict() == c_ref.as_dict()

    @given(segment_pools, st.integers(0, 2**20),
           st.sampled_from(["bipartite", "repeated", "updated"]),
           st.sampled_from(["strided_bitmap", "bitmap", "linear"]))
    @settings(max_examples=30, deadline=None)
    def test_segmented_strategies_match_scalar(self, pools, seed, strategy, detector):
        biases, offsets, _ = _flatten_pools(pools)
        rng = CounterRNG(seed)
        positives = np.array(
            [int(np.count_nonzero(np.asarray(p) > 0)) for p in pools], dtype=np.int64
        )
        counts = np.minimum(2, positives)
        insts = np.arange(len(pools), dtype=np.int64)
        depths = np.zeros(len(pools), dtype=np.int64)
        slots = insts
        warps = insts + 7
        c_seg, c_ref = CostModel(), CostModel()
        result = segmented_warp_select(
            biases, offsets, counts, rng, [insts, depths, slots, warps],
            with_replacement=False, strategy=strategy, detector=detector, cost=c_seg,
        )
        for k, pool in enumerate(pools):
            warp = WarpExecutor(warp_id=int(warps[k]), cost=c_ref, rng=rng)
            ref = warp_select(
                np.asarray(pool, dtype=np.float64), int(counts[k]), warp,
                int(insts[k]), int(depths[k]), int(slots[k]),
                with_replacement=False, strategy=strategy, detector=detector,
            )
            idx, iters = result.segment(k)
            assert np.array_equal(idx, ref.indices)
            assert np.array_equal(iters, ref.iterations)
        assert c_seg.as_dict() == c_ref.as_dict()


class TestRNGProperties:
    @given(st.integers(0, 2**32), st.integers(0, 2**20), st.integers(0, 2**20))
    @settings(max_examples=80, deadline=None)
    def test_uniform_in_range_and_deterministic(self, seed, a, b):
        rng = CounterRNG(seed)
        x = rng.uniform(a, b)
        assert 0.0 <= x < 1.0
        assert x == CounterRNG(seed).uniform(a, b)

    @given(st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_cost_model_merge_is_additive(self, n):
        a, b = CostModel(), CostModel()
        a.rng_draws = n
        b.rng_draws = 2 * n
        a.merge(b)
        assert a.rng_draws == 3 * n
