"""Segmented selection kernels: SELECT over many candidate pools at once.

The scalar primitives in this package (:mod:`repro.selection.its`,
:mod:`repro.selection.collision`) operate on *one* candidate pool -- one
frontier vertex's neighbor list.  The batched execution engine
(:mod:`repro.engine`) instead expresses one MAIN-loop depth step as a flat
array program over *K* pools ("segments") concatenated back to back, which is
exactly how the real GPU kernel sees the work: one launch, one warp per
segment, all warps running the same SELECT.

Everything here is **bit-identical** to running the scalar primitive once per
segment with the same counter-RNG coordinates:

* the segmented Kogge-Stone scan performs the same doubling recurrence as
  :func:`repro.gpusim.scan.kogge_stone_inclusive` (masked so no addition
  crosses a segment boundary), so every partial sum is the same float;
* CTPS normalisation, binary search and bipartite remapping reproduce the
  scalar operations operation for operation; and
* every cost-model counter is charged per segment exactly as the scalar call
  would charge it, only summed in one NumPy reduction instead of K Python
  calls.

That equivalence is what lets :class:`~repro.api.sampler.GraphSampler` and
:class:`~repro.oom.scheduler.OutOfMemorySampler` switch to the batched engine
without changing a single sampled edge or simulated-time figure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.gpusim.costmodel import CostModel
from repro.gpusim.prng import CounterRNG
from repro.selection.collision import CollisionStrategy

__all__ = [
    "segment_lengths",
    "segment_ids",
    "concat_aranges",
    "segment_positive_counts",
    "take_segments",
    "segmented_kogge_stone_inclusive",
    "prefix_local_search",
    "charge_its_select",
    "SegmentedCTPS",
    "SegmentedSelection",
    "make_segmented_detector",
    "SegmentedBitmapDetector",
    "SegmentedLinearDetector",
    "segmented_sample_with_replacement",
    "segmented_select_without_replacement",
    "segmented_warp_select",
]

_BITS_PER_WORD = 8
_BIPARTITE_MAX_ATTEMPTS = 64
_REPEATED_MAX_ATTEMPTS = 10_000


# --------------------------------------------------------------------------- #
# Segment bookkeeping helpers
# --------------------------------------------------------------------------- #
def segment_lengths(offsets: np.ndarray) -> np.ndarray:
    """Per-segment candidate counts from an ``(K + 1,)`` offsets array."""
    return np.diff(np.asarray(offsets, dtype=np.int64))


def segment_ids(offsets: np.ndarray) -> np.ndarray:
    """Segment index of every flat element (``repeat(arange(K), lengths)``)."""
    lengths = segment_lengths(offsets)
    return np.repeat(np.arange(lengths.size, dtype=np.int64), lengths)


def concat_aranges(counts: np.ndarray) -> np.ndarray:
    """``concatenate([arange(c) for c in counts])`` without the Python loop."""
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    starts = np.zeros(counts.size, dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    return np.arange(total, dtype=np.int64) - np.repeat(starts, counts)


def _ceil_log2(values: np.ndarray) -> np.ndarray:
    """Vectorised ``ceil(log2(v))`` for ``v >= 1`` (0 where ``v <= 1``)."""
    values = np.asarray(values, dtype=np.float64)
    out = np.zeros(values.shape, dtype=np.int64)
    big = values > 1
    if np.any(big):
        out[big] = np.ceil(np.log2(values[big])).astype(np.int64)
    return out


# --------------------------------------------------------------------------- #
# Segmented Kogge-Stone scan
# --------------------------------------------------------------------------- #
_EXACT_SUM_LIMIT = float(2**53)


def segmented_kogge_stone_inclusive(
    values: np.ndarray, offsets: np.ndarray, cost: Optional[CostModel] = None
) -> np.ndarray:
    """Per-segment inclusive Kogge-Stone prefix sum over a flat array.

    Bit-identical to running :func:`repro.gpusim.scan.kogge_stone_inclusive`
    once per segment, via two equivalent routes:

    * **Integer fast path** -- when every value is a non-negative integer
      (uniform biases, degree biases, edge counts) and the grand total stays
      below 2^53, every partial sum is exact in float64, so *any* summation
      order produces the identical bits; a plain segmented ``cumsum`` then
      matches the Kogge-Stone result exactly in O(n).
    * **Bucketed doubling** -- otherwise, segments are grouped by their step
      count ``ceil(log2(n_k))`` and each bucket runs the literal Kogge-Stone
      recurrence (shifts masked at segment boundaries; adding ``+0.0`` to a
      non-negative float is a bitwise no-op).  Work is ``sum(n_k log n_k)``
      -- the same as the per-segment scalar scans -- rather than
      ``total * log(max n_k)``.

    Cost is charged per segment exactly as the scalar scan charges it.
    """
    values = np.asarray(values, dtype=np.float64)
    offsets = np.asarray(offsets, dtype=np.int64)
    lengths = np.diff(offsets)
    result = values.copy()
    n = result.size
    steps = _ceil_log2(lengths)
    if n:
        cums = np.cumsum(values)
        if (
            float(cums[-1]) < _EXACT_SUM_LIMIT
            and bool(np.all(values == np.floor(values)))
        ):
            # Integer-valued biases: cumsum is exact, hence Kogge-Stone-equal.
            first = np.minimum(offsets[:-1], n - 1)  # guard zero-length tails
            base = np.repeat(cums[first] - values[first], lengths)
            result = cums - base
        else:
            seg_start = np.repeat(offsets[:-1], lengths)
            for s in np.unique(steps):
                s = int(s)
                if s == 0:
                    continue
                in_bucket = steps == s
                flat = np.repeat(in_bucket, lengths)
                sub = result[flat]
                # Renumber segment starts into the bucket's compacted space.
                renumber = np.cumsum(flat) - 1
                sub_start = renumber[seg_start[flat]]
                sub_pos = np.arange(sub.size, dtype=np.int64)
                offset = 1
                for _ in range(s):
                    src = sub_pos - offset
                    valid = src >= sub_start
                    shifted = np.zeros_like(sub)
                    shifted[valid] = sub[src[valid]]
                    sub = sub + shifted
                    offset *= 2
                result[flat] = sub
    if cost is not None:
        _charge_scan(lengths, steps, cost)
    return result


# --------------------------------------------------------------------------- #
# Cost charges of the with-replacement SELECT, one helper per phase
# --------------------------------------------------------------------------- #
def _charge_scan(lengths: np.ndarray, steps: np.ndarray, cost: CostModel) -> None:
    """Segmented Kogge-Stone scan: ``steps = ceil(log2(n_k))`` per segment."""
    chunks = np.maximum(1, (lengths + 31) // 32)
    cost.prefix_sum_steps += int((steps * chunks).sum())
    cost.warp_steps += int(steps.sum())
    cost.lane_ops += int((steps * np.minimum(lengths, 32)).sum())
    cost.charge_global_bytes(int(lengths.sum()) * 8)


def _charge_normalisation(lengths: np.ndarray, cost: CostModel) -> None:
    """CTPS normalisation: one warp step per segment (``CTPS.from_biases``)."""
    cost.warp_steps += int(lengths.size)
    cost.lane_ops += int(np.minimum(lengths, 32).sum())


def _charge_draws(num_draws: int, cost: CostModel) -> None:
    """One RNG draw and one selection attempt per draw."""
    cost.rng_draws += num_draws
    cost.selection_attempts += num_draws


def _charge_search(draw_lengths: np.ndarray, cost: CostModel) -> None:
    """``max(1, ceil(log2(n + 1)))`` binary-search steps per draw."""
    steps = int(np.maximum(1, _ceil_log2(draw_lengths + 1)).sum())
    cost.binary_search_steps += steps
    cost.charge_global_bytes(steps * 8)


def _charge_lockstep(counts: np.ndarray, cost: CostModel) -> None:
    """With-replacement warp wrapper: one lock-step instruction per warp."""
    cost.warp_steps += int(counts.size)
    cost.lane_ops += int(np.minimum(counts, 32).sum())


def charge_its_select(lengths: np.ndarray, count: int, cost: CostModel) -> None:
    """Every charge of a with-replacement SELECT of ``count`` draws per pool.

    For callers that answer the draws from cached prefix rows (or the
    closed-form uniform CTPS) instead of scanning the pools of ``lengths``:
    the same scan, normalisation, draw, search and lock-step counters
    :func:`segmented_warp_select` accumulates over those pools.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    _charge_scan(lengths, _ceil_log2(lengths), cost)
    _charge_normalisation(lengths, cost)
    _charge_draws(int(lengths.size) * count, cost)
    _charge_search(np.repeat(lengths, count), cost)
    _charge_lockstep(np.full(lengths.size, count, dtype=np.int64), cost)


# --------------------------------------------------------------------------- #
# Prefix-row search
# --------------------------------------------------------------------------- #
def prefix_local_search(
    prefix: np.ndarray,
    base: np.ndarray,
    lengths: np.ndarray,
    totals: np.ndarray,
    rs: np.ndarray,
) -> np.ndarray:
    """Binary-search each draw against an unnormalised prefix row.

    Draw ``i`` searches ``prefix[base[i] : base[i] + lengths[i]]`` (total
    ``totals[i]``) and returns the local index of the last CTPS boundary
    ``<= rs[i]``.  Boundary ``b`` (``1 <= b <= n - 1``) is ``prefix[b - 1] /
    total``; ``F[0] = 0`` is always ``<= r`` and the forced ``F[n] = 1``
    never is, so the scalar ``CTPS.search`` over ``n + 1`` boundaries reduces
    to a search over the first ``n - 1`` normalised prefix values -- one
    division per probe, so the comparisons are bitwise the scalar ones.
    """
    rs = np.asarray(rs, dtype=np.float64)
    if rs.size and (float(rs.min()) < 0.0 or float(rs.max()) >= 1.0):
        raise ValueError("random number must lie in [0, 1)")
    lo = np.array(base, dtype=np.int64)
    hi = lo + lengths - 1
    active = lo < hi
    while np.any(active):
        mid = (lo + hi) >> 1
        probe = prefix[np.where(active, mid, 0)] / totals
        go_right = active & (probe <= rs)
        stay = active & ~go_right
        lo[go_right] = mid[go_right] + 1
        hi[stay] = mid[stay]
        active = lo < hi
    return lo - base


# --------------------------------------------------------------------------- #
# Segmented CTPS
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class SegmentedCTPS:
    """Normalised CTPS of ``K`` candidate pools stored back to back.

    Instead of materialising every segment's ``n_k + 1`` boundary array, the
    space stores the *unnormalised* inclusive prefix sums (``prefix``) plus
    each segment's total.  The scalar boundary value ``F[b]`` of segment
    ``k`` is derived exactly as ``CTPS.from_biases`` derives it --
    ``fl(prefix[b - 1] / total_k)`` with ``F[0] = 0`` and the last boundary
    forced to ``1.0`` -- so computing it on demand (one division per binary-
    search probe) yields bit-identical comparisons while skipping the O(n)
    normalisation pass entirely.
    """

    #: Per-segment inclusive prefix sums, all segments back to back.
    prefix: np.ndarray
    #: ``(K + 1,)`` offsets splitting ``prefix`` by segment.
    offsets: np.ndarray
    #: Un-normalised per-segment bias totals (``S_{n+1}``).
    totals: np.ndarray
    #: Per-segment candidate counts.
    lengths: np.ndarray

    @property
    def num_segments(self) -> int:
        """Number of candidate pools in the space."""
        return int(self.lengths.size)

    # ------------------------------------------------------------------ #
    @classmethod
    def from_biases(
        cls,
        biases: np.ndarray,
        offsets: np.ndarray,
        cost: Optional[CostModel] = None,
        *,
        validate: bool = True,
    ) -> "SegmentedCTPS":
        """Build every segment's CTPS in one pass (matches ``CTPS.from_biases``).

        ``validate=False`` skips the non-negativity / finiteness scans for
        callers that have already validated the biases (the validation has no
        cost-model charges, so skipping it never changes simulated results).
        """
        biases = np.asarray(biases, dtype=np.float64)
        offsets = np.asarray(offsets, dtype=np.int64)
        lengths = np.diff(offsets)
        if validate:
            if biases.ndim != 1 or np.any(lengths <= 0):
                raise ValueError("biases must be a non-empty 1-D array")
            if np.any(biases < 0):
                raise ValueError("biases must be non-negative")
            if not np.all(np.isfinite(biases)):
                raise ValueError("biases must be finite")
        inclusive = segmented_kogge_stone_inclusive(biases, offsets, cost)
        totals = inclusive[offsets[1:] - 1]
        if np.any(totals <= 0.0):
            raise ValueError("at least one bias must be positive")
        if cost is not None:
            _charge_normalisation(lengths, cost)
        return cls(
            prefix=inclusive,
            offsets=offsets,
            totals=np.asarray(totals, dtype=np.float64),
            lengths=lengths,
        )

    # ------------------------------------------------------------------ #
    def search(
        self,
        rs: np.ndarray,
        segs: np.ndarray,
        cost: Optional[CostModel] = None,
    ) -> np.ndarray:
        """Binary-search each ``rs[i]`` inside segment ``segs[i]``.

        Identical to ``CTPS.search`` on the segment's boundary array
        (:func:`prefix_local_search` over the segment's row); each draw is
        charged ``max(1, ceil(log2(n_k + 1)))`` search steps like the scalar
        binary search.
        """
        segs = np.asarray(segs, dtype=np.int64)
        lengths = self.lengths[segs]
        indices = prefix_local_search(
            self.prefix, self.offsets[segs], lengths, self.totals[segs], rs
        )
        if cost is not None:
            _charge_search(lengths, cost)
        return indices

    def region(self, segs: np.ndarray, indices: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Per-draw ``(l, h)`` CTPS regions (vectorised ``CTPS.region``)."""
        segs = np.asarray(segs, dtype=np.int64)
        idx = np.asarray(indices, dtype=np.int64)
        base = self.offsets[segs]
        totals = self.totals[segs]
        lo = np.where(
            idx == 0, 0.0, self.prefix[base + np.maximum(idx - 1, 0)] / totals
        )
        hi = np.where(
            idx == self.lengths[segs] - 1,
            1.0,
            self.prefix[np.minimum(base + idx, self.prefix.size - 1)] / totals,
        )
        # Same round-off clamp as CTPS.from_biases (regions need l < h <= 1).
        return np.minimum(lo, 1.0), np.minimum(hi, 1.0)

    def segment_boundaries(self, seg: int) -> np.ndarray:
        """One segment's boundary array, bitwise equal to the scalar CTPS."""
        lo, hi = int(self.offsets[seg]), int(self.offsets[seg + 1])
        n = hi - lo
        boundaries = np.empty(n + 1, dtype=np.float64)
        boundaries[0] = 0.0
        boundaries[1:] = self.prefix[lo:hi] / float(self.totals[seg])
        # Same round-off clamp as CTPS.from_biases (bitwise-equal contract).
        np.minimum(boundaries, 1.0, out=boundaries)
        boundaries[-1] = 1.0
        return boundaries


# --------------------------------------------------------------------------- #
# Segmented collision detectors
# --------------------------------------------------------------------------- #
class SegmentedBitmapDetector:
    """Per-segment bitmap detectors stored as one flat word array.

    Reproduces :class:`repro.selection.bitmap.ContiguousBitmap` /
    :class:`~repro.selection.bitmap.StridedBitmap` semantics and cost charges
    for the engine's one-candidate-per-segment access pattern (each scalar
    ``check_and_mark`` is a single-lane ``atomic_cas_bitmap``: one atomic, one
    collision probe, never a word conflict).  Segment ``k``'s words occupy
    ``words[word_offsets[k]:word_offsets[k + 1]]``, so total storage scales
    with the sum of segment sizes like the scalar detectors -- not with
    ``K * max(segment size)``.
    """

    def __init__(self, lengths: np.ndarray, *, strided: bool):
        lengths = np.asarray(lengths, dtype=np.int64)
        if np.any(lengths < 1):
            raise ValueError("detector needs at least one candidate per segment")
        self.lengths = lengths
        self.strided = strided
        if strided:
            min_words = (lengths + _BITS_PER_WORD - 1) // _BITS_PER_WORD
            self.strides = np.maximum(min_words, np.minimum(lengths, 32))
            num_words = self.strides
        else:
            self.strides = None
            num_words = (lengths - 1) // _BITS_PER_WORD + 1
        self.word_offsets = np.zeros(lengths.size + 1, dtype=np.int64)
        np.cumsum(num_words, out=self.word_offsets[1:])
        self.words = np.zeros(int(self.word_offsets[-1]), dtype=np.uint8)

    def _locate(self, segs: np.ndarray, candidates: np.ndarray):
        """Flat word index and bit position of each (segment, candidate)."""
        if self.strided:
            stride = self.strides[segs]
            word, bit = candidates % stride, candidates // stride
        else:
            word, bit = candidates // _BITS_PER_WORD, candidates % _BITS_PER_WORD
        return self.word_offsets[segs] + word, bit

    def is_marked(self, segs: np.ndarray, candidates: np.ndarray) -> np.ndarray:
        """Vectorised ``is_marked`` (no cost, as in the scalar detectors)."""
        word, bit = self._locate(segs, candidates)
        return (self.words[word] >> bit.astype(np.uint8)) & 1 != 0

    def check_and_mark(
        self,
        segs: np.ndarray,
        candidates: np.ndarray,
        cost: Optional[CostModel] = None,
    ) -> np.ndarray:
        """Atomic test-and-set, one lane per segment (``segs`` must be unique)."""
        word, bit = self._locate(segs, candidates)
        masks = (np.uint8(1) << bit.astype(np.uint8)).astype(np.uint8)
        was_set = (self.words[word] & masks) != 0
        self.words[word] |= masks
        if cost is not None:
            cost.charge_atomics(int(segs.size), 0)
            cost.collision_probes += int(segs.size)
        return was_set

    def probes_per_check(self, segs: np.ndarray) -> np.ndarray:
        """Collision probes one ``check_and_mark`` performs per segment (1)."""
        return np.ones(np.asarray(segs).size, dtype=np.int64)

    def marked_candidates(self, seg: int) -> np.ndarray:
        """Bool mask over segment ``seg``'s candidates (for fallback paths)."""
        n = int(self.lengths[seg])
        cand = np.arange(n, dtype=np.int64)
        return self.is_marked(np.full(n, seg, dtype=np.int64), cand)


class SegmentedLinearDetector:
    """Per-segment linear-search detectors (the shared-memory baseline).

    The scalar :class:`~repro.selection.bitmap.LinearSearchDetector` charges
    ``len(selected)`` probes (minimum 1) per check and one atomic per insert;
    membership is tracked in one flat bool array (segment ``k`` at
    ``marked[mark_offsets[k]:mark_offsets[k + 1]]``) so storage stays
    proportional to the sum of segment sizes.
    """

    def __init__(self, lengths: np.ndarray):
        lengths = np.asarray(lengths, dtype=np.int64)
        if np.any(lengths < 1):
            raise ValueError("detector needs at least one candidate per segment")
        self.lengths = lengths
        self.mark_offsets = np.zeros(lengths.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=self.mark_offsets[1:])
        self.marked = np.zeros(int(self.mark_offsets[-1]), dtype=bool)
        self.counts = np.zeros(lengths.size, dtype=np.int64)

    def is_marked(self, segs: np.ndarray, candidates: np.ndarray) -> np.ndarray:
        return self.marked[self.mark_offsets[segs] + candidates]

    def probes_per_check(self, segs: np.ndarray) -> np.ndarray:
        return np.maximum(self.counts[segs], 1)

    def check_and_mark(
        self,
        segs: np.ndarray,
        candidates: np.ndarray,
        cost: Optional[CostModel] = None,
    ) -> np.ndarray:
        probes = self.probes_per_check(segs)
        flat = self.mark_offsets[segs] + candidates
        was_set = self.marked[flat]
        fresh = ~was_set
        self.marked[flat[fresh]] = True
        self.counts[segs[fresh]] += 1
        if cost is not None:
            cost.collision_probes += int(probes.sum())
            cost.shared_accesses += int(probes.sum())
            cost.charge_atomics(int(fresh.sum()), 0)
        return was_set

    def marked_candidates(self, seg: int) -> np.ndarray:
        return self.marked[self.mark_offsets[seg] : self.mark_offsets[seg + 1]].copy()


SegmentedDetector = Union[SegmentedBitmapDetector, SegmentedLinearDetector]


def make_segmented_detector(kind: str, lengths: np.ndarray) -> SegmentedDetector:
    """Factory mirroring :func:`repro.selection.bitmap.make_detector`."""
    kind = kind.lower()
    if kind in ("linear", "linear_search", "baseline"):
        return SegmentedLinearDetector(lengths)
    if kind in ("bitmap", "contiguous", "contiguous_bitmap"):
        return SegmentedBitmapDetector(lengths, strided=False)
    if kind in ("strided", "strided_bitmap"):
        return SegmentedBitmapDetector(lengths, strided=True)
    raise ValueError(f"unknown collision detector kind {kind!r}")


# --------------------------------------------------------------------------- #
# Segmented selection results
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class SegmentedSelection:
    """Outcome of selecting from ``K`` segments in one batched pass."""

    #: Selected candidate positions (segment-local), all segments back to back.
    indices: np.ndarray
    #: Do-while trip count of every selection, aligned with ``indices``.
    iterations: np.ndarray
    #: ``(K + 1,)`` offsets splitting ``indices`` / ``iterations`` by segment.
    sel_offsets: np.ndarray
    #: Per-segment collision-probe counts (``SelectionResult.probes``).
    probes: np.ndarray
    #: Per-segment collision counts (``SelectionResult.collisions``).
    collisions: np.ndarray

    def segment(self, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(indices, iterations)`` of segment ``k``."""
        lo, hi = int(self.sel_offsets[k]), int(self.sel_offsets[k + 1])
        return self.indices[lo:hi], self.iterations[lo:hi]


def _coords_at(coords: Sequence[np.ndarray], idx: np.ndarray) -> List[np.ndarray]:
    return [np.asarray(c, dtype=np.int64)[idx] for c in coords]


def _sel_offsets(counts: np.ndarray) -> np.ndarray:
    out = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


# --------------------------------------------------------------------------- #
# Sampling with replacement (segmented ITS)
# --------------------------------------------------------------------------- #
def segmented_sample_with_replacement(
    biases: np.ndarray,
    offsets: np.ndarray,
    counts: np.ndarray,
    rng: CounterRNG,
    coords: Sequence[np.ndarray],
    cost: Optional[CostModel] = None,
    *,
    validate: bool = True,
) -> SegmentedSelection:
    """Batched :func:`repro.selection.its.sample_with_replacement`.

    ``coords`` are per-segment stream coordinates (each an array of length
    ``K``); segment ``k``'s draws are keyed ``(*coords[k], lane)`` exactly as
    the scalar call keys them, so the selected indices are bit-identical.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if np.any(counts < 0):
        raise ValueError("count must be non-negative")
    ctps = SegmentedCTPS.from_biases(biases, offsets, cost, validate=validate)
    total = int(counts.sum())
    if total == 0:
        return SegmentedSelection(
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            _sel_offsets(counts),
            np.zeros(counts.size, dtype=np.int64),
            np.zeros(counts.size, dtype=np.int64),
        )
    seg_of_draw = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
    lanes = concat_aranges(counts)
    rs = np.atleast_1d(rng.uniform(*(_coords_at(coords, seg_of_draw) + [lanes])))
    if cost is not None:
        _charge_draws(total, cost)
    indices = ctps.search(rs, seg_of_draw, cost)
    return SegmentedSelection(
        indices=indices,
        iterations=np.ones(total, dtype=np.int64),
        sel_offsets=_sel_offsets(counts),
        probes=np.zeros(counts.size, dtype=np.int64),
        collisions=np.zeros(counts.size, dtype=np.int64),
    )


# --------------------------------------------------------------------------- #
# Sampling without replacement (segmented collision strategies)
# --------------------------------------------------------------------------- #
def segmented_select_without_replacement(
    biases: np.ndarray,
    offsets: np.ndarray,
    counts: np.ndarray,
    rng: CounterRNG,
    coords: Sequence[np.ndarray],
    *,
    strategy: Union[str, CollisionStrategy] = CollisionStrategy.BIPARTITE,
    detector: str = "strided_bitmap",
    cost: Optional[CostModel] = None,
    validate: bool = True,
    positive_counts: Optional[np.ndarray] = None,
) -> SegmentedSelection:
    """Batched :func:`repro.selection.collision.select_without_replacement`.

    Lanes are processed warp-style: lane ``l`` of every segment runs
    concurrently (one vectorised pass), with the per-segment detector state
    carrying the already-selected candidates between lanes.  Draw keys, CTPS
    arithmetic, collision handling and every cost charge replicate the scalar
    strategy implementations, so indices, iteration counts and cost totals
    are bit-identical to ``K`` scalar calls.  ``positive_counts`` lets a
    caller that already counted positive biases per segment skip that pass.
    """
    biases = np.asarray(biases, dtype=np.float64)
    offsets = np.asarray(offsets, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    strategy = CollisionStrategy.coerce(strategy)
    lengths = np.diff(offsets)
    if np.any(counts < 0):
        raise ValueError("count must be non-negative")
    positive = (
        positive_counts
        if positive_counts is not None
        else segment_positive_counts(biases, offsets)
    )
    if np.any(counts > positive):
        raise ValueError(
            "cannot select more distinct candidates than have positive bias"
        )

    det = make_segmented_detector(detector, lengths)
    ctps = SegmentedCTPS.from_biases(biases, offsets, cost, validate=validate)
    num_segments = counts.size
    # Selections are stored flat (segment k's lane l at sel_offsets[k] + l)
    # so storage scales with sum(counts), not K * max(counts).
    sel_offsets = _sel_offsets(counts)
    indices = np.zeros(int(sel_offsets[-1]), dtype=np.int64)
    iterations = np.zeros(int(sel_offsets[-1]), dtype=np.int64)
    probes = np.zeros(num_segments, dtype=np.int64)
    collisions = np.zeros(num_segments, dtype=np.int64)

    if strategy is CollisionStrategy.BIPARTITE:
        _bipartite_lanes(
            ctps, det, rng, coords, counts, sel_offsets,
            indices, iterations, probes, collisions, cost,
        )
    elif strategy is CollisionStrategy.REPEATED:
        _repeated_lanes(
            ctps, det, rng, coords, counts, sel_offsets,
            indices, iterations, probes, collisions, cost,
        )
    else:  # CollisionStrategy.UPDATED
        _updated_lanes(
            ctps, det, rng, coords, counts, sel_offsets,
            indices, iterations, probes, collisions, cost,
        )

    return SegmentedSelection(indices, iterations, sel_offsets, probes, collisions)


def segment_positive_counts(biases: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Number of positive biases per segment."""
    cums = np.zeros(biases.size + 1, dtype=np.int64)
    np.cumsum(biases > 0, out=cums[1:])
    return cums[offsets[1:]] - cums[offsets[:-1]]


def take_segments(
    values: np.ndarray, offsets: np.ndarray, segs: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Compact a flat segmented array down to the given segments."""
    lengths = np.diff(offsets)[segs]
    sub_offsets = np.zeros(segs.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=sub_offsets[1:])
    picks = np.repeat(offsets[:-1][segs], lengths) + concat_aranges(lengths)
    return values[picks], sub_offsets


def _probe_charges(det: SegmentedDetector, segs: np.ndarray, probes: np.ndarray) -> None:
    """Accumulate the per-segment probe totals reported by SelectionResult."""
    np.add.at(probes, segs, det.probes_per_check(segs))


def _bipartite_lanes(
    ctps: SegmentedCTPS,
    det: SegmentedDetector,
    rng: CounterRNG,
    coords: Sequence[np.ndarray],
    counts: np.ndarray,
    sel_offsets: np.ndarray,
    indices: np.ndarray,
    iterations: np.ndarray,
    probes: np.ndarray,
    collisions: np.ndarray,
    cost: Optional[CostModel],
) -> None:
    """Bipartite region search, lane-synchronous across segments."""
    max_count = int(counts.max()) if counts.size else 0
    near_one = np.nextafter(1.0, 0.0)
    for lane in range(max_count):
        pending = np.nonzero(counts > lane)[0]
        remaps = np.zeros(pending.size, dtype=np.int64)
        for attempt in range(_BIPARTITE_MAX_ATTEMPTS):
            if pending.size == 0:
                break
            rs = np.atleast_1d(
                rng.uniform(*(_coords_at(coords, pending) + [lane, 2 * attempt]))
            )
            if cost is not None:
                _charge_draws(int(pending.size), cost)
            idx = ctps.search(rs, pending, cost)
            marked = det.is_marked(pending, idx)
            if np.any(marked):
                m_segs = pending[marked]
                lo, hi = ctps.region(m_segs, idx[marked])
                if np.any(hi - lo >= 1.0):
                    raise RuntimeError("sole candidate already selected")
                if cost is not None:
                    # One single-lane warp step per remapped draw.
                    cost.selection_collisions += int(m_segs.size)
                    cost.rng_draws += int(m_segs.size)
                    cost.warp_steps += int(m_segs.size)
                    cost.lane_ops += int(m_segs.size)
                fresh = np.atleast_1d(
                    rng.uniform(*(_coords_at(coords, m_segs) + [lane, 2 * attempt + 1]))
                )
                delta = hi - lo
                lam = 1.0 / (1.0 - delta)
                r2 = fresh / lam
                r2 = np.where(r2 < lo, r2, r2 + delta)
                r2 = np.minimum(r2, near_one)
                idx[marked] = ctps.search(r2, m_segs, cost)
                remaps[marked] += 1
            _probe_charges(det, pending, probes)
            was_set = det.check_and_mark(pending, idx, cost)
            done = ~was_set
            done_segs = pending[done]
            indices[sel_offsets[done_segs] + lane] = idx[done]
            iterations[sel_offsets[done_segs] + lane] = attempt + 1
            collisions[done_segs] += remaps[done] + attempt
            if cost is not None:
                cost.selection_collisions += int(was_set.sum())
            pending = pending[was_set]
            remaps = remaps[was_set]
        else:
            _bipartite_fallback(
                ctps, det, rng, coords, pending, remaps, lane, sel_offsets,
                indices, iterations, probes, collisions, cost,
            )


def _bipartite_fallback(
    ctps: SegmentedCTPS,
    det: SegmentedDetector,
    rng: CounterRNG,
    coords: Sequence[np.ndarray],
    pending: np.ndarray,
    remaps: np.ndarray,
    lane: int,
    sel_offsets: np.ndarray,
    indices: np.ndarray,
    iterations: np.ndarray,
    probes: np.ndarray,
    collisions: np.ndarray,
    cost: Optional[CostModel],
) -> None:
    """Pathological-skew fallback: one updated-CTPS draw per stuck segment."""
    from repro.selection.ctps import CTPS  # deferred: avoids import cycle cost

    for j, seg in enumerate(pending):
        seg = int(seg)
        boundaries = ctps.segment_boundaries(seg)
        marked = det.marked_candidates(seg)
        probabilities = np.diff(boundaries)
        if np.all(marked | (probabilities <= 0.0)):
            raise RuntimeError(
                "every candidate with positive probability is already selected"
            )
        rebuilt = np.maximum(probabilities, 0.0) * float(ctps.totals[seg])
        rebuilt[np.nonzero(marked)[0]] = 0.0
        updated = CTPS.from_biases(rebuilt, cost)
        seg_coords = [int(np.asarray(c)[seg]) for c in coords]
        r = float(rng.uniform(*(seg_coords + [lane, 2 * _BIPARTITE_MAX_ATTEMPTS])))
        if cost is not None:
            _charge_draws(1, cost)
        index = updated.search(r, cost)
        one = np.array([seg], dtype=np.int64)
        _probe_charges(det, one, probes)
        det.check_and_mark(one, np.array([index], dtype=np.int64), cost)
        indices[sel_offsets[seg] + lane] = index
        iterations[sel_offsets[seg] + lane] = _BIPARTITE_MAX_ATTEMPTS + 1
        collisions[seg] += int(remaps[j]) + _BIPARTITE_MAX_ATTEMPTS


def _repeated_lanes(
    ctps: SegmentedCTPS,
    det: SegmentedDetector,
    rng: CounterRNG,
    coords: Sequence[np.ndarray],
    counts: np.ndarray,
    sel_offsets: np.ndarray,
    indices: np.ndarray,
    iterations: np.ndarray,
    probes: np.ndarray,
    collisions: np.ndarray,
    cost: Optional[CostModel],
) -> None:
    """Repeated sampling: fixed CTPS, redraw on collision."""
    max_count = int(counts.max()) if counts.size else 0
    for lane in range(max_count):
        pending = np.nonzero(counts > lane)[0]
        for attempt in range(_REPEATED_MAX_ATTEMPTS):
            if pending.size == 0:
                break
            rs = np.atleast_1d(
                rng.uniform(*(_coords_at(coords, pending) + [lane, attempt]))
            )
            if cost is not None:
                _charge_draws(int(pending.size), cost)
            idx = ctps.search(rs, pending, cost)
            _probe_charges(det, pending, probes)
            was_set = det.check_and_mark(pending, idx, cost)
            done = ~was_set
            done_segs = pending[done]
            indices[sel_offsets[done_segs] + lane] = idx[done]
            iterations[sel_offsets[done_segs] + lane] = attempt + 1
            collisions[pending[was_set]] += 1
            if cost is not None:
                cost.selection_collisions += int(was_set.sum())
            pending = pending[was_set]
        else:
            # Attempt budget exhausted: take the first unselected candidate
            # with positive probability, keeping the full attempt count.
            for seg in pending:
                seg = int(seg)
                probabilities = np.diff(ctps.segment_boundaries(seg))
                marked = det.marked_candidates(seg)
                for candidate in range(probabilities.size):
                    if probabilities[candidate] > 0 and not marked[candidate]:
                        one = np.array([seg], dtype=np.int64)
                        _probe_charges(det, one, probes)
                        det.check_and_mark(
                            one, np.array([candidate], dtype=np.int64), cost
                        )
                        indices[sel_offsets[seg] + lane] = candidate
                        break
                iterations[sel_offsets[seg] + lane] = _REPEATED_MAX_ATTEMPTS


def _updated_lanes(
    ctps: SegmentedCTPS,
    det: SegmentedDetector,
    rng: CounterRNG,
    coords: Sequence[np.ndarray],
    counts: np.ndarray,
    sel_offsets: np.ndarray,
    indices: np.ndarray,
    iterations: np.ndarray,
    probes: np.ndarray,
    collisions: np.ndarray,
    cost: Optional[CostModel],
) -> None:
    """Updated sampling: rebuild the CTPS without selected candidates per lane."""
    max_count = int(counts.max()) if counts.size else 0
    base_biases = None
    for lane in range(max_count):
        segs = np.nonzero(counts > lane)[0]
        if segs.size == 0:
            break
        if lane == 0:
            current, local = ctps, segs
        else:
            # Rebuild from the *original* CTPS with selected candidates
            # zeroed, exactly as CTPS.exclude does (diff * total, then zero).
            if base_biases is None:
                base_biases = _reconstruct_biases(ctps)
            sub_biases, sub_offsets = take_segments(
                _zero_marked(base_biases, ctps, det, segs), ctps.offsets, segs
            )
            current = SegmentedCTPS.from_biases(sub_biases, sub_offsets, cost)
            local = np.arange(segs.size, dtype=np.int64)
        rs = np.atleast_1d(rng.uniform(*(_coords_at(coords, segs) + [lane, 0])))
        if cost is not None:
            _charge_draws(int(segs.size), cost)
        idx = current.search(rs, local, cost)
        _probe_charges(det, segs, probes)
        det.check_and_mark(segs, idx, cost)
        indices[sel_offsets[segs] + lane] = idx
        iterations[sel_offsets[segs] + lane] = 1


def _reconstruct_biases(ctps: SegmentedCTPS) -> np.ndarray:
    """``diff(boundaries) * total`` per segment (bitwise ``CTPS.exclude`` input)."""
    seg_of = np.repeat(np.arange(ctps.num_segments, dtype=np.int64), ctps.lengths)
    norm = ctps.prefix / ctps.totals[seg_of]
    norm[ctps.offsets[1:] - 1] = 1.0  # the scalar CTPS forces F[n] = 1.0
    widths = np.empty_like(norm)
    if norm.size:
        widths[0] = norm[0]
        widths[1:] = norm[1:] - norm[:-1]
        # Segment-leading candidates own [0, F[1]): width is F[1] itself,
        # which equals F[1] - 0.0 bit for bit.
        widths[ctps.offsets[:-1]] = norm[ctps.offsets[:-1]]
    return np.maximum(widths, 0.0) * ctps.totals[seg_of]


def _zero_marked(
    base_biases: np.ndarray,
    ctps: SegmentedCTPS,
    det: SegmentedDetector,
    segs: np.ndarray,
) -> np.ndarray:
    """Copy of the reconstructed biases with marked candidates zeroed."""
    biases = base_biases.copy()
    for seg in segs:
        seg = int(seg)
        marked = det.marked_candidates(seg)
        lo = int(ctps.offsets[seg])
        biases[lo : lo + marked.size][marked] = 0.0
    return biases


# --------------------------------------------------------------------------- #
# Warp-level wrapper (the engine's SELECT)
# --------------------------------------------------------------------------- #
def segmented_warp_select(
    biases: np.ndarray,
    offsets: np.ndarray,
    counts: np.ndarray,
    rng: CounterRNG,
    coords: Sequence[np.ndarray],
    *,
    with_replacement: bool,
    strategy: Union[str, CollisionStrategy] = CollisionStrategy.BIPARTITE,
    detector: str = "strided_bitmap",
    cost: Optional[CostModel] = None,
    validate: bool = True,
    positive_counts: Optional[np.ndarray] = None,
) -> SegmentedSelection:
    """Batched :func:`repro.api.select.warp_select` over ``K`` segments.

    ``coords`` must already include the per-segment warp id as its last
    coordinate (the scalar path appends ``warp.warp_id`` the same way), and
    the per-warp step charges mirror ``warp_select``: one lock-step
    instruction for with-replacement selection, a divergent-loop charge for
    the collision strategies.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if np.any(counts < 0):
        raise ValueError("count must be non-negative")
    active = counts > 0
    if with_replacement:
        result = segmented_sample_with_replacement(
            biases, offsets, counts, rng, coords, cost, validate=validate
        )
        if cost is not None:
            _charge_lockstep(counts[active], cost)
        return result
    result = segmented_select_without_replacement(
        biases, offsets, counts, rng, coords,
        strategy=strategy, detector=detector, cost=cost,
        validate=validate, positive_counts=positive_counts,
    )
    if cost is not None and np.any(active):
        # charge_divergent_loop per segment: the warp steps as long as its
        # slowest lane; every still-running lane pays each step.
        starts = result.sel_offsets[:-1][active]
        cost.warp_steps += int(np.maximum.reduceat(result.iterations, starts).sum())
        cost.lane_ops += int(result.iterations.sum())
    return result

