"""The fused walk kernel: every step of every walker as flat arrays.

:class:`CompiledWalkKernel` is what the :mod:`repro.compiled` tier emits for
walk-shaped plans (``FrontierSize = 0``, with-replacement, ``NEXT_LAYER``,
default accept/update hooks, a recognised bias kind).  Where the interpreted
:class:`~repro.engine.step.BatchedStepEngine` re-dispatches program hooks,
materialises a :class:`~repro.api.bias.SegmentedEdgePool` and walks a Python
loop over allocated segments every kernel, the compiled kernel keeps the
whole fleet of walkers in flat ndarrays -- columns in
(:class:`~repro.api.instance.InstanceBatch`), columns out
(:class:`~repro.api.results.SampleColumns`) -- and never builds a
per-instance object: one stable sort by owner after the last kernel turns
the per-kernel draws into every instance's edge range.

Two drivers share that state and one SELECT: the depth loop (in-memory and
coalesced routes: one kernel per depth over every walker's frontier) and the
partition drain (out-of-memory route: one kernel per group of frontier-queue
entries of a resident partition, Section V-C's batched multi-instance
kernel).

Specialisations, by plan-proved properties:

* ``kind="uniform"`` (SimpleRandomWalk / DeepWalk) -- biases are known to be
  all-ones, so the kernel never materialises neighbor pools or bias arrays:
  the CTPS over ones has the closed form ``F[b] = b / n``, the segmented scan
  collapses to nothing, and SELECT becomes a direct local binary search of
  each draw against ``(mid + 1) / n`` -- bitwise the probes the interpreted
  :meth:`~repro.selection.segmented.SegmentedCTPS.search` computes on the
  ones-prefix.  The per-draw loop optionally runs in the numba backend.
* ``kind="weight_or_degree"`` (BiasedRandomWalk) -- the per-vertex CTPS
  prefixes depend only on the graph, so they come from the per-graph
  structure cache (:mod:`repro.compiled.structures`): the kernel never
  materialises neighbor pools or bias arrays, charges the closed forms of
  the scan/normalisation it skipped, and binary-searches the cached
  graph-wide prefix directly (optionally in the numba backend).
* ``kind="node2vec"`` (Node2Vec) -- a transition's bias vector depends only
  on the traversed edge ``prev -> vertex`` (given ``(p, q)``), so the
  structure cache keeps a per-edge table of scanned CTPS prefix rows
  (:class:`~repro.compiled.structures.Node2VecPrefixTable`): cache hits
  skip pool materialisation, the bias formula *and* the segmented scan
  entirely, misses build their rows once with the same stamp-loop formula
  and scan the interpreted hook runs, and every draw binary-searches the
  cached rows with probes bitwise equal to the per-step CTPS.

**Bit-compatibility contract.**  The kernel draws the same RNG keys
(``(instance, depth, slot, warp, lane)`` in the depth loop, ``(instance,
depth, vertex, warp, lane)`` in the drain), advances the engine's warp
cursors in the same order, and charges every cost-model counter exactly as
the interpreted path charges it (the uniform specialisation charges the
closed forms of the scan/normalise/search work it skipped).  Samples, iteration
counts, per-kernel cost records and warp-task counts are all identical; the
``compiled`` and (for the drain) ``preset``/``shape`` cells of
``tests/integration/test_bitcompat_matrix.py`` and
``tests/compiled/test_walk_kernel.py`` hold it to that.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

import numpy as np

from repro.api.instance import InstanceBatch
from repro.api.results import SampleColumns
from repro.engine.step import alloc_warp_ids
from repro.gpusim.costmodel import CostModel
from repro.gpusim.kernel import KernelLaunch
from repro.selection.segmented import (
    _ceil_log2,
    concat_aranges,
    segment_positive_counts,
    segmented_kogge_stone_inclusive,
    segmented_warp_select,
    take_segments,
)
from repro.telemetry import profiler as _profiler
from repro.telemetry import trace as _trace

__all__ = ["CompiledWalkKernel", "prefix_local_search", "uniform_local_search"]

_EMPTY = np.empty(0, dtype=np.int64)


def uniform_local_search(rs: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Binary-search each draw against the closed-form uniform CTPS.

    For all-ones biases the unnormalised prefix of segment ``k`` is exactly
    ``[1, 2, ..., n_k]`` (the segmented scan's integer fast path), so probe
    ``b`` of :meth:`SegmentedCTPS.search` is ``float64(b + 1) / float64(n)``.
    This computes the same probes from ``lengths`` alone -- no prefix array,
    no segment offsets -- and therefore returns bit-identical local indices.
    """
    lo = np.zeros(rs.size, dtype=np.int64)
    hi = lengths - 1
    nf = lengths.astype(np.float64)
    active = lo < hi
    while active.any():
        mid = (lo + hi) >> 1
        above = mid + 1
        go_right = active & (above.astype(np.float64) / nf <= rs)
        lo = np.where(go_right, above, lo)
        hi = np.where(active & ~go_right, mid, hi)
        active = lo < hi
    return lo


def prefix_local_search(
    prefix: np.ndarray,
    base: np.ndarray,
    lengths: np.ndarray,
    totals: np.ndarray,
    rs: np.ndarray,
) -> np.ndarray:
    """Binary-search each draw against a cached unnormalised prefix row.

    Operation-for-operation :meth:`SegmentedCTPS.search` with explicit
    per-draw base offsets into one flat buffer: probe ``prefix[mid] /
    total`` against the draw, identical float ops, so the local indices
    are bitwise those the per-step CTPS over the same rows would return.
    """
    rs = np.asarray(rs, dtype=np.float64)
    if rs.size and (float(rs.min()) < 0.0 or float(rs.max()) >= 1.0):
        raise ValueError("random numbers for CTPS search must lie in [0, 1)")
    lo = np.asarray(base, dtype=np.int64).copy()
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


def _per_draw(values: np.ndarray, ns: int) -> np.ndarray:
    """Per-segment values repeated once per lane (``ns`` draws a segment)."""
    return values if ns == 1 else np.repeat(values, ns)


class _WalkerColumns:
    """Run-level walker state as columns, shared by both drivers.

    One row per instance of the batch: the ``prev`` vertex node2vec's bias
    reads, and an append-only ``(owner rank, src, dst)`` edge log that one
    stable sort by owner closes into :class:`SampleColumns`.  Iteration
    counts need no column of their own: with-replacement selections iterate
    exactly once, so an instance's total is its edge count.
    """

    __slots__ = ("batch", "ids", "prevs", "_owner", "_src", "_dst",
                 "_id_order", "_sorted_ids")

    def __init__(self, batch: InstanceBatch):
        self.batch = batch
        self.ids = ids = batch.instance_ids
        self.prevs = np.full(ids.size, -1, dtype=np.int64)
        self._owner: List[np.ndarray] = []
        self._src: List[np.ndarray] = []
        self._dst: List[np.ndarray] = []
        # ``make_instances`` numbers instances 0..n-1, where the id is the
        # rank; any other id column resolves by one binary search.
        self._id_order = self._sorted_ids = None
        if not np.array_equal(ids, np.arange(ids.size, dtype=np.int64)):
            self._id_order = np.argsort(ids, kind="stable")
            self._sorted_ids = ids[self._id_order]

    def ranks(self, instance_ids: np.ndarray) -> np.ndarray:
        """Row of each instance id (the drain's queues carry ids)."""
        if self._id_order is None:
            return instance_ids
        return self._id_order[np.searchsorted(self._sorted_ids, instance_ids)]

    def log_edges(self, owner: np.ndarray, src: np.ndarray, dst: np.ndarray) -> None:
        self._owner.append(owner)
        self._src.append(src)
        self._dst.append(dst)

    def set_prevs(self, owner: np.ndarray, vertices: np.ndarray) -> None:
        """``prev[owner[k]] = vertices[k]`` in entry order: last write wins,
        as the per-entry loop's assignments do (numpy promises no order for
        repeated indices, so repeats resolve to their last entry first)."""
        if owner.size > 1:
            owner, first = np.unique(owner[::-1], return_index=True)
            vertices = vertices[::-1][first]
        self.prevs[owner] = vertices

    def samples(self) -> SampleColumns:
        """Close the edge log: group the flat per-kernel draws by owner
        (stable, so each owner's edges stay in the order they were drawn --
        the exact order the interpreted UPDATE loop records them)."""
        batch = self.batch
        return SampleColumns.from_owner_edges(
            self.ids, batch.seed_offsets, batch.seeds,
            *(
                np.concatenate(parts) if parts else _EMPTY
                for parts in (self._owner, self._src, self._dst)
            ),
        )


class CompiledWalkKernel:
    """Plan-specialised fused callable for walk-shaped plans.

    Instantiated per run by the executor around a live
    :class:`~repro.engine.step.BatchedStepEngine` (whose RNG and warp
    cursors it shares, so interleaving compiled and interpreted runs on one
    sampler keeps a single warp-id stream).  Two drivers share one SELECT
    and one walker-state object:

    * :meth:`run` -- the depth loop: replaces the executor's
      ``_depth_loop`` wholesale (in-memory and coalesced routes);
    * :meth:`begin` / :meth:`expand` / :meth:`finish` -- the drain: the
      Section V-C batched kernel over frontier-queue entries, called once
      per kernel by the out-of-memory scheduler where it would call
      ``engine.expand_entries``.
    """

    def __init__(self, engine, *, kind: str, backend: str):
        if kind not in ("uniform", "weight_or_degree", "node2vec"):
            raise ValueError(f"unknown compiled bias kind {kind!r}")
        if backend not in ("numpy", "numba"):
            raise ValueError(f"unknown compiled backend {backend!r}")
        self.engine = engine
        self.graph = engine.graph
        self.program = engine.program
        self.config = engine.config
        self.rng = engine.rng
        self.kind = kind
        self.backend = backend
        self._walkers: Optional[_WalkerColumns] = None
        self._numba_select = None
        self._numba_prefix_search = None
        if backend == "numba":
            from repro.compiled.numba_backend import (
                get_prefix_search,
                get_uniform_select,
            )

            self._numba_select = get_uniform_select()
            if kind in ("weight_or_degree", "node2vec"):
                self._numba_prefix_search = get_prefix_search()
        self._structures = None
        self._n2v_table = None
        if kind in ("weight_or_degree", "node2vec"):
            from repro.compiled.structures import get_structures

            # Both biased kinds lean on the weight/degree structures: the
            # flat CTPS answers first-order selection, and its positivity
            # counts (bias > 0 iff weight > 0) equal node2vec's, whose
            # positive scale factors never zero a bias.
            self._structures = get_structures(self.graph, "weight_or_degree")
            if kind == "node2vec":
                nv = int(self.graph.num_vertices)
                if nv * nv < 2**63:  # (prev, vertex) packs into one int64 key
                    self._n2v_table = self._structures.node2vec_table(
                        self.program.p, self.program.q
                    )

    # ------------------------------------------------------------------ #
    # Driver 1: the depth loop
    # ------------------------------------------------------------------ #
    def run(
        self,
        batch: InstanceBatch,
        groups: Optional[np.ndarray] = None,
        num_groups: int = 0,
    ) -> Tuple[
        List[KernelLaunch], CostModel, SampleColumns,
        Union[List[int], List[List[int]]],
    ]:
        """Walk ``batch`` through every depth, from its seed columns.

        Returns ``(kernels, cost, samples, iteration_counts)`` -- the same
        kernel records, cost totals, per-instance edges and iteration counts
        as the interpreted depth loop, produced in bulk.  ``groups`` (the
        coalesced route) gives each instance's member rank among
        ``num_groups`` members: every member then draws warp ids from its
        own cursor starting at 0 and gets its own iteration-count list;
        without it, warp ids continue the engine's global counter and the
        counts are one list.
        """
        with _trace.span(
            "compiled_run",
            kind=self.kind,
            backend=self.backend,
            instances=len(batch),
        ):
            return self._run(batch, groups, num_groups)

    def _run(self, batch: InstanceBatch, groups: Optional[np.ndarray], num_groups: int):
        cfg = self.config
        num = len(batch)
        kernels: List[KernelLaunch] = []
        total = CostModel()

        walkers = _WalkerColumns(batch)
        prevs = walkers.prevs
        pool_counts = np.diff(batch.seed_offsets)
        pool_flat = batch.seeds
        finished = pool_counts == 0
        ns = int(cfg.neighbor_size)

        # Members draw from their own cursors; an ungrouped run continues
        # the engine's sequence (so interpreted and compiled runs of one
        # sampler draw from one continuous warp-id stream).
        cursors = (
            self.engine.warp_cursor if groups is None
            else np.zeros(num_groups, dtype=np.int64)
        )

        for depth in range(cfg.depth):
            act = np.nonzero(~finished)[0]
            if act.size == 0:
                break
            prof = _profiler.clock(depth)
            step_cost = CostModel()
            counts_a = pool_counts[act]
            seg_owner = np.repeat(act, counts_a)
            # Draws key (instance, depth, slot + 1, warp, lane).
            allocated, dst = self._select(
                walkers, pool_flat, seg_owner,
                np.full(seg_owner.size, depth, dtype=np.int64),
                concat_aranges(counts_a) + 1,
                step_cost, prof, groups, cursors,
            )
            tasks = int(allocated.size)
            new_counts = np.bincount(seg_owner[allocated], minlength=num) * ns
            prof.lap("select")

            # Walk bookkeeping: prev_vertex tracks single-vertex frontiers,
            # updated from the *pre-step* pool (biases at depth d + 1 see it).
            single = counts_a == 1
            if np.any(single):
                block_starts = np.zeros(act.size, dtype=np.int64)
                np.cumsum(counts_a[:-1], out=block_starts[1:])
                prevs[act[single]] = pool_flat[block_starts[single]]

            pool_flat = dst
            pool_counts = new_counts
            finished[act] = new_counts[act] == 0
            step_cost.kernel_launches += 1
            kernels.append(
                KernelLaunch(
                    name=f"kernel:depth{depth}",
                    cost=step_cost,
                    num_warp_tasks=max(tasks, 1),
                )
            )
            total.merge(step_cost)
            prof.lap("update")

        prof = _profiler.clock(-1)
        samples = walkers.samples()
        # Iteration counts: with-replacement selections always iterate once,
        # so only the totals matter (per member when grouped).
        if groups is None:
            iterations = [1] * samples.num_edges
        else:
            per_group = np.bincount(
                groups, weights=samples.edges_per_instance(), minlength=num_groups
            )
            iterations = [[1] * int(count) for count in per_group]
        prof.lap("update")
        return kernels, total, samples, iterations

    # ------------------------------------------------------------------ #
    # Driver 2: the partition drain (Section V-C batched kernel)
    # ------------------------------------------------------------------ #
    def begin(self, batch: InstanceBatch) -> None:
        """Open the walker columns of one drained run over ``batch``."""
        self._walkers = _WalkerColumns(batch)

    def expand(
        self,
        vertices: np.ndarray,
        instance_ids: np.ndarray,
        depths: np.ndarray,
        cost: CostModel,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One batched kernel over frontier-queue entries, as an array program.

        ``(vertices, instance_ids, depths)`` are the int64 entry arrays the
        scheduler popped (every instance's entries of a resident partition,
        or one instance's when batching is off); draws key ``(instance,
        depth, vertex, warp, lane)`` and warp ids continue the engine's
        counter in entry order, exactly as
        :meth:`BatchedStepEngine.expand_entries` keys and allocates them.
        Charges ``cost`` with that method's counters and returns the
        successor entries in the order its per-entry loop enqueues them.
        Which entries form a kernel, what the launch costs and where the
        successors go stay the scheduler's business.
        """
        cfg = self.config
        live = depths < cfg.depth
        if not live.all():
            vertices, instance_ids, depths = (
                vertices[live], instance_ids[live], depths[live]
            )
        if vertices.size == 0:
            return _EMPTY, _EMPTY, _EMPTY
        # Entries of one kernel can sit at different depths: like the
        # engine's expansion, the profile attributes it to no depth.
        prof = _profiler.clock(-1)
        walkers = self._walkers
        owners = walkers.ranks(instance_ids)
        allocated, dst = self._select(
            walkers, vertices, owners, depths, vertices, cost, prof,
            None, self.engine.warp_cursor,
        )
        prof.lap("select")
        if allocated.size == 0:
            return _EMPTY, _EMPTY, _EMPTY
        walkers.set_prevs(owners[allocated], vertices[allocated])
        succ_ids = instance_ids[allocated]
        succ_depths = depths[allocated] + 1
        ns = int(cfg.neighbor_size)
        keep = succ_depths < cfg.depth
        if not keep.all():
            dst = dst[_per_draw(keep, ns)]
            succ_ids, succ_depths = succ_ids[keep], succ_depths[keep]
        prof.lap("update")
        return dst, _per_draw(succ_ids, ns), _per_draw(succ_depths, ns)

    def finish(self) -> Tuple[SampleColumns, List[int]]:
        """Close the drained run: ``(samples, iteration_counts)``."""
        samples = self._walkers.samples()
        self._walkers = None
        return samples, [1] * samples.num_edges

    # ------------------------------------------------------------------ #
    # GATHER + SELECT of one kernel (both drivers)
    # ------------------------------------------------------------------ #
    def _select(
        self, walkers, seg_vertices, seg_owner, depths, third, cost, prof,
        groups, cursors,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Sample ``neighbor_size`` neighbors of every segment of one kernel.

        Segment ``k`` expands ``seg_vertices[k]`` for walker row
        ``seg_owner[k]`` and keys its draws ``(instance, depths[k],
        third[k], warp, lane)``.  Charges ``cost`` for the gather and the
        selection, logs the sampled edges and returns ``(allocated, dst)``:
        the indices of the segments that drew (non-empty pool, some positive
        bias) and their draws, segment by segment.
        """
        graph = self.graph
        ns = int(self.config.neighbor_size)
        K = int(seg_vertices.size)
        lengths = graph.degrees[seg_vertices]
        # GATHER: the row-descriptor + edge-stream traffic of the full pool
        # gather, charged whether or not the neighbors materialise.
        cost.charge_global_bytes(16 * int(lengths.sum()) + 16 * K)
        starts = graph.row_ptr[seg_vertices]

        neighbors = offsets = biases = None
        if self.kind == "uniform":
            positive = lengths
            prof.lap("gather")
        elif self.kind == "weight_or_degree" or self._n2v_table is not None:
            # Structure reuse: cached structures answer every bias question,
            # so the pool never materialises.  The graph constructor already
            # validated the weights (finite, non-negative) and node2vec's
            # scale factors are positive, which is what the per-step
            # validation checks.
            positive = self._structures.positive_counts[seg_vertices]
            prof.lap("gather")
        else:
            offsets = np.zeros(K + 1, dtype=np.int64)
            np.cumsum(lengths, out=offsets[1:])
            total_pool = int(offsets[-1])
            flat_idx = (
                np.repeat(starts - offsets[:-1], lengths)
                + np.arange(total_pool, dtype=np.int64)
            )
            neighbors = graph.col_idx[flat_idx]
            prof.lap("gather")
            biases = self._compute_biases(
                neighbors, flat_idx, lengths, offsets, seg_owner, walkers.prevs
            )
            if np.any(biases < 0) or not np.all(np.isfinite(biases)):
                raise ValueError(
                    "edge_bias must return finite, non-negative biases"
                )
            positive = segment_positive_counts(biases, offsets)
            prof.lap("bias")

        alloc = (lengths > 0) & (positive > 0)
        allocated = np.nonzero(alloc)[0]
        tasks = int(allocated.size)
        if tasks == 0:
            return allocated, _EMPTY
        # Every segment drawing is the common case: index nothing then.
        take = (lambda a: a) if tasks == K else (lambda a: a[allocated])
        len_a, owners_a, verts_a, starts_a, depths_a, third_a = map(
            take, (lengths, seg_owner, seg_vertices, starts, depths, third)
        )
        # Per-segment RNG coordinates; the lane is appended per draw.
        coords = (
            walkers.ids[owners_a], depths_a, third_a,
            # Sequential in segment order within each member's cursor (the
            # engine's own when ungrouped): the engine's allocation order.
            alloc_warp_ids(
                cursors, tasks, None if groups is None else groups[owners_a]
            ),
        )
        if self.kind == "uniform":
            idx = self._uniform_select(len_a, coords, cost)
        elif self.kind == "weight_or_degree":
            idx = self._cached_biased_select(verts_a, len_a, coords, cost)
        elif self._n2v_table is not None:
            idx = self._node2vec_select(
                verts_a, len_a, walkers.prevs[owners_a], coords, cost, prof
            )
        else:
            sub_biases, sub_offsets = (
                (biases, offsets) if tasks == K
                else take_segments(biases, offsets, allocated)
            )
            idx = segmented_warp_select(
                sub_biases,
                sub_offsets,
                np.full(tasks, ns, dtype=np.int64),
                self.rng,
                list(coords),
                with_replacement=True,
                strategy=self.config.strategy,
                detector=self.config.detector,
                cost=cost,
                validate=False,  # validated over the whole pool above
                positive_counts=positive[allocated],
            ).indices
        dst = graph.col_idx[_per_draw(starts_a, ns) + idx]
        cost.sampled_edges += tasks * ns
        walkers.log_edges(
            _per_draw(owners_a, ns), _per_draw(verts_a, ns), dst
        )
        return allocated, dst

    # ------------------------------------------------------------------ #
    # Charges and draws shared by the three specialisations
    # ------------------------------------------------------------------ #
    def _charge_ctps_build(self, len_a: np.ndarray, cost: CostModel) -> None:
        """The closed forms of the CTPS work a specialisation skips:
        segmented scan, normalisation and draw accounting, exactly the
        counters ``segmented_warp_select`` accumulates over these pools."""
        num_alloc = int(len_a.size)
        # Segmented Kogge-Stone scan over the allocated bias segments.
        steps = _ceil_log2(len_a)
        chunks = np.maximum(1, (len_a + 31) // 32)
        lanes = np.minimum(len_a, 32)
        cost.prefix_sum_steps += int((steps * chunks).sum())
        cost.warp_steps += int(steps.sum())
        cost.lane_ops += int((steps * lanes).sum())
        cost.charge_global_bytes(int(len_a.sum()) * 8)
        # CTPS normalisation: one warp step per segment.
        cost.warp_steps += num_alloc
        cost.lane_ops += int(lanes.sum())
        # Draw accounting (segmented ITS).
        draws = num_alloc * int(self.config.neighbor_size)
        cost.rng_draws += draws
        cost.selection_attempts += draws

    @staticmethod
    def _charge_search(n_draw: np.ndarray, cost: CostModel) -> None:
        """Binary-search charges (one per draw, as ``SegmentedCTPS.search``)."""
        search_steps = int(np.maximum(1, _ceil_log2(n_draw + 1)).sum())
        cost.binary_search_steps += search_steps
        cost.charge_global_bytes(search_steps * 8)

    def _charge_warp_wrapper(self, num_alloc: int, cost: CostModel) -> None:
        """With-replacement warp wrapper: one lock-step instruction per warp."""
        cost.warp_steps += num_alloc
        cost.lane_ops += min(int(self.config.neighbor_size), 32) * num_alloc

    def _draw_coords(self, coords) -> List[np.ndarray]:
        """Per-draw ``[instance, depth, third, warp, lane]`` coordinates."""
        ns = int(self.config.neighbor_size)
        num_alloc = int(coords[0].size)
        lanes = np.tile(np.arange(ns, dtype=np.int64), num_alloc)
        return [_per_draw(c, ns) for c in coords] + [lanes]

    def _numba_args(self, draw_coords) -> list:
        """The jitted kernels' leading arguments: the seed, then uint64 coordinates."""
        return [np.uint64(self.rng.seed)] + [
            c.astype(np.uint64) for c in draw_coords
        ]

    # ------------------------------------------------------------------ #
    def _uniform_select(self, len_a, coords, cost) -> np.ndarray:
        """Closed-form SELECT for all-ones biases (one draw block per kernel).

        Charges the exact counters the interpreted path accumulates while
        building and searching the ones-CTPS -- segmented scan, CTPS
        normalisation, draw accounting, per-draw binary-search steps, and the
        with-replacement warp wrapper -- then draws and searches directly.
        """
        ns = int(self.config.neighbor_size)
        self._charge_ctps_build(len_a, cost)
        draw_coords = self._draw_coords(coords)
        n_draw = _per_draw(len_a, ns)
        if self._numba_select is not None:
            idx = self._numba_select(*self._numba_args(draw_coords), n_draw)
        else:
            rs = np.atleast_1d(self.rng.uniform(*draw_coords))
            idx = uniform_local_search(rs, n_draw)
        self._charge_search(n_draw, cost)
        self._charge_warp_wrapper(int(len_a.size), cost)
        return idx

    # ------------------------------------------------------------------ #
    def _cached_biased_select(self, verts_a, len_a, coords, cost) -> np.ndarray:
        """Structure-reuse SELECT for weight/degree biases.

        The interpreted path re-scans every allocated pool's biases into a
        fresh :class:`SegmentedCTPS` each kernel; here the per-graph cached
        prefix answers the same binary searches, so the kernel only applies
        the *charges* of the scan and normalisation it skipped (identical
        closed forms) and then searches the cached prefix with the same
        draws -- bit-identical indices at O(draws) work per kernel.
        """
        ns = int(self.config.neighbor_size)
        self._charge_ctps_build(len_a, cost)
        draw_coords = self._draw_coords(coords)
        ctps = self._structures.ctps
        verts = _per_draw(verts_a, ns)
        if self._numba_prefix_search is not None:
            n_draw = _per_draw(len_a, ns)
            idx = self._numba_prefix_search(
                *self._numba_args(draw_coords),
                self.graph.row_ptr[verts],
                n_draw,
                ctps.prefix,
                ctps.totals[verts],
            )
            self._charge_search(n_draw, cost)
        else:
            rs = np.atleast_1d(self.rng.uniform(*draw_coords))
            idx = ctps.search(rs, verts, cost)  # charges the search itself
        self._charge_warp_wrapper(int(len_a.size), cost)
        return idx

    # ------------------------------------------------------------------ #
    def _node2vec_select(
        self, verts, len_a, pr, coords, cost, prof
    ) -> np.ndarray:
        """Structure-reuse SELECT for second-order (node2vec) biases.

        A transition's bias vector depends only on the traversed edge
        ``prev -> vertex`` (and ``(p, q)``), so each vector's scanned CTPS
        prefix is built at most once -- by the exact stamp-loop formula and
        segmented scan the interpreted hook runs -- and cached in the
        per-graph :class:`Node2VecPrefixTable`.  Hits cost a dict lookup;
        only misses materialise their pools.  Either way the kernel charges
        the closed forms of the full gather/scan/normalise work (identical
        to the interpreted path) and searches with the same draws.
        ``pr`` is each segment's walker's ``prev`` vertex (-1 at a seed).
        """
        ns = int(self.config.neighbor_size)
        num_alloc = int(len_a.size)
        self._charge_ctps_build(len_a, cost)
        # Resolve the cached prefix row of each walker's traversed edge.
        table = self._n2v_table
        nv = np.int64(self.graph.num_vertices)
        keys = np.where(pr >= 0, pr * nv + verts, -(verts + np.int64(1)))
        row_off = np.empty(num_alloc, dtype=np.int64)
        row_tot = np.empty(num_alloc, dtype=np.float64)
        lookup = table.table.get
        miss: List[int] = []
        for i, key in enumerate(keys.tolist()):
            entry = lookup(key)
            if entry is None:
                miss.append(i)
            else:
                row_off[i] = entry[0]
                row_tot[i] = entry[1]
        table.hits += num_alloc - len(miss)
        table.misses += len(miss)
        prof.lap("structure_hit")
        if miss:
            m = np.asarray(miss, dtype=np.int64)
            pref, moff, tots = self._build_n2v_rows(verts[m], pr[m], len_a[m])
            row_off[m] = table.append(pref, moff, keys[m], tots)
            row_tot[m] = tots
            prof.lap("bias_build")
        draw_coords = self._draw_coords(coords)
        n_draw = _per_draw(len_a, ns)
        if self._numba_prefix_search is not None:
            idx = self._numba_prefix_search(
                *self._numba_args(draw_coords),
                _per_draw(row_off, ns),
                n_draw,
                table.buffer,
                _per_draw(row_tot, ns),
            )
        else:
            rs = np.atleast_1d(self.rng.uniform(*draw_coords))
            idx = prefix_local_search(
                table.buffer,
                _per_draw(row_off, ns),
                n_draw,
                _per_draw(row_tot, ns),
                rs,
            )
        self._charge_search(n_draw, cost)
        self._charge_warp_wrapper(num_alloc, cost)
        return idx

    def _build_n2v_rows(self, mv, mp, ml):
        """Materialise, bias and scan the table-miss segments only.

        Mirrors :meth:`Node2Vec.edge_bias_batch` restricted to the missing
        ``prev -> vertex`` pairs -- elementwise bias arithmetic and the
        per-segment scan are batch-independent, so the rows are bitwise
        what a whole-pool rebuild would produce.
        """
        graph = self.graph
        program = self.program
        moff = np.zeros(mv.size + 1, dtype=np.int64)
        np.cumsum(ml, out=moff[1:])
        total = int(moff[-1])
        flat = (
            np.repeat(graph.row_ptr[mv] - moff[:-1], ml)
            + np.arange(total, dtype=np.int64)
        )
        nbrs = graph.col_idx[flat]
        weights = (
            np.asarray(graph.weights[flat], dtype=np.float64)
            if graph.weights is not None
            else np.ones(total, dtype=np.float64)
        )
        prev_of_edge = np.repeat(mp, ml)
        bias = weights / program.q
        is_prev_neighbor = np.zeros(total, dtype=bool)
        stamps = np.full(graph.num_vertices, -1, dtype=np.int64)
        for k in np.nonzero(mp >= 0)[0]:
            lo, hi = int(moff[k]), int(moff[k + 1])
            stamps[graph.neighbors(int(mp[k]))] = k
            is_prev_neighbor[lo:hi] = stamps[nbrs[lo:hi]] == k
        is_prev = (nbrs == prev_of_edge) & (prev_of_edge >= 0)
        bias[is_prev_neighbor] = weights[is_prev_neighbor]
        bias[is_prev] = weights[is_prev] / program.p
        first = prev_of_edge < 0
        bias[first] = weights[first]
        pref = segmented_kogge_stone_inclusive(bias, moff)
        return pref, moff, pref[moff[1:] - 1]

    # ------------------------------------------------------------------ #
    def _compute_biases(
        self, neighbors, flat_idx, lengths, offsets, seg_owner, prevs
    ) -> np.ndarray:
        """Inlined bias formula for the non-uniform kinds (whole pool)."""
        graph = self.graph
        if self.kind == "weight_or_degree":
            if graph.is_weighted:
                return np.asarray(graph.weights[flat_idx], dtype=np.float64)
            return graph.degrees[neighbors].astype(np.float64) + 1.0
        # node2vec: second-order bias with the prev-neighbor membership test
        # answered by the cached sorted edge keys in one vectorised binary
        # search -- the same booleans the per-segment stamp loop computes,
        # then operation-for-operation the Node2Vec.edge_bias_batch formula.
        program = self.program
        weights = (
            np.asarray(graph.weights[flat_idx], dtype=np.float64)
            if graph.weights is not None
            else np.ones(neighbors.size, dtype=np.float64)
        )
        prevs_seg = prevs[seg_owner]
        prev_of_edge = np.repeat(prevs_seg, lengths)
        bias = weights / program.q
        is_prev_neighbor = np.zeros(neighbors.size, dtype=bool)
        keys = (
            self._structures.sorted_edge_keys
            if self._structures is not None
            else None
        )
        valid = prev_of_edge >= 0
        if keys is not None and keys.size and np.any(valid):
            probe = (
                prev_of_edge[valid] * np.int64(graph.num_vertices)
                + neighbors[valid]
            )
            pos = np.minimum(np.searchsorted(keys, probe), keys.size - 1)
            is_prev_neighbor[valid] = keys[pos] == probe
        elif keys is None:
            # Key space overflowed int64: per-segment stamp-array fallback.
            stamps = np.full(graph.num_vertices, -1, dtype=np.int64)
            for k in np.nonzero(prevs_seg >= 0)[0]:
                lo, hi = int(offsets[k]), int(offsets[k + 1])
                stamps[graph.neighbors(int(prevs_seg[k]))] = k
                is_prev_neighbor[lo:hi] = stamps[neighbors[lo:hi]] == k
        is_prev = (neighbors == prev_of_edge) & (prev_of_edge >= 0)
        bias[is_prev_neighbor] = weights[is_prev_neighbor]
        bias[is_prev] = weights[is_prev] / program.p
        first = prev_of_edge < 0
        bias[first] = weights[first]
        return bias
