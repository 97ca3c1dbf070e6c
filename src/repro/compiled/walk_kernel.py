"""The fused walk kernel: every step of every walker as flat arrays.

:class:`CompiledWalkKernel` is what the :mod:`repro.compiled` tier emits for
walk-shaped plans (``FrontierSize = 0``, with-replacement, ``NEXT_LAYER``,
default accept/update hooks, a recognised bias kind).  Where the interpreted
:class:`~repro.engine.step.BatchedStepEngine` re-dispatches program hooks,
materialises a :class:`~repro.api.bias.SegmentedEdgePool` and walks a Python
loop over allocated segments every kernel, the compiled kernel keeps the
whole fleet of walkers in flat ndarrays -- the rows of one
:class:`WalkerBatch` in, one :class:`EdgeLog` of drawn edges out -- and
never builds a per-instance object: the log closes into
:class:`~repro.api.results.SampleColumns` with one stable sort by owner.

The kernel keeps no per-run state and runs no loop.  It has the engine's
two entry points: :meth:`~CompiledWalkKernel.step` (every walker row one
depth, the twin of ``BatchedStepEngine.step_instances``) and
:meth:`~CompiledWalkKernel.expand` (one Section V-C batched kernel over
frontier-queue entries, the twin of ``expand_entries``).  Whoever loops
calls them as it calls the engine: the executor's depth loop (in-memory
and coalesced routes) and partition drain (out-of-memory route), and each
:class:`~repro.distributed.shard.ShardRuntime` (sharded route).

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
  materialises neighbor pools or bias arrays.
* ``kind="node2vec"`` (Node2Vec) -- a transition's bias vector depends only
  on the traversed edge ``prev -> vertex`` (given ``(p, q)``), so the
  structure cache keeps a per-edge table of scanned CTPS prefix rows
  (:class:`~repro.compiled.structures.Node2VecPrefixTable`): cache hits
  skip pool materialisation, the bias formula *and* the segmented scan
  entirely; misses build their rows once with
  :func:`~repro.compiled.step_engine.kind_biases` and the segmented scan.
  The row key ``prev * V + vertex`` is one int64, so the kind needs
  ``V**2 < 2**63`` (the constructor raises past it).

Both biased kinds select through one ``_rows_select``: charge the closed
forms of the SELECT the interpreted path would run over the same pools
(:func:`~repro.selection.segmented.charge_its_select`), then binary-search
the cached rows (:func:`~repro.selection.segmented.prefix_local_search`,
or its numba twin) with probes bitwise equal to the per-step CTPS.

**Bit-compatibility contract.**  The kernel draws the same RNG keys
(``(instance, depth, slot, warp, lane)`` in :meth:`~CompiledWalkKernel.step`,
``(instance, depth, vertex, warp, lane)`` in
:meth:`~CompiledWalkKernel.expand`), advances the engine's (or each warp
group's) cursors in the same order, and charges every cost-model counter
exactly as the interpreted path charges it (the uniform specialisation
charges the closed forms of the scan/normalise/search work it skipped).
Samples, iteration counts, per-kernel cost records and warp-task counts are
all identical; the ``compiled``, (for the drain) ``preset``/``shape`` and
(for the shards) ``shards``/``transport`` cells of
``tests/integration/test_bitcompat_matrix.py`` and
``tests/compiled/test_walk_kernel.py`` hold it to that.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.api.instance import InstanceBatch, offsets_from_counts
from repro.api.results import SampleColumns
from repro.compiled.compiler import WALK_KINDS
from repro.compiled.step_engine import kind_biases
from repro.compiled.structures import get_structures
from repro.engine.step import alloc_warp_ids
from repro.gpusim.costmodel import CostModel
from repro.selection.segmented import (
    charge_its_select,
    concat_aranges,
    prefix_local_search,
    segmented_kogge_stone_inclusive,
    take_segments,
)
from repro.telemetry import profiler as _profiler

__all__ = ["CompiledWalkKernel", "EdgeLog", "WalkerBatch", "uniform_local_search"]

_EMPTY = np.empty(0, dtype=np.int64)
_COLUMNS = ("ids", "counts", "pool", "prevs", "cursors")


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


def _per_draw(values: np.ndarray, ns: int) -> np.ndarray:
    """Per-segment values repeated once per lane (``ns`` draws a segment)."""
    return values if ns == 1 else np.repeat(values, ns)


# ---------------------------------------------------------------------- #
# Walker state: rows, and the edges they drew
# ---------------------------------------------------------------------- #
@dataclass
class WalkerBatch:
    """Walk-kernel walkers as rows of columns: the one walker state, also
    the sharded route's resident and wire form.

    One row per walker: its global instance id, its segmented frontier pool
    (``counts`` plus the row-major flat ``pool``; an empty pool is a
    finished walker), the ``prev`` vertex node2vec's bias reads and the next
    warp id of its private warp stream (``cursors``).  Edges never ride
    along (they go to an :class:`EdgeLog`); the trace context rides once
    per batch.
    """

    ids: np.ndarray
    counts: np.ndarray
    pool: np.ndarray
    prevs: np.ndarray
    cursors: np.ndarray
    #: Telemetry trace context
    #: (see :attr:`~repro.distributed.router.WalkerEnvelope.trace_ctx`).
    trace_ctx: Optional[tuple] = None

    @classmethod
    def seeded(
        cls, batch: InstanceBatch, trace_ctx: Optional[tuple] = None
    ) -> "WalkerBatch":
        """The walkers of ``batch`` before their first step."""
        num = len(batch)
        return cls(
            batch.instance_ids, np.diff(batch.seed_offsets), batch.seeds,
            np.full(num, -1, dtype=np.int64), np.zeros(num, dtype=np.int64),
            trace_ctx,
        )

    @classmethod
    def empty(cls) -> "WalkerBatch":
        return cls(*(np.empty(0, dtype=np.int64) for _ in _COLUMNS))

    def __len__(self) -> int:
        return int(self.ids.size)

    def __add__(self, other: "WalkerBatch") -> "WalkerBatch":
        """Both batches' rows, in order; the first trace context carried."""
        return WalkerBatch(
            *(np.concatenate([getattr(self, c), getattr(other, c)])
              for c in _COLUMNS),
            trace_ctx=self.trace_ctx if self.trace_ctx is not None
            else other.trace_ctx,
        )

    def take(self, rows: np.ndarray) -> "WalkerBatch":
        """The given rows, in the given order, each with its pool."""
        pool, _ = take_segments(self.pool, offsets_from_counts(self.counts), rows)
        return WalkerBatch(
            self.ids[rows], self.counts[rows], pool, self.prevs[rows],
            self.cursors[rows], self.trace_ctx,
        )

    def heads(self) -> np.ndarray:
        """Each row's routing vertex
        (:func:`~repro.distributed.router.routing_vertex`: the first pool
        vertex); ``-1`` for a finished row."""
        heads = np.full(len(self), -1, dtype=np.int64)
        live = self.counts > 0
        heads[live] = self.pool[offsets_from_counts(self.counts)[:-1][live]]
        return heads

    def split(self, owners: np.ndarray) -> Dict[int, "WalkerBatch"]:
        """Rows grouped by ``owners[row]``, each group in row order."""
        return {
            int(owner): self.take(np.flatnonzero(owners == owner))
            for owner in np.unique(owners)
        }


def id_rows(ids: np.ndarray, instance_ids: np.ndarray) -> np.ndarray:
    """Row of each of ``instance_ids`` in the (unique) id column ``ids``.

    ``make_instances`` numbers instances ``0..n-1``, where the id is the
    row; any other id column resolves by one binary search.
    """
    if np.array_equal(ids, np.arange(ids.size, dtype=np.int64)):
        return instance_ids
    order = np.argsort(ids, kind="stable")
    return order[np.searchsorted(ids[order], instance_ids)]


def set_prevs(prevs: np.ndarray, owner: np.ndarray, vertices: np.ndarray) -> None:
    """``prevs[owner[k]] = vertices[k]`` in entry order: last write wins, as
    the per-entry loop's assignments do (numpy promises no order for
    repeated indices, so repeats resolve to their last entry first)."""
    if owner.size > 1:
        owner, first = np.unique(owner[::-1], return_index=True)
        vertices = vertices[::-1][first]
    prevs[owner] = vertices


class EdgeLog:
    """Every edge the kernel drew, as ``(launch, owner, src, dst)`` chunks.

    One chunk per kernel that drew, its edges in draw order.  ``launch``
    orders the chunks: the depth in the depth loop and on a shard, the
    kernel index in the drain (where one walker's branches can sit in
    different partitions, so launch order, not depth, is draw order).
    ``owner`` is each edge's batch row or, ``by_id`` (shard logs: rows
    migrate), its instance id.  Logs concatenate with ``+``.  Iteration
    counts need no log: with-replacement selections iterate exactly once.
    """

    __slots__ = ("by_id", "chunks")

    def __init__(self, by_id: bool = False):
        self.by_id = by_id
        self.chunks: List[tuple] = []

    def __len__(self) -> int:
        return len(self.chunks)

    def __add__(self, other: "EdgeLog") -> "EdgeLog":
        log = EdgeLog(self.by_id)
        log.chunks = self.chunks + other.chunks
        return log

    def append(self, launch: int, rows: WalkerBatch, owner: np.ndarray,
               src: np.ndarray, dst: np.ndarray) -> None:
        """Log one kernel's draws; ``owner`` are rows of ``rows``."""
        if owner.size:
            self.chunks.append(
                (launch, rows.ids[owner] if self.by_id else owner, src, dst)
            )

    def close(self, batch: InstanceBatch) -> SampleColumns:
        """The edges of ``batch``'s instances: chunks stably sorted by
        launch, then edges stably grouped by owner, so each instance's
        edges keep the order they were drawn in -- the exact order the
        interpreted UPDATE loop records them."""
        chunks = sorted(self.chunks, key=itemgetter(0))
        owner, src, dst = (
            np.concatenate([chunk[k] for chunk in chunks]) if chunks else _EMPTY
            for k in (1, 2, 3)
        )
        if self.by_id:
            owner = id_rows(batch.instance_ids, owner)
        return SampleColumns.from_owner_edges(
            batch.instance_ids, batch.seed_offsets, batch.seeds, owner, src, dst
        )


class CompiledWalkKernel:
    """Plan-specialised fused callable for walk-shaped plans.

    Instantiated per run around a live
    :class:`~repro.engine.step.BatchedStepEngine` (whose RNG and warp
    cursors it shares, so interleaving compiled and interpreted runs on one
    sampler keeps a single warp-id stream).  Its two entry points,
    :meth:`step` and :meth:`expand`, share one SELECT; the caller owns the
    :class:`WalkerBatch` rows, the :class:`EdgeLog` and every loop.
    """

    def __init__(self, engine, *, kind: str, backend: str):
        if kind not in WALK_KINDS:
            raise ValueError(f"unknown compiled bias kind {kind!r}")
        if backend not in ("numpy", "numba"):
            raise ValueError(f"unknown compiled backend {backend!r}")
        num_vertices = int(engine.graph.num_vertices)
        if kind == "node2vec" and num_vertices * num_vertices >= 2**63:
            raise ValueError(
                f"the node2vec walk kernel keys each traversed edge as "
                f"prev * V + vertex in one int64, which needs V**2 < 2**63; "
                f"this graph has V = {num_vertices} -- run it interpreted "
                f"(REPRO_COMPILED=0)"
            )
        self.engine = engine
        self.graph = engine.graph
        self.program = engine.program
        self.config = engine.config
        self.rng = engine.rng
        self.kind = kind
        self.backend = backend
        self._numba_select = self._numba_prefix_search = None
        if backend == "numba":
            from repro.compiled.numba_backend import (
                get_prefix_search,
                get_uniform_select,
            )

            self._numba_select = get_uniform_select()
            if kind != "uniform":
                self._numba_prefix_search = get_prefix_search()
        self._structures = self._n2v_table = None
        if kind != "uniform":
            # Both biased kinds lean on the weight/degree structures: the
            # flat CTPS answers first-order selection, and its positivity
            # counts (bias > 0 iff weight > 0) equal node2vec's, whose
            # positive scale factors never zero a bias.
            self._structures = get_structures(self.graph, "weight_or_degree")
            if kind == "node2vec":
                self._n2v_table = self._structures.node2vec_table(
                    self.program.p, self.program.q
                )

    # ------------------------------------------------------------------ #
    # Entry point 1: one depth of every walker row
    # ------------------------------------------------------------------ #
    def step(
        self,
        rows: WalkerBatch,
        log: EdgeLog,
        depth: int,
        cost: CostModel,
        groups: Optional[np.ndarray] = None,
        cursors: Optional[np.ndarray] = None,
    ) -> Optional[int]:
        """Advance every active row of ``rows`` one depth, as one kernel.

        Rows with an empty pool are finished and draw nothing.  Draws key
        ``(instance, depth, slot + 1, warp, lane)``; warp ids continue the
        engine's counter, or -- with ``groups``, one group index per row --
        row ``r`` draws from ``cursors[groups[r]]``, advanced in place, as
        in :meth:`BatchedStepEngine.step_instances`.  Updates ``prevs`` and
        swaps in the new pools in place, logs the drawn edges under launch
        ``depth`` and charges ``cost``.  Returns the step's warp-task
        count, or ``None`` when no row was active.
        """
        prof = _profiler.clock(depth)
        counts, pool = rows.counts, rows.pool
        act = np.flatnonzero(counts)
        if act.size == 0:
            return None
        if groups is None:
            cursors = self.engine.warp_cursor
        counts_a = counts[act]
        seg_owner = np.repeat(act, counts_a)
        allocated, owner, src, dst = self._select(
            rows, pool, seg_owner,
            np.full(seg_owner.size, depth, dtype=np.int64),
            concat_aranges(counts_a) + 1,
            cost, prof, groups, cursors,
        )
        prof.lap("select")

        # Walk bookkeeping: prev tracks single-vertex frontiers, updated from
        # the *pre-step* pool (biases at depth d + 1 see it).
        single = counts_a == 1
        if np.any(single):
            block_starts = np.zeros(act.size, dtype=np.int64)
            np.cumsum(counts_a[:-1], out=block_starts[1:])
            rows.prevs[act[single]] = pool[block_starts[single]]
        rows.counts = np.bincount(
            seg_owner[allocated], minlength=counts.size
        ) * int(self.config.neighbor_size)
        rows.pool = dst
        log.append(depth, rows, owner, src, dst)
        prof.lap("update")
        return int(allocated.size)

    # ------------------------------------------------------------------ #
    # Entry point 2: one batched kernel over frontier-queue entries
    # ------------------------------------------------------------------ #
    def expand(
        self,
        rows: WalkerBatch,
        log: EdgeLog,
        vertices: np.ndarray,
        instance_ids: np.ndarray,
        depths: np.ndarray,
        cost: CostModel,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One batched kernel over frontier-queue entries, as an array program.

        ``(vertices, instance_ids, depths)`` are the int64 entry arrays the
        scheduler popped (every instance's entries of a resident partition,
        or one instance's when batching is off); each entry's walker is the
        row of ``rows`` with its instance id.  Draws key ``(instance, depth,
        vertex, warp, lane)`` and warp ids continue the engine's counter in
        entry order, exactly as :meth:`BatchedStepEngine.expand_entries`
        keys and allocates them.  Charges ``cost`` with that method's
        counters, logs the drawn edges under the next launch index, updates
        ``prevs`` and returns the successor entries in the order its
        per-entry loop enqueues them.  Which entries form a kernel, what
        the launch costs and where the successors go stay the scheduler's
        business.
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
        owners = id_rows(rows.ids, instance_ids)
        allocated, owner, src, dst = self._select(
            rows, vertices, owners, depths, vertices, cost, prof,
            None, self.engine.warp_cursor,
        )
        prof.lap("select")
        if allocated.size == 0:
            return _EMPTY, _EMPTY, _EMPTY
        log.append(len(log), rows, owner, src, dst)
        set_prevs(rows.prevs, owners[allocated], vertices[allocated])
        succ_ids = instance_ids[allocated]
        succ_depths = depths[allocated] + 1
        ns = int(cfg.neighbor_size)
        keep = succ_depths < cfg.depth
        if not keep.all():
            dst = dst[_per_draw(keep, ns)]
            succ_ids, succ_depths = succ_ids[keep], succ_depths[keep]
        prof.lap("update")
        return dst, _per_draw(succ_ids, ns), _per_draw(succ_depths, ns)

    # ------------------------------------------------------------------ #
    # GATHER + SELECT of one kernel (both entry points)
    # ------------------------------------------------------------------ #
    def _select(
        self, rows, seg_vertices, seg_owner, depths, third, cost, prof,
        groups, cursors,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Sample ``neighbor_size`` neighbors of every segment of one kernel.

        Segment ``k`` expands ``seg_vertices[k]`` for walker row
        ``seg_owner[k]`` (of ``rows.ids`` / ``rows.prevs``) and keys
        its draws ``(instance, depths[k], third[k], warp, lane)``.  Charges
        ``cost`` for the gather and the selection and returns ``(allocated,
        owner, src, dst)``: the indices of the segments that drew (non-empty
        pool, some positive bias) and the sampled edges, segment by segment
        -- each draw's walker row, source and destination.
        """
        graph = self.graph
        ns = int(self.config.neighbor_size)
        K = int(seg_vertices.size)
        lengths = graph.degrees[seg_vertices]
        # GATHER: the row-descriptor + edge-stream traffic of the full pool
        # gather, charged whether or not the neighbors materialise.
        cost.charge_global_bytes(16 * int(lengths.sum()) + 16 * K)
        starts = graph.row_ptr[seg_vertices]
        # The pools never materialise.  Uniform pools draw wherever they are
        # non-empty; the biased kinds' positivity is the cached structure's
        # (the graph constructor validated the weights -- finite and
        # non-negative -- and node2vec's scale factors are positive, which
        # is what the per-step validation checks).
        positive = (
            lengths if self._structures is None
            else self._structures.positive_counts[seg_vertices]
        )
        prof.lap("gather")

        alloc = (lengths > 0) & (positive > 0)
        allocated = np.nonzero(alloc)[0]
        tasks = int(allocated.size)
        if tasks == 0:
            return allocated, _EMPTY, _EMPTY, _EMPTY
        # Every segment drawing is the common case: index nothing then.
        take = (lambda a: a) if tasks == K else (lambda a: a[allocated])
        len_a, owners_a, verts_a, starts_a, depths_a, third_a = map(
            take, (lengths, seg_owner, seg_vertices, starts, depths, third)
        )
        # Per-segment RNG coordinates; the lane is appended per draw.
        coords = (
            rows.ids[owners_a], depths_a, third_a,
            # Sequential in segment order within each member's cursor (the
            # engine's own when ungrouped): the engine's allocation order.
            alloc_warp_ids(
                cursors, tasks, None if groups is None else groups[owners_a]
            ),
        )
        if self.kind == "uniform":
            idx = self._uniform_select(len_a, coords, cost)
        else:
            if self.kind == "weight_or_degree":
                ctps = self._structures.ctps
                prefix, base, totals = ctps.prefix, starts_a, ctps.totals[verts_a]
            else:
                prefix, base, totals = self._node2vec_rows(
                    verts_a, len_a, rows.prevs[owners_a], prof
                )
            idx = self._rows_select(prefix, base, len_a, totals, coords, cost)
        dst = graph.col_idx[_per_draw(starts_a, ns) + idx]
        cost.sampled_edges += tasks * ns
        return allocated, _per_draw(owners_a, ns), _per_draw(verts_a, ns), dst

    # ------------------------------------------------------------------ #
    # SELECT: closed-form uniform, or cached prefix rows
    # ------------------------------------------------------------------ #
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

    def _uniform_select(self, len_a, coords, cost) -> np.ndarray:
        """Closed-form SELECT for all-ones biases (one draw block per kernel).

        Charges the exact counters the interpreted path accumulates while
        building and searching the ones-CTPS, then draws and searches
        directly.
        """
        ns = int(self.config.neighbor_size)
        charge_its_select(len_a, ns, cost)
        draw_coords = self._draw_coords(coords)
        n_draw = _per_draw(len_a, ns)
        if self._numba_select is not None:
            return self._numba_select(*self._numba_args(draw_coords), n_draw)
        rs = np.atleast_1d(self.rng.uniform(*draw_coords))
        return uniform_local_search(rs, n_draw)

    def _rows_select(self, prefix, base, lengths, totals, coords, cost) -> np.ndarray:
        """SELECT from cached unnormalised prefix rows (both biased kinds).

        Segment ``k`` searches ``prefix[base[k] : base[k] + lengths[k]]``
        (total ``totals[k]``).  The interpreted path re-scans every
        allocated pool into a fresh :class:`SegmentedCTPS` each kernel;
        here the cached rows answer the same binary searches, so the kernel
        only applies the *charges* of that SELECT (identical closed forms)
        and searches the rows with the same draws -- bit-identical indices
        at O(draws) work per kernel.
        """
        ns = int(self.config.neighbor_size)
        charge_its_select(lengths, ns, cost)
        draw_coords = self._draw_coords(coords)
        base, n_draw, totals = (_per_draw(a, ns) for a in (base, lengths, totals))
        if self._numba_prefix_search is not None:
            return self._numba_prefix_search(
                *self._numba_args(draw_coords), base, n_draw, prefix, totals
            )
        rs = np.atleast_1d(self.rng.uniform(*draw_coords))
        return prefix_local_search(prefix, base, n_draw, totals, rs)

    def _node2vec_rows(self, verts, lengths, prevs, prof):
        """``(buffer, offsets, totals)`` of each segment's node2vec row.

        A transition's bias vector depends only on the traversed edge
        ``prev -> vertex`` (and ``(p, q)``), so each row's prefix is built
        at most once -- :func:`kind_biases` and the segmented scan the
        interpreted path runs over the same pool -- and cached in the
        per-graph :class:`Node2VecPrefixTable`.  Hits cost a dict lookup;
        only misses materialise their pools.  ``prevs`` is each segment's
        walker's ``prev`` vertex (-1 at a seed).

        A reset is decided before any hit is served: when this kernel's
        missing rows would take the table past ``max_floats``, the table is
        cleared and every row of the kernel rebuilt, so no offset resolved
        here can point at rows the rebuild overwrites.
        """
        table = self._n2v_table
        nv = np.int64(self.graph.num_vertices)
        keys = np.where(prevs >= 0, prevs * nv + verts, -(verts + np.int64(1)))
        num = int(verts.size)
        row_off = np.empty(num, dtype=np.int64)
        row_tot = np.empty(num, dtype=np.float64)
        lookup = table.table.get
        miss: List[int] = []
        for i, key in enumerate(keys.tolist()):
            entry = lookup(key)
            if entry is None:
                miss.append(i)
            else:
                row_off[i], row_tot[i] = entry
        m = np.asarray(miss, dtype=np.int64)
        if m.size and table.used + int(lengths[m].sum()) > table.max_floats:
            table.clear()
            m = np.arange(num, dtype=np.int64)
        table.hits += num - int(m.size)
        table.misses += int(m.size)
        prof.lap("structure_hit")
        if m.size:
            graph = self.graph
            ml = lengths[m]
            offsets = np.zeros(m.size + 1, dtype=np.int64)
            np.cumsum(ml, out=offsets[1:])
            flat = np.repeat(graph.row_ptr[verts[m]], ml) + concat_aranges(ml)
            bias = kind_biases(
                "node2vec", graph, self.program, graph.col_idx[flat],
                None if graph.weights is None else graph.weights[flat],
                offsets, prevs[m],
            )
            prefix = segmented_kogge_stone_inclusive(bias, offsets)
            row_tot[m] = totals = prefix[offsets[1:] - 1]
            row_off[m] = table.append(prefix, offsets, keys[m], totals)
            prof.lap("bias_build")
        return table.buffer, row_off, row_tot
