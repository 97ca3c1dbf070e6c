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

Three drivers share one SELECT over that state: the depth loop (in-memory
and coalesced routes: one kernel per depth over every walker's frontier),
the partition drain (out-of-memory route: one kernel per group of
frontier-queue entries of a resident partition, Section V-C's batched
multi-instance kernel) and the shard epoch (sharded route: one kernel per
shard per depth over the walkers resident on that shard, each drawing from
the private warp cursor that migrates with it).  The depth loop and the
shard epoch run one per-depth body over walker rows; the shard's rows
arrive and leave as column batches, never as per-walker objects.

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
(``(instance, depth, slot, warp, lane)`` in the depth loop and the shard
epoch, ``(instance, depth, vertex, warp, lane)`` in the drain), advances the
engine's (or each walker's) warp cursors in the same order, and charges
every cost-model counter exactly as the interpreted path charges it (the
uniform specialisation charges the closed forms of the
scan/normalise/search work it skipped).  Samples, iteration counts,
per-kernel cost records and warp-task counts are all identical; the
``compiled``, (for the drain) ``preset``/``shape`` and (for the shard
epoch) ``shards``/``transport`` cells of
``tests/integration/test_bitcompat_matrix.py`` and
``tests/compiled/test_walk_kernel.py`` hold it to that.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

import numpy as np

from repro.api.instance import InstanceBatch
from repro.api.results import SampleColumns
from repro.compiled.compiler import WALK_KINDS
from repro.compiled.step_engine import kind_biases
from repro.compiled.structures import get_structures
from repro.engine.step import alloc_warp_ids
from repro.gpusim.costmodel import CostModel
from repro.gpusim.kernel import KernelLaunch
from repro.selection.segmented import (
    charge_its_select,
    concat_aranges,
    prefix_local_search,
    segmented_kogge_stone_inclusive,
)
from repro.telemetry import profiler as _profiler
from repro.telemetry import trace as _trace

__all__ = ["CompiledWalkKernel", "uniform_local_search"]

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


def _per_draw(values: np.ndarray, ns: int) -> np.ndarray:
    """Per-segment values repeated once per lane (``ns`` draws a segment)."""
    return values if ns == 1 else np.repeat(values, ns)


class _WalkerColumns:
    """Run-level walker state as columns, shared by the depth loop and the
    drain.

    One row per instance of the batch: the ``prev`` vertex node2vec's bias
    reads, the segmented frontier pool the depth loop advances (``counts``
    plus the row-major flat ``pool``, seeded from the batch), and an
    append-only ``(owner rank, src, dst)`` edge log that one stable sort by
    owner closes into :class:`SampleColumns`.  Iteration counts need no
    column of their own: with-replacement selections iterate exactly once,
    so an instance's total is its edge count.
    """

    __slots__ = ("batch", "ids", "prevs", "counts", "pool", "_owner", "_src",
                 "_dst", "_id_order", "_sorted_ids")

    def __init__(self, batch: InstanceBatch):
        self.batch = batch
        self.ids = ids = batch.instance_ids
        self.prevs = np.full(ids.size, -1, dtype=np.int64)
        self.counts = np.diff(batch.seed_offsets)
        self.pool = batch.seeds
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
    sampler keeps a single warp-id stream).  Three drivers share one SELECT;
    the depth loop and the shard epoch also share one per-depth body
    (:meth:`_advance`):

    * :meth:`run` -- the depth loop: replaces the executor's
      ``_depth_loop`` wholesale (in-memory and coalesced routes);
    * :meth:`begin` / :meth:`expand` / :meth:`finish` -- the drain: the
      Section V-C batched kernel over frontier-queue entries, called once
      per kernel by the out-of-memory scheduler where it would call
      ``engine.expand_entries``;
    * :meth:`epoch` -- the shard epoch: one kernel per shard per depth over
      the shard's resident walker rows, called by
      :class:`~repro.distributed.shard.ShardRuntime` (sharded route).
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
        self._walkers: Optional[_WalkerColumns] = None
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
        kernels: List[KernelLaunch] = []
        total = CostModel()
        walkers = _WalkerColumns(batch)

        # Members draw from their own cursors; an ungrouped run continues
        # the engine's sequence (so interpreted and compiled runs of one
        # sampler draw from one continuous warp-id stream).
        cursors = (
            self.engine.warp_cursor if groups is None
            else np.zeros(num_groups, dtype=np.int64)
        )

        for depth in range(self.config.depth):
            if not walkers.counts.any():
                break
            prof = _profiler.clock(depth)
            step_cost = CostModel()
            tasks, owner, src, dst = self._advance(
                walkers, depth, step_cost, prof, groups, cursors
            )
            walkers.log_edges(owner, src, dst)
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

    def _advance(self, walkers, depth: int, cost: CostModel, prof, groups, cursors):
        """One depth step of every walker row: the body of the depth loop
        and of the shard epoch.

        ``walkers`` holds one row per walker: ``ids``, ``prevs`` and the
        segmented frontier pool (``counts`` plus the row-major flat
        ``pool``); rows with an empty pool are finished and draw nothing.
        Draws key ``(instance, depth, slot + 1, warp, lane)``, warp ids come
        from ``cursors`` (per row group when ``groups`` is given).  Runs
        SELECT, then updates ``prevs`` and swaps in the new pools, in place.
        Returns ``(tasks, owner rows, src, dst)``: the step's warp tasks and
        its drawn edges in draw order.
        """
        counts, pool = walkers.counts, walkers.pool
        act = np.flatnonzero(counts)
        counts_a = counts[act]
        seg_owner = np.repeat(act, counts_a)
        allocated, owner, src, dst = self._select(
            walkers, pool, seg_owner,
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
            walkers.prevs[act[single]] = pool[block_starts[single]]
        walkers.counts = np.bincount(
            seg_owner[allocated], minlength=counts.size
        ) * int(self.config.neighbor_size)
        walkers.pool = dst
        return int(allocated.size), owner, src, dst

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
        allocated, owner, src, dst = self._select(
            walkers, vertices, owners, depths, vertices, cost, prof,
            None, self.engine.warp_cursor,
        )
        prof.lap("select")
        if allocated.size == 0:
            return _EMPTY, _EMPTY, _EMPTY
        walkers.log_edges(owner, src, dst)
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
    # Driver 3: the shard epoch (sharded route)
    # ------------------------------------------------------------------ #
    def epoch(self, rows, depth: int, cost: CostModel):
        """One depth step of a shard's resident walkers, as one kernel.

        ``rows`` are the shard's walker columns
        (:class:`~repro.distributed.router.WalkerBatch`: ``ids``,
        ``prevs``, the pool ``counts`` + ``pool`` and one warp ``cursors``
        entry per row), advanced in place.  Every row is its own warp group
        drawing from its own cursor -- the private stream that migrates with
        the walker -- so draws key ``(instance, depth, slot + 1, warp,
        lane)`` exactly as a standalone run of that walker keys them,
        whichever shard runs the step and whatever shares its batch.
        Charges ``cost`` and returns ``(tasks, instance ids, src, dst)``:
        the kernel's warp tasks and its drawn edges in draw order.
        """
        prof = _profiler.clock(depth)
        tasks, owner, src, dst = self._advance(
            rows, depth, cost, prof,
            np.arange(len(rows), dtype=np.int64), rows.cursors,
        )
        ids = rows.ids[owner]
        prof.lap("update")
        return tasks, ids, src, dst

    # ------------------------------------------------------------------ #
    # GATHER + SELECT of one kernel (every driver)
    # ------------------------------------------------------------------ #
    def _select(
        self, walkers, seg_vertices, seg_owner, depths, third, cost, prof,
        groups, cursors,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Sample ``neighbor_size`` neighbors of every segment of one kernel.

        Segment ``k`` expands ``seg_vertices[k]`` for walker row
        ``seg_owner[k]`` (of ``walkers.ids`` / ``walkers.prevs``) and keys
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
            walkers.ids[owners_a], depths_a, third_a,
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
                    verts_a, len_a, walkers.prevs[owners_a], prof
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
