"""The batched MAIN-loop step: one depth iteration as a flat array program.

:class:`BatchedStepEngine` executes line 4-8 of Fig. 2(b) for *all* active
instances at once:

1. frontier selection per instance (line 4) -- only runs when an instance's
   pool exceeds ``FrontierSize``, exactly as in the scalar path;
2. one batched CSR gather of every selected frontier vertex's neighbor pool
   (line 5, :func:`repro.engine.gather.batch_gather_neighbors`);
3. one batched bias evaluation (``edge_bias_batch`` when the program provides
   it, the scalar hook looped in call order otherwise);
4. one segmented SELECT over every allocated warp task (line 6,
   :func:`repro.selection.segmented.segmented_warp_select`);
5. per-instance UPDATE / frontier-pool insertion (lines 7-8).

The engine is shared by the in-memory sampler (:meth:`step_instances`) and
the out-of-memory scheduler's batched-kernel path (:meth:`expand_entries`):
both run their per-vertex pools through :meth:`_allocate` (bias, counts,
warp ids) and :meth:`_sample_segments` (SELECT, then UPDATE segment by
segment), so the gather/select/update sequence exists once.

**One class, two sets of hook sites.**  The four places a step consults the
program -- edge bias, neighbor count, update, frontier vertex bias -- are
bound once, at construction: to the hook-dispatching implementations below,
or, when the owner hands the engine a declared bias ``kind`` (the
``StepResolution.kind`` of :func:`~repro.compiled.compiler.resolve_step`,
which the owner already holds), to the program's *declared* shapes
(:func:`repro.compiled.step_engine.declared_sites`).  :attr:`kind` names
that kind (``None`` = interpreted).

**Bit-compatibility.**  For a fixed seed the engine reproduces the scalar
loop exactly: warp ids are assigned in the same (instance, frontier-slot)
order -- including the interleaving with frontier-selection warps, which
forces a short per-instance pass whenever line 4 actually selects -- RNG
draws use the same ``(instance, depth, slot, warp, lane, attempt)`` keys, and
every cost-model counter is charged per segment as the scalar call would
charge it.  User hooks are invoked in phases (all biases, then the SELECT,
then all accept/update calls) but *within* each phase in scalar call order;
programs whose hooks share mutable state **across** different hook kinds are
the one case where the engine can diverge (see ``docs/engine.md``).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.api.bias import FrontierPoolView, SamplingProgram, SegmentedEdgePool
from repro.api.config import PoolPolicy, SamplingConfig, SelectionScope
from repro.api.instance import InstanceState
from repro.api.select import warp_select
from repro.compiled.step_engine import declared_sites
from repro.engine.gather import batch_gather_neighbors
from repro.gpusim.costmodel import CostModel
from repro.gpusim.prng import CounterRNG
from repro.gpusim.warp import WarpExecutor
from repro.graph.csr import CSRGraph
from repro.telemetry import profiler as _profiler
from repro.selection.segmented import (
    concat_aranges,
    segment_positive_counts,
    segmented_warp_select,
    take_segments,
)

__all__ = ["BatchedStepEngine", "alloc_warp_ids", "validate_biases"]

_EMPTY = np.empty(0, dtype=np.int64)


def alloc_warp_ids(cursors: np.ndarray, num: int, groups=None) -> np.ndarray:
    """The next ``num`` warp ids, advancing the caller-owned ``cursors`` in place.

    The one allocator behind every warp id the engine and the fused walk
    kernel hand out.  ``groups`` names the cursor each id comes from: ``None``
    (ungrouped run: ``cursors`` is the engine's one-element
    :attr:`~BatchedStepEngine.warp_cursor`), one group index for all of them
    (a per-instance block, a frontier-selection warp) or one index per id (a
    step-wide block).  Each group's ids are sequential in segment order, as
    if the groups had been walked one at a time -- the scalar loop's order.
    """
    if groups is None or not np.ndim(groups):
        group = 0 if groups is None else groups
        start = int(cursors[group])
        cursors[group] = start + num
        return start + np.arange(num, dtype=np.int64)
    # One grouped running count (stable sort by group, position minus run
    # start), so a batch of single-walker groups costs one sort, not one pass
    # each.
    order = np.argsort(groups, kind="stable")
    by_group = groups[order]
    is_start = np.ones(num, dtype=bool)
    is_start[1:] = by_group[1:] != by_group[:-1]
    run_starts = np.flatnonzero(is_start)
    run_lengths = np.diff(np.append(run_starts, num))
    ids = np.empty(num, dtype=np.int64)
    ids[order] = cursors[by_group] + (
        np.arange(num, dtype=np.int64) - np.repeat(run_starts, run_lengths)
    )
    cursors[by_group[run_starts]] += run_lengths
    return ids


def _sized_biases(biases, expected: int, label: str) -> np.ndarray:
    """A hook's bias array as flat float64, one bias per candidate."""
    biases = np.asarray(biases, dtype=np.float64).reshape(-1)
    if biases.size != expected:
        raise ValueError(
            f"{label} must return one bias per candidate "
            f"(expected {expected}, got {biases.size})"
        )
    return biases


def _check_bias_values(biases: np.ndarray, label: str) -> None:
    if np.any(biases < 0) or not np.all(np.isfinite(biases)):
        raise ValueError(f"{label} must return finite, non-negative biases")


def validate_biases(biases: np.ndarray, expected: int, label: str) -> np.ndarray:
    """Validate a user bias array (shared by the oracle and the engine)."""
    biases = _sized_biases(biases, expected, label)
    _check_bias_values(biases, label)
    return biases


class _Allocation(NamedTuple):
    """Per-segment outcome of :meth:`BatchedStepEngine._allocate`."""

    biases: np.ndarray  # per candidate, segment-major
    positive: np.ndarray  # positive-bias candidates per segment
    counts: np.ndarray  # selections to draw (0 where no warp was allocated)
    alloc: np.ndarray  # whether the segment got a warp
    warp_ids: np.ndarray  # its warp id (-1 elsewhere)


class BatchedStepEngine:
    """Vectorised executor for one MAIN-loop depth step (Fig. 2(b)).

    ``kind`` is the declared bias kind of the step resolution the owner
    holds (it decides the hook sites, see the module docstring); without
    one the sites dispatch hooks.
    """

    def __init__(
        self,
        graph: CSRGraph,
        program: SamplingProgram,
        config: SamplingConfig,
        rng: CounterRNG,
        kind: Optional[str] = None,
    ):
        self.graph = graph
        self.program = program
        self.config = config
        self.rng = rng
        #: Next warp id of ungrouped runs, advanced in the scalar path's
        #: allocation order (one element, so the allocator can advance it in
        #: place like any caller-owned group cursor).
        self.warp_cursor = np.zeros(1, dtype=np.int64)
        cls = type(program)
        self._edge_bias_overridden = cls.edge_bias is not SamplingProgram.edge_bias
        self._edge_bias_batched = (
            cls.edge_bias_batch is not SamplingProgram.edge_bias_batch
        )
        self._accept_default = cls.accept is SamplingProgram.accept
        self._update_default = cls.update is SamplingProgram.update
        self._neighbor_count_default = (
            cls.neighbor_count is SamplingProgram.neighbor_count
        )
        #: The declared bias kind the sites are specialised to (``None`` =
        #: interpreted: every site dispatches the program's hooks).
        self.kind = kind
        sites = (
            declared_sites(graph, program, config, kind)
            if kind is not None
            else {}
        )
        self._edge_biases = sites.get("edge_biases", self._hook_edge_biases)
        self._neighbor_counts = sites.get(
            "neighbor_counts", self._hook_neighbor_counts
        )
        self._update_vertices = sites.get(
            "update_vertices", self._hook_update_vertices
        )
        self._frontier_biases = sites.get(
            "frontier_biases", self._hook_frontier_biases
        )

    @property
    def warp_counter(self) -> int:
        """Next warp id of the engine's own (ungrouped) sequence."""
        return int(self.warp_cursor[0])

    # ================================================================== #
    # In-memory sampler entry point
    # ================================================================== #
    def step_instances(
        self,
        instances: Sequence[InstanceState],
        depth: int,
        cost: CostModel,
        iterations: list,
        groups: Optional[np.ndarray] = None,
        cursors: Optional[np.ndarray] = None,
    ) -> Optional[int]:
        """Advance every active instance by one MAIN-loop iteration.

        Returns the step's warp-task count, or ``None`` when no instance was
        active (the caller then stops without launching a kernel, exactly as
        the scalar loop does).

        **Warp groups** (coalesced members, sharded walkers) are named by
        position: ``groups[i]`` is the group of ``instances[i]``.  Group ``g``
        draws its warp ids from ``cursors[g]`` -- a caller-owned int64 array
        advanced in place, in the allocation order a standalone run over just
        that group would use, so the RNG streams (which mix the warp id) are
        unchanged by what else shares the batch or where earlier steps ran --
        and its per-selection iteration counts land in ``iterations[g]``.
        Without groups the ids continue the engine's own
        :attr:`warp_cursor` and ``iterations`` is one flat list.
        """
        active: List[InstanceState] = []
        positions: List[int] = []
        for position, inst in enumerate(instances):
            if inst.finished or inst.pool_size == 0:
                inst.finished = True
                continue
            active.append(inst)
            positions.append(position)
        if not active:
            return None
        if groups is None:
            cursors = self.warp_cursor
        else:
            groups = np.asarray(groups, dtype=np.int64)[positions]
        per_layer = self.config.scope is SelectionScope.PER_LAYER
        step = self._step_per_layer if per_layer else self._step_per_vertex
        return step(active, depth, cost, iterations, groups, cursors)

    # ------------------------------------------------------------------ #
    def _step_per_vertex(
        self,
        active: List[InstanceState],
        depth: int,
        cost: CostModel,
        iterations: list,
        groups: Optional[np.ndarray],
        cursors: np.ndarray,
    ) -> int:
        cfg = self.config
        tasks = 0
        prof = _profiler.clock(depth)
        # Frontier selection allocates a warp *between* the previous and next
        # instance's per-vertex warps, so when any instance actually selects
        # this step the preparation must walk instances in order; otherwise
        # the whole step's frontier is known upfront and one global batch
        # suffices.
        needs_select = cfg.frontier_size > 0 and any(
            inst.pool_size > cfg.frontier_size for inst in active
        )
        #: (rank in ``active``, frontier, its positions in the pool)
        stepped: List[Tuple[int, np.ndarray, np.ndarray]] = []

        if not needs_select:
            frontier_sizes = np.asarray(
                [inst.pool_size for inst in active], dtype=np.int64
            )
            stepped = [
                (rank, inst.frontier_pool, np.arange(inst.pool_size, dtype=np.int64))
                for rank, inst in enumerate(active)
            ]
            seg_vertices = np.concatenate([inst.frontier_pool for inst in active])
            seg_slots = concat_aranges(frontier_sizes)
            seg_rank = np.repeat(
                np.arange(len(active), dtype=np.int64), frontier_sizes
            )
            seg_instances = [active[r] for r in seg_rank]
            pool = batch_gather_neighbors(self.graph, seg_vertices, seg_instances, cost)
            prof.lap("gather")
            allocation, _ = self._allocate(
                pool, None if groups is None else groups[seg_rank], cursors
            )
            prof.lap("bias")
        else:
            parts: List[SegmentedEdgePool] = []
            allocations: List[_Allocation] = []
            vertex_biases = self._vertex_biases(active)
            prof.lap("bias")
            for rank, inst in enumerate(active):
                group = None if groups is None else groups[rank]
                frontier, positions, tasks_inc = self._frontier_select(
                    inst, depth, cost, vertex_biases[rank], group, cursors
                )
                prof.lap("select")
                tasks += tasks_inc
                if frontier.size == 0:
                    inst.finished = True
                    continue
                stepped.append((rank, frontier, positions))
                part = batch_gather_neighbors(
                    self.graph, frontier, [inst] * int(frontier.size), cost
                )
                prof.lap("gather")
                allocations.append(self._allocate(part, group, cursors)[0])
                parts.append(part)
                prof.lap("bias")
            if not stepped:
                return tasks
            pool = _concat_pools(parts, self.graph)
            frontier_sizes = np.asarray(
                [frontier.size for _, frontier, _ in stepped], dtype=np.int64
            )
            seg_slots = concat_aranges(frontier_sizes)
            seg_rank = np.repeat(
                np.asarray([rank for rank, _, _ in stepped], dtype=np.int64),
                frontier_sizes,
            )
            allocation = _Allocation(*map(np.concatenate, zip(*allocations)))
            prof.lap("gather")

        tasks += int(np.count_nonzero(allocation.alloc))
        instance_ids = np.asarray(
            [inst.instance_id for inst in active], dtype=np.int64
        )
        inserted: List[List[np.ndarray]] = [[] for _ in active]
        for k, new_vertices in self._sample_segments(
            pool,
            allocation,
            # Draws key (instance, depth, slot + 1, warp, lane).
            (instance_ids[seg_rank],
             np.full(seg_rank.size, depth, dtype=np.int64),
             seg_slots + 1),
            cost,
            prof,
            iterations,
            None if groups is None else groups[seg_rank],
            validate=False,  # validated by _allocate above
        ):
            if new_vertices.size:
                inserted[seg_rank[k]].append(new_vertices)

        for rank, frontier, positions in stepped:
            self._finish_instance(
                active[rank], frontier, positions, inserted[rank], depth
            )
        prof.lap("update")
        return tasks

    # ------------------------------------------------------------------ #
    def _step_per_layer(
        self,
        active: List[InstanceState],
        depth: int,
        cost: CostModel,
        iterations: list,
        groups: Optional[np.ndarray],
        cursors: np.ndarray,
    ) -> int:
        cfg = self.config
        tasks = 0
        prof = _profiler.clock(depth)
        stepped: List[Tuple[int, np.ndarray, np.ndarray]] = []
        #: One layer-wide pool per instance that got a warp:
        #: (rank in ``active``, pool, biases, count, warp id)
        segments: List[Tuple[int, SegmentedEdgePool, np.ndarray, int, int]] = []
        vertex_biases = self._vertex_biases(active)
        prof.lap("bias")
        for rank, inst in enumerate(active):
            group = None if groups is None else groups[rank]
            frontier, positions, tasks_inc = self._frontier_select(
                inst, depth, cost, vertex_biases[rank], group, cursors
            )
            prof.lap("select")
            tasks += tasks_inc
            if frontier.size == 0:
                inst.finished = True
                continue
            stepped.append((rank, frontier, positions))
            part = batch_gather_neighbors(
                self.graph, frontier, [inst] * int(frontier.size), cost
            )
            prof.lap("gather")
            biases, uniform = self._edge_biases(part, validate_values=True)
            positive = part.size if uniform else int(np.count_nonzero(biases > 0))
            if part.size == 0 or positive == 0:
                prof.lap("bias")
                continue
            count = (
                cfg.neighbor_size
                if cfg.with_replacement
                else min(cfg.neighbor_size, positive)
            )
            warp_id = int(alloc_warp_ids(cursors, 1, group)[0])
            tasks += 1
            segments.append((rank, part, biases, count, warp_id))
            prof.lap("bias")

        if segments:
            ranks, parts, bias_parts, counts, warp_ids = zip(*segments)
            flat_biases = np.concatenate(bias_parts)
            offsets = np.zeros(len(segments) + 1, dtype=np.int64)
            np.cumsum([part.size for part in parts], out=offsets[1:])
            counts = np.asarray(counts, dtype=np.int64)
            inst_ids = np.asarray(
                [active[rank].instance_id for rank in ranks], dtype=np.int64
            )
            selection = segmented_warp_select(
                flat_biases,
                offsets,
                counts,
                self.rng,
                [inst_ids,
                 np.full(counts.size, depth, dtype=np.int64),
                 np.ones(counts.size, dtype=np.int64),
                 np.asarray(warp_ids, dtype=np.int64)],
                with_replacement=cfg.with_replacement,
                strategy=cfg.strategy,
                detector=cfg.detector,
                cost=cost,
                validate=False,  # validated by _edge_biases above
            )
        prof.lap("select")
        inserted: List[List[np.ndarray]] = [[] for _ in active]
        for j, (rank, part, _, _, _) in enumerate(segments):
            idx, iters = selection.segment(j)
            inst = active[rank]
            sink = iterations if groups is None else iterations[groups[rank]]
            sink.extend(iters.tolist())
            all_src = np.repeat(part.src, part.lengths())
            chosen_src = all_src[idx]
            chosen_dst = part.neighbors[idx]
            inst.record_edges(chosen_src, chosen_dst)
            cost.sampled_edges += int(chosen_dst.size)
            # UPDATE per source vertex with the subset it contributed, in
            # gather order; empty pools never reach the hook.
            lengths = part.lengths()
            for k in range(part.num_segments):
                if lengths[k] == 0:
                    continue
                mask = chosen_src == part.src[k]
                if not mask.any():
                    continue
                new_vertices = self._update_vertices(
                    part, k, None, chosen_dst[mask]
                )
                if new_vertices.size:
                    inserted[rank].append(new_vertices)
            if cfg.track_visited:
                inst.mark_visited(chosen_dst)

        for rank, frontier, positions in stepped:
            self._finish_instance(
                active[rank], frontier, positions, inserted[rank], depth
            )
        prof.lap("update")
        return tasks

    # ================================================================== #
    # Out-of-memory scheduler entry point
    # ================================================================== #
    def expand_entries(
        self,
        vertices: np.ndarray,
        instance_ids: np.ndarray,
        depths: np.ndarray,
        instance_map: Dict[int, InstanceState],
        cost: CostModel,
        iteration_counts: List[int],
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Expand one batched group of frontier-queue entries (Section V-C).

        Returns ``(vertices, instance_ids, depths)`` of the successor entries
        in the exact order the scalar per-entry loop would have enqueued
        them; the caller routes them to the owning partitions' queues.
        """
        cfg = self.config
        vertices = np.asarray(vertices, dtype=np.int64)
        instance_ids = np.asarray(instance_ids, dtype=np.int64)
        depths = np.asarray(depths, dtype=np.int64)
        live = depths < cfg.depth
        vertices, instance_ids, depths = (
            vertices[live], instance_ids[live], depths[live]
        )
        if vertices.size == 0:
            return _EMPTY, _EMPTY, _EMPTY
        # Entries in one batched group can sit at different depths, so the
        # profile attributes the whole expansion to the undepthed bucket.
        prof = _profiler.clock(-1)
        seg_instances = [instance_map[int(i)] for i in instance_ids]
        pool = batch_gather_neighbors(self.graph, vertices, seg_instances, cost)
        prof.lap("gather")
        allocation, uniform = self._allocate(
            pool, None, self.warp_cursor, drain=True
        )
        prof.lap("bias")

        succ_v: List[np.ndarray] = []
        succ_i: List[int] = []
        succ_d: List[int] = []
        for k, new_vertices in self._sample_segments(
            pool,
            allocation,
            # Draws key (instance, depth, vertex, warp, lane).
            (instance_ids, depths, vertices),
            cost,
            prof,
            iteration_counts,
            None,
            # OOM edge biases are only size-checked (like the scalar OOM
            # kernel); non-uniform values still get the CTPS validation.
            validate=not uniform,
        ):
            pool.instances[k].prev_vertex = int(pool.src[k])
            next_depth = int(depths[k]) + 1
            if next_depth >= cfg.depth or new_vertices.size == 0:
                continue
            succ_v.append(new_vertices)
            succ_i.append(int(instance_ids[k]))
            succ_d.append(next_depth)
        prof.lap("update")
        if not succ_v:
            return _EMPTY, _EMPTY, _EMPTY
        sizes = np.asarray([v.size for v in succ_v], dtype=np.int64)
        return (
            np.concatenate(succ_v),
            np.repeat(np.asarray(succ_i, dtype=np.int64), sizes),
            np.repeat(np.asarray(succ_d, dtype=np.int64), sizes),
        )

    # ================================================================== #
    # The per-vertex bias -> SELECT -> UPDATE sequence (both entry points)
    # ================================================================== #
    def _allocate(
        self,
        pool: SegmentedEdgePool,
        groups,
        cursors: np.ndarray,
        *,
        drain: bool = False,
    ) -> Tuple[_Allocation, bool]:
        """Biases, selection counts and warp ids of every segment of ``pool``.

        ``groups`` / ``cursors`` are :func:`alloc_warp_ids`'s.  ``drain``
        marks the out-of-memory kernel's two deviations from the in-memory
        step: edge biases are only size-checked here (the SELECT validates
        non-uniform values), and NeighborSize is consulted only after the
        positive-bias check, so the hook is skipped for all-zero pools.
        Returns the allocation plus the all-ones-bias flag.
        """
        cfg = self.config
        lengths = pool.lengths()
        biases, uniform = self._edge_biases(pool, validate_values=not drain)
        positive = lengths if uniform else segment_positive_counts(biases, pool.offsets)
        nonempty = lengths > 0
        requested = self._neighbor_counts(
            pool, lengths, nonempty & (positive > 0) if drain else nonempty
        )
        alloc = nonempty & (requested > 0) & (positive > 0)
        counts = np.where(
            alloc,
            requested if cfg.with_replacement else np.minimum(requested, positive),
            0,
        )
        # Ids are sequential in segment order within each owning group (the
        # engine's single sequence when ungrouped) -- the scalar loop's order.
        warp_ids = np.full(alloc.size, -1, dtype=np.int64)
        warp_ids[alloc] = alloc_warp_ids(
            cursors,
            int(np.count_nonzero(alloc)),
            groups[alloc] if np.ndim(groups) else groups,
        )
        return _Allocation(biases, positive, counts, alloc, warp_ids), uniform

    def _sample_segments(
        self,
        pool: SegmentedEdgePool,
        allocation: _Allocation,
        coords: Tuple[np.ndarray, np.ndarray, np.ndarray],
        cost: CostModel,
        prof,
        iterations: list,
        groups: Optional[np.ndarray],
        *,
        validate: bool,
    ) -> Iterator[Tuple[int, np.ndarray]]:
        """One segmented SELECT over the allocated segments, then UPDATE.

        ``coords`` are the first three RNG coordinates of every segment (the
        warp id is the fourth); ``groups`` names each segment's list in
        ``iterations`` (``None`` = one flat list).  Yields ``(segment,
        new_vertices)`` per allocated segment in scalar call order, after its
        iteration counts, ACCEPT, edge recording, UPDATE and visited marking
        -- what becomes of the new vertices is the entry point's business.
        """
        cfg = self.config
        allocated = np.nonzero(allocation.alloc)[0]
        if allocated.size:
            if allocated.size == allocation.alloc.size:
                sub_biases, sub_offsets = allocation.biases, pool.offsets
            else:
                sub_biases, sub_offsets = take_segments(
                    allocation.biases, pool.offsets, allocated
                )
            selection = segmented_warp_select(
                sub_biases,
                sub_offsets,
                allocation.counts[allocated],
                self.rng,
                [coord[allocated] for coord in coords]
                + [allocation.warp_ids[allocated]],
                with_replacement=cfg.with_replacement,
                strategy=cfg.strategy,
                detector=cfg.detector,
                cost=cost,
                validate=validate,
                positive_counts=allocation.positive[allocated],
            )
        prof.lap("select")

        # UPDATE phase: per allocated segment in scalar call order.
        for j, k in enumerate(allocated):
            idx, iters = selection.segment(j)
            inst = pool.instances[k]
            sink = iterations if groups is None else iterations[groups[k]]
            # tolist() converts to python ints in one C pass; extending with
            # a genexpr of int(i) calls back into python per element.
            sink.extend(iters.tolist())
            sampled = pool.neighbors[pool.offsets[k] + idx]
            segment = None
            if self._accept_default:
                accepted = sampled
            else:
                segment = pool.segment(k)
                accepted = np.asarray(
                    self.program.accept(segment, sampled), dtype=np.int64
                ).reshape(-1)
            if accepted.size:
                inst.record_edges(int(pool.src[k]), accepted)
                cost.sampled_edges += int(accepted.size)
            new_vertices = self._update_vertices(pool, k, segment, accepted)
            if accepted.size and cfg.track_visited:
                inst.mark_visited(accepted)
            yield k, new_vertices

    # ================================================================== #
    # Frontier selection (line 4)
    # ================================================================== #
    def _vertex_biases(
        self, active: List[InstanceState]
    ) -> List[Optional[np.ndarray]]:
        """VERTEXBIAS of every instance that will select this step, batched.

        Aligned with ``active`` (``None`` where the pool fits the frontier).
        Bias values do not depend on warp ids, so they can be evaluated in
        one pass before the (warp-id ordered) per-instance selection walk.
        """
        frontier_size = self.config.frontier_size
        biases: List[Optional[np.ndarray]] = [None] * len(active)
        selecting = [
            rank for rank, inst in enumerate(active)
            if 0 < frontier_size < inst.pool_size
        ]
        if selecting:
            batch = self._frontier_biases([active[rank] for rank in selecting])
            for rank, vertex_biases in zip(selecting, batch):
                biases[rank] = vertex_biases
        return biases

    def _frontier_select(
        self,
        inst: InstanceState,
        depth: int,
        cost: CostModel,
        biases: Optional[np.ndarray],
        group,
        cursors: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, int]:
        """Line 4: SELECT(VERTEXBIAS(FrontierPool), FrontierSize).

        ``biases`` is the instance's entry of :meth:`_vertex_biases`.
        """
        cfg = self.config
        pool = inst.frontier_pool
        if biases is None:  # the pool fits the frontier: nothing to select
            return pool, np.arange(pool.size, dtype=np.int64), 0
        positive = int(np.count_nonzero(biases > 0))
        count = min(cfg.frontier_size, positive)
        if count == 0:
            return _EMPTY, _EMPTY, 0
        warp = WarpExecutor(
            warp_id=int(alloc_warp_ids(cursors, 1, group)[0]),
            cost=cost,
            rng=self.rng,
        )
        result = warp_select(
            biases,
            count,
            warp,
            inst.instance_id,
            depth,
            0,
            with_replacement=False,
            strategy=cfg.strategy,
            detector=cfg.detector,
        )
        return pool[result.indices], result.indices, 1

    # ================================================================== #
    # Hook-dispatching sites (the interpreted tier)
    # ================================================================== #
    def _hook_frontier_biases(
        self, selecting: List[InstanceState]
    ) -> List[np.ndarray]:
        """One validated ``vertex_bias_batch`` call over the selecting pools."""
        views = [
            FrontierPoolView(
                vertices=inst.frontier_pool,
                degrees=self.graph.degrees[inst.frontier_pool],
                instance=inst,
                graph=self.graph,
            )
            for inst in selecting
        ]
        batch = self.program.vertex_bias_batch(views)
        if len(batch) != len(selecting):
            raise ValueError(
                f"vertex_bias_batch must return one bias array per pool "
                f"(expected {len(selecting)}, got {len(batch)})"
            )
        return [
            validate_biases(b, inst.pool_size, "vertex_bias")
            for inst, b in zip(selecting, batch)
        ]

    def _hook_edge_biases(
        self, pool: SegmentedEdgePool, *, validate_values: bool
    ) -> Tuple[np.ndarray, bool]:
        """EDGEBIAS for a whole batch, preserving scalar hook-call order.

        Returns ``(biases, uniform)``; ``uniform`` marks the all-ones default
        fast path so callers can skip positive-bias counting and revalidation.
        """
        total = pool.size
        if self._edge_bias_batched:
            biases = _sized_biases(
                self.program.edge_bias_batch(pool), total, "edge_bias_batch"
            )
            if validate_values:
                _check_bias_values(biases, "edge_bias")
            return biases, False
        if not self._edge_bias_overridden:
            return np.ones(total, dtype=np.float64), True
        out = np.empty(total, dtype=np.float64)
        lengths = pool.lengths()
        for k in np.nonzero(lengths > 0)[0]:
            part = _sized_biases(
                self.program.edge_bias(pool.segment(int(k))),
                int(lengths[k]), "edge_bias",
            )
            if validate_values:
                _check_bias_values(part, "edge_bias")
            out[pool.offsets[k] : pool.offsets[k + 1]] = part
        return out, False

    def _hook_update_vertices(
        self,
        pool: SegmentedEdgePool,
        k: int,
        segment,
        accepted: np.ndarray,
    ) -> np.ndarray:
        """UPDATE for one segment (lines 7-8's filter).

        ``segment`` is a pre-materialised scalar view when the accept hook
        already built one, else ``None``.
        """
        if self._update_default:
            return accepted
        segment = segment if segment is not None else pool.segment(k)
        return np.asarray(
            self.program.update(segment, accepted), dtype=np.int64
        ).reshape(-1)

    def _hook_neighbor_counts(
        self, pool: SegmentedEdgePool, lengths: np.ndarray, hook_mask: np.ndarray
    ) -> np.ndarray:
        """Requested NeighborSize per segment (hook looped in call order)."""
        requested = np.full(pool.num_segments, self.config.neighbor_size, dtype=np.int64)
        if not self._neighbor_count_default:
            for k in np.nonzero(hook_mask)[0]:
                requested[k] = int(
                    self.program.neighbor_count(
                        pool.segment(int(k)), self.config.neighbor_size
                    )
                )
        return requested

    # ================================================================== #
    def _finish_instance(
        self,
        inst: InstanceState,
        frontier: np.ndarray,
        positions: np.ndarray,
        inserted: List[np.ndarray],
        depth: int,
    ) -> None:
        """Lines 7-8 wrap-up: pool insertion, depth advance, walk bookkeeping."""
        # The previous vertex is only meaningful for walk-style single-vertex
        # frontiers (see InstanceState.prev_vertex's contract).
        if frontier.size == 1:
            inst.prev_vertex = int(frontier[0])
        pool = inst.frontier_pool
        new_vertices = (
            np.concatenate(inserted) if inserted else _EMPTY
        )
        if self.config.pool_policy is PoolPolicy.REPLACE_SELECTED:
            keep = np.ones(pool.size, dtype=bool)
            keep[np.asarray(positions, dtype=np.int64)] = False
            inst.set_pool(np.concatenate([pool[keep], new_vertices]))
        else:  # NEXT_LAYER
            inst.set_pool(new_vertices)
        inst.depth = depth + 1
        if inst.pool_size == 0:
            inst.finished = True


def _concat_pools(
    parts: List[SegmentedEdgePool], graph: CSRGraph
) -> SegmentedEdgePool:
    """Concatenate per-instance gathers (at least one) into one step-wide pool."""
    sizes = np.asarray([p.num_segments for p in parts], dtype=np.int64)
    offsets = np.zeros(int(sizes.sum()) + 1, dtype=np.int64)
    pos = 0
    shift = 0
    for p in parts:
        offsets[pos + 1 : pos + p.num_segments + 1] = p.offsets[1:] + shift
        pos += p.num_segments
        shift += p.offsets[-1]
    instances: List[InstanceState] = []
    for p in parts:
        instances.extend(p.instances)
    weights = (
        None
        if graph.weights is None
        else np.concatenate([p.weights for p in parts])
    )
    return SegmentedEdgePool(
        src=np.concatenate([p.src for p in parts]),
        offsets=offsets,
        neighbors=np.concatenate([p.neighbors for p in parts]),
        weights=weights,
        instances=instances,
        graph=graph,
    )
