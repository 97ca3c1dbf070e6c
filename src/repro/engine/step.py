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
the out-of-memory scheduler's batched-kernel path (:meth:`expand_entries`),
so the gather/select/update sequence exists once.

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

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.api.bias import FrontierPoolView, SamplingProgram, SegmentedEdgePool
from repro.api.config import PoolPolicy, SamplingConfig, SelectionScope
from repro.api.instance import InstanceState
from repro.api.select import warp_select
from repro.engine.gather import batch_gather_neighbors
from repro.gpusim.costmodel import CostModel
from repro.gpusim.prng import CounterRNG
from repro.gpusim.warp import WarpExecutor
from repro.graph.csr import CSRGraph
from repro.telemetry import metrics as _metrics
from repro.telemetry import profiler as _profiler
from repro.telemetry import trace as _trace
from repro.selection.segmented import (
    concat_aranges,
    segment_positive_counts,
    segmented_warp_select,
    take_segments,
)

__all__ = ["BatchedStepEngine", "record_iterations", "validate_biases"]

_EMPTY = np.empty(0, dtype=np.int64)


def record_iterations(sink, inst, iters: np.ndarray) -> None:
    """Append per-selection iteration counts to ``sink``.

    ``sink`` is normally a plain list; a grouped sink (coalesced multi-request
    runs, :mod:`repro.engine.hetero`) exposes ``extend_for`` so each
    instance's counts land in its owning request's list.
    """
    extend_for = getattr(sink, "extend_for", None)
    if extend_for is not None:
        extend_for(inst, iters)
    else:
        # tolist() converts to python ints in one C pass; extending with a
        # genexpr of int(i) calls back into python per element.
        sink.extend(iters.tolist())


def grouped_warp_ids(groups: np.ndarray, cursors: np.ndarray) -> np.ndarray:
    """Next warp ids for segments owned by ``groups``, advancing ``cursors``.

    Segment ``k`` gets ``cursors[groups[k]]`` plus the number of earlier
    segments of the same group -- each group's ids are sequential in segment
    order, as if the groups had been walked one at a time -- computed as one
    grouped running count (stable sort by group, position minus run start),
    so a batch of single-walker groups costs one sort, not one pass each.
    """
    num = groups.size
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


def validate_biases(biases: np.ndarray, expected: int, label: str) -> np.ndarray:
    """Validate a user bias array (shared by the sampler and the engine)."""
    biases = np.asarray(biases, dtype=np.float64).reshape(-1)
    if biases.size != expected:
        raise ValueError(
            f"{label} must return one bias per candidate "
            f"(expected {expected}, got {biases.size})"
        )
    if np.any(biases < 0) or not np.all(np.isfinite(biases)):
        raise ValueError(f"{label} must return finite, non-negative biases")
    return biases


class BatchedStepEngine:
    """Vectorised executor for one MAIN-loop depth step (Fig. 2(b))."""

    def __init__(
        self,
        graph: CSRGraph,
        program: SamplingProgram,
        config: SamplingConfig,
        rng: CounterRNG,
    ):
        self.graph = graph
        self.program = program
        self.config = config
        self.rng = rng
        #: Next warp id; advanced in the scalar path's allocation order.
        self.warp_counter = 0
        #: Optional per-group warp numbering (coalesced multi-request runs):
        #: maps ``id(instance)`` to a warp-group index.  When set, each group
        #: draws warp ids from its own cursor starting at 0 -- in the same
        #: allocation order a standalone run over just that group would use --
        #: so the RNG streams (which mix the warp id) are unchanged by what
        #: else shares the batch.
        self._warp_group_of: Optional[Mapping[int, int]] = None
        self._group_warp_cursors: Optional[np.ndarray] = None
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

    # ================================================================== #
    # Warp-id allocation (engine-global by default, per-group when coalescing)
    # ================================================================== #
    def set_warp_groups(
        self,
        group_of: Mapping[int, int],
        num_groups: int,
        initial_cursors: Optional[np.ndarray] = None,
    ) -> None:
        """Switch to per-group warp numbering (see ``_warp_group_of``).

        ``initial_cursors`` seeds each group's next warp id (default 0 for
        every group).  The sharded cluster uses it to resume an instance's
        private warp stream after the instance migrated to another shard:
        the cursor travels with the walker, so warp ids -- and hence the RNG
        streams that mix them -- are independent of where each step ran.
        """
        self._warp_group_of = group_of
        if initial_cursors is None:
            self._group_warp_cursors = np.zeros(num_groups, dtype=np.int64)
        else:
            cursors = np.asarray(initial_cursors, dtype=np.int64).copy()
            if cursors.shape != (num_groups,):
                raise ValueError(
                    f"initial_cursors must have shape ({num_groups},), "
                    f"got {cursors.shape}"
                )
            self._group_warp_cursors = cursors

    def group_cursors(self) -> np.ndarray:
        """Current per-group warp cursors (copy; export for migration)."""
        if self._group_warp_cursors is None:
            raise RuntimeError("warp groups are not set")
        return self._group_warp_cursors.copy()

    def _alloc_warp(self, inst: InstanceState) -> int:
        """Allocate one warp id on behalf of ``inst``."""
        if self._warp_group_of is None:
            warp_id = self.warp_counter
            self.warp_counter += 1
            return warp_id
        group = self._warp_group_of[id(inst)]
        warp_id = int(self._group_warp_cursors[group])
        self._group_warp_cursors[group] += 1
        return warp_id

    def _alloc_warp_block(
        self, instances: Sequence[InstanceState], alloc: np.ndarray
    ) -> np.ndarray:
        """Warp ids for the allocated segments of a batch (-1 elsewhere).

        Ids are sequential in segment order within each owning group (within
        the single global sequence when no groups are set), which is exactly
        the order the scalar loop would hand them out.
        """
        warp_ids = np.full(alloc.size, -1, dtype=np.int64)
        if self._warp_group_of is None:
            num_alloc = int(alloc.sum())
            warp_ids[alloc] = self.warp_counter + np.arange(num_alloc, dtype=np.int64)
            self.warp_counter += num_alloc
            return warp_ids
        groups = np.fromiter(
            (self._warp_group_of[id(inst)] for inst in instances),
            dtype=np.int64,
            count=len(instances),
        )
        warp_ids[alloc] = grouped_warp_ids(groups[alloc], self._group_warp_cursors)
        return warp_ids

    def _alloc_warp_block_for(
        self, inst: InstanceState, alloc: np.ndarray
    ) -> np.ndarray:
        """:meth:`_alloc_warp_block` when every segment belongs to ``inst``."""
        warp_ids = np.full(alloc.size, -1, dtype=np.int64)
        num_alloc = int(alloc.sum())
        if self._warp_group_of is None:
            warp_ids[alloc] = self.warp_counter + np.arange(num_alloc, dtype=np.int64)
            self.warp_counter += num_alloc
        else:
            group = self._warp_group_of[id(inst)]
            warp_ids[alloc] = self._group_warp_cursors[group] + np.arange(
                num_alloc, dtype=np.int64
            )
            self._group_warp_cursors[group] += num_alloc
        return warp_ids

    # ================================================================== #
    # In-memory sampler entry point
    # ================================================================== #
    def step_instances(
        self,
        instances: Sequence[InstanceState],
        depth: int,
        cost: CostModel,
        iteration_counts: List[int],
    ) -> Optional[int]:
        """Advance every active instance by one MAIN-loop iteration.

        Returns the step's warp-task count, or ``None`` when no instance was
        active (the caller then stops without launching a kernel, exactly as
        the scalar loop does).
        """
        active: List[InstanceState] = []
        for inst in instances:
            if inst.finished or inst.pool_size == 0:
                inst.finished = True
                continue
            active.append(inst)
        if not active:
            return None
        if self.config.scope is SelectionScope.PER_LAYER:
            tasks = self._step_per_layer(active, depth, cost, iteration_counts)
        else:
            tasks = self._step_per_vertex(active, depth, cost, iteration_counts)
        if _trace.active():
            _metrics.REGISTRY.counter("engine_depth_steps").inc()
            _metrics.REGISTRY.counter("engine_warp_tasks").inc(int(tasks or 0))
        return tasks

    # ------------------------------------------------------------------ #
    def _step_per_vertex(
        self,
        active: List[InstanceState],
        depth: int,
        cost: CostModel,
        iteration_counts: List[int],
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
        stepped: List[Tuple[InstanceState, np.ndarray, np.ndarray]] = []

        if not needs_select:
            frontier_sizes = []
            for inst in active:
                stepped.append(
                    (inst, inst.frontier_pool,
                     np.arange(inst.pool_size, dtype=np.int64))
                )
                frontier_sizes.append(inst.pool_size)
            seg_vertices = np.concatenate([f for _, f, _ in stepped])
            seg_slots = concat_aranges(np.asarray(frontier_sizes, dtype=np.int64))
            seg_rank = np.repeat(
                np.arange(len(stepped), dtype=np.int64),
                np.asarray(frontier_sizes, dtype=np.int64),
            )
            seg_instances = [stepped[r][0] for r in seg_rank]
            pool = batch_gather_neighbors(self.graph, seg_vertices, seg_instances, cost)
            prof.lap("gather")
            lengths = pool.lengths()
            biases, uniform = self._edge_biases(pool, validate_values=True)
            positive = lengths if uniform else segment_positive_counts(biases, pool.offsets)
            requested = self._neighbor_counts(pool, lengths, lengths > 0)
            alloc = (lengths > 0) & (requested > 0) & (positive > 0)
            counts = np.where(
                alloc,
                requested if cfg.with_replacement
                else np.minimum(requested, positive),
                0,
            )
            warp_ids = self._alloc_warp_block(seg_instances, alloc)
            prof.lap("bias")
        else:
            parts: List[SegmentedEdgePool] = []
            seg_rank_parts, seg_slot_parts = [], []
            bias_parts, positive_parts = [], []
            requested_parts, alloc_parts, warp_parts = [], [], []
            vertex_biases = self._frontier_biases(active)
            prof.lap("bias")
            for inst in active:
                frontier, positions, tasks_inc = self._frontier_select(
                    inst, depth, cost, biases=vertex_biases.get(id(inst))
                )
                prof.lap("select")
                tasks += tasks_inc
                if frontier.size == 0:
                    inst.finished = True
                    continue
                rank = len(stepped)
                stepped.append((inst, frontier, positions))
                part = batch_gather_neighbors(
                    self.graph, frontier, [inst] * int(frontier.size), cost
                )
                prof.lap("gather")
                lengths = part.lengths()
                biases, uniform = self._edge_biases(part, validate_values=True)
                positive = lengths if uniform else segment_positive_counts(biases, part.offsets)
                positive_parts.append(positive)
                requested = self._neighbor_counts(part, lengths, lengths > 0)
                alloc = (lengths > 0) & (requested > 0) & (positive > 0)
                warp_ids = self._alloc_warp_block_for(inst, alloc)
                parts.append(part)
                seg_rank_parts.append(np.full(alloc.size, rank, dtype=np.int64))
                seg_slot_parts.append(np.arange(alloc.size, dtype=np.int64))
                bias_parts.append(biases)
                requested_parts.append(requested)
                alloc_parts.append(alloc)
                warp_parts.append(warp_ids)
                prof.lap("bias")
            if not stepped:
                return tasks
            pool = _concat_pools(parts, self.graph)
            seg_rank = np.concatenate(seg_rank_parts)
            seg_slots = np.concatenate(seg_slot_parts)
            biases = np.concatenate(bias_parts)
            requested = np.concatenate(requested_parts)
            alloc = np.concatenate(alloc_parts)
            warp_ids = np.concatenate(warp_parts)
            positive = np.concatenate(positive_parts)
            counts = np.where(
                alloc,
                requested if cfg.with_replacement
                else np.minimum(requested, positive),
                0,
            )
            prof.lap("gather")

        allocated = np.nonzero(alloc)[0]
        tasks += int(allocated.size)
        selection = None
        if allocated.size:
            if allocated.size == alloc.size:
                sub_biases, sub_offsets = biases, pool.offsets
            else:
                sub_biases, sub_offsets = take_segments(biases, pool.offsets, allocated)
            inst_ids = np.asarray(
                [pool.instances[k].instance_id for k in allocated], dtype=np.int64
            )
            selection = segmented_warp_select(
                sub_biases,
                sub_offsets,
                counts[allocated],
                self.rng,
                [inst_ids,
                 np.full(allocated.size, depth, dtype=np.int64),
                 seg_slots[allocated] + 1,
                 warp_ids[allocated]],
                with_replacement=cfg.with_replacement,
                strategy=cfg.strategy,
                detector=cfg.detector,
                cost=cost,
                validate=False,  # validated by _edge_biases above
                positive_counts=positive[allocated],
            )
        prof.lap("select")

        # UPDATE phase: per allocated segment in scalar call order.
        inserted: List[List[np.ndarray]] = [[] for _ in stepped]
        for j, k in enumerate(allocated):
            idx, iters = selection.segment(j)
            inst = pool.instances[k]
            record_iterations(iteration_counts, inst, iters)
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
            if new_vertices.size:
                inserted[seg_rank[k]].append(new_vertices)

        for rank, (inst, frontier, positions) in enumerate(stepped):
            self._finish_instance(inst, frontier, positions, inserted[rank], depth)
        prof.lap("update")
        return tasks

    # ------------------------------------------------------------------ #
    def _step_per_layer(
        self,
        active: List[InstanceState],
        depth: int,
        cost: CostModel,
        iteration_counts: List[int],
    ) -> int:
        cfg = self.config
        tasks = 0
        prof = _profiler.clock(depth)
        stepped: List[Tuple[InstanceState, np.ndarray, np.ndarray]] = []
        layer: List[Optional[Tuple[SegmentedEdgePool, np.ndarray, int, int]]] = []
        vertex_biases = self._frontier_biases(active)
        prof.lap("bias")
        for inst in active:
            frontier, positions, tasks_inc = self._frontier_select(
                inst, depth, cost, biases=vertex_biases.get(id(inst))
            )
            prof.lap("select")
            tasks += tasks_inc
            if frontier.size == 0:
                inst.finished = True
                continue
            stepped.append((inst, frontier, positions))
            part = batch_gather_neighbors(
                self.graph, frontier, [inst] * int(frontier.size), cost
            )
            prof.lap("gather")
            biases, uniform = self._edge_biases(part, validate_values=True)
            positive = part.size if uniform else int(np.count_nonzero(biases > 0))
            if part.size == 0 or positive == 0:
                layer.append(None)
                prof.lap("bias")
                continue
            count = (
                cfg.neighbor_size
                if cfg.with_replacement
                else min(cfg.neighbor_size, positive)
            )
            warp_id = self._alloc_warp(inst)
            tasks += 1
            layer.append((part, biases, count, warp_id))
            prof.lap("bias")

        segments = [(rank, info) for rank, info in enumerate(layer) if info is not None]
        if segments:
            flat_biases = np.concatenate([info[1] for _, info in segments])
            seg_sizes = np.asarray([info[0].size for _, info in segments], dtype=np.int64)
            offsets = np.zeros(seg_sizes.size + 1, dtype=np.int64)
            np.cumsum(seg_sizes, out=offsets[1:])
            counts = np.asarray([info[2] for _, info in segments], dtype=np.int64)
            inst_ids = np.asarray(
                [stepped[rank][0].instance_id for rank, _ in segments], dtype=np.int64
            )
            warp_ids = np.asarray([info[3] for _, info in segments], dtype=np.int64)
            selection = segmented_warp_select(
                flat_biases,
                offsets,
                counts,
                self.rng,
                [inst_ids,
                 np.full(counts.size, depth, dtype=np.int64),
                 np.ones(counts.size, dtype=np.int64),
                 warp_ids],
                with_replacement=cfg.with_replacement,
                strategy=cfg.strategy,
                detector=cfg.detector,
                cost=cost,
                validate=False,  # validated by _edge_biases above
            )
        prof.lap("select")
        inserted: List[List[np.ndarray]] = [[] for _ in stepped]
        for j, (rank, (part, _, _, _)) in enumerate(segments or []):
            idx, iters = selection.segment(j)
            inst = stepped[rank][0]
            record_iterations(iteration_counts, inst, iters)
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

        for rank, (inst, frontier, positions) in enumerate(stepped):
            self._finish_instance(inst, frontier, positions, inserted[rank], depth)
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
        lengths = pool.lengths()
        biases, uniform = self._edge_biases(pool, validate_values=False)
        positive = lengths if uniform else segment_positive_counts(biases, pool.offsets)
        # The OOM kernel consults NeighborSize only after the positive-bias
        # check, so the hook is skipped for all-zero pools.
        requested = self._neighbor_counts(pool, lengths, (lengths > 0) & (positive > 0))
        alloc = (lengths > 0) & (positive > 0) & (requested > 0)
        counts = np.where(
            alloc,
            requested if cfg.with_replacement else np.minimum(requested, positive),
            0,
        )
        prof.lap("bias")
        allocated = np.nonzero(alloc)[0]
        selection = None
        if allocated.size:
            warp_ids = self._alloc_warp_block(seg_instances, alloc)[allocated]
            if allocated.size == alloc.size:
                sub_biases, sub_offsets = biases, pool.offsets
            else:
                sub_biases, sub_offsets = take_segments(biases, pool.offsets, allocated)
            selection = segmented_warp_select(
                sub_biases,
                sub_offsets,
                counts[allocated],
                self.rng,
                [instance_ids[allocated], depths[allocated],
                 vertices[allocated], warp_ids],
                with_replacement=cfg.with_replacement,
                strategy=cfg.strategy,
                detector=cfg.detector,
                cost=cost,
                # OOM edge biases are only size-checked (like the scalar OOM
                # kernel); non-uniform values still get the CTPS validation.
                validate=not uniform,
                positive_counts=positive[allocated],
            )
        prof.lap("select")

        succ_v: List[np.ndarray] = []
        succ_i: List[int] = []
        succ_d: List[int] = []
        for j, k in enumerate(allocated):
            idx, iters = selection.segment(j)
            inst = pool.instances[k]
            record_iterations(iteration_counts, inst, iters)
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
            inst.prev_vertex = int(pool.src[k])
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
    # Shared helpers
    # ================================================================== #
    def _frontier_biases(
        self, active: List[InstanceState]
    ) -> Dict[int, np.ndarray]:
        """VERTEXBIAS for every instance that will select this step, batched.

        Bias values do not depend on warp ids, so they can be evaluated in
        one ``vertex_bias_batch`` call before the (warp-id ordered)
        per-instance selection walk.
        """
        cfg = self.config
        if cfg.frontier_size == 0:
            return {}
        selecting = [i for i in active if i.pool_size > cfg.frontier_size]
        if not selecting:
            return {}
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
        return {
            id(inst): validate_biases(b, inst.pool_size, "vertex_bias")
            for inst, b in zip(selecting, batch)
        }

    def _frontier_select(
        self,
        inst: InstanceState,
        depth: int,
        cost: CostModel,
        biases: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray, int]:
        """Line 4: SELECT(VERTEXBIAS(FrontierPool), FrontierSize)."""
        cfg = self.config
        pool = inst.frontier_pool
        if cfg.frontier_size == 0 or pool.size <= cfg.frontier_size:
            return pool, np.arange(pool.size, dtype=np.int64), 0
        if biases is None:
            view = FrontierPoolView(
                vertices=pool,
                degrees=self.graph.degrees[pool],
                instance=inst,
                graph=self.graph,
            )
            biases = validate_biases(
                self.program.vertex_bias(view), pool.size, "vertex_bias"
            )
        positive = int(np.count_nonzero(biases > 0))
        count = min(cfg.frontier_size, positive)
        if count == 0:
            return _EMPTY, _EMPTY, 0
        warp = WarpExecutor(warp_id=self._alloc_warp(inst), cost=cost, rng=self.rng)
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

    def _edge_biases(
        self, pool: SegmentedEdgePool, *, validate_values: bool
    ) -> Tuple[np.ndarray, bool]:
        """EDGEBIAS for a whole batch, preserving scalar hook-call order.

        Returns ``(biases, uniform)``; ``uniform`` marks the all-ones default
        fast path so callers can skip positive-bias counting and revalidation.
        """
        total = pool.size
        if self._edge_bias_batched:
            biases = np.asarray(
                self.program.edge_bias_batch(pool), dtype=np.float64
            ).reshape(-1)
            if biases.size != total:
                raise ValueError(
                    f"edge_bias_batch must return one bias per candidate "
                    f"(expected {total}, got {biases.size})"
                )
            if validate_values and (np.any(biases < 0) or not np.all(np.isfinite(biases))):
                raise ValueError("edge_bias must return finite, non-negative biases")
            return biases, False
        if not self._edge_bias_overridden:
            return np.ones(total, dtype=np.float64), True
        out = np.empty(total, dtype=np.float64)
        lengths = pool.lengths()
        for k in np.nonzero(lengths > 0)[0]:
            part = np.asarray(
                self.program.edge_bias(pool.segment(int(k))), dtype=np.float64
            ).reshape(-1)
            if part.size != int(lengths[k]):
                raise ValueError(
                    f"edge_bias must return one bias per candidate "
                    f"(expected {int(lengths[k])}, got {part.size})"
                )
            if validate_values and (np.any(part < 0) or not np.all(np.isfinite(part))):
                raise ValueError("edge_bias must return finite, non-negative biases")
            out[pool.offsets[k] : pool.offsets[k + 1]] = part
        return out, False

    def _update_vertices(
        self,
        pool: SegmentedEdgePool,
        k: int,
        segment,
        accepted: np.ndarray,
    ) -> np.ndarray:
        """UPDATE for one segment (lines 7-8's filter).

        ``segment`` is a pre-materialised scalar view when the accept hook
        already built one, else ``None``.  The compiled step engine overrides
        this with the program's *declared* update shape, skipping hook
        dispatch and segment materialisation.
        """
        if self._update_default:
            return accepted
        segment = segment if segment is not None else pool.segment(k)
        return np.asarray(
            self.program.update(segment, accepted), dtype=np.int64
        ).reshape(-1)

    def _neighbor_counts(
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
    """Concatenate per-instance gathers into one step-wide pool."""
    if not parts:
        return SegmentedEdgePool(
            src=_EMPTY,
            offsets=np.zeros(1, dtype=np.int64),
            neighbors=_EMPTY,
            weights=np.empty(0, dtype=np.float64),
            instances=[],
            graph=graph,
        )
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
