"""The scalar MAIN-loop correctness oracle.

:class:`ScalarMainLoop` is the original instance-by-instance C-SAW MAIN
loop (Fig. 2(b)) and per-entry out-of-memory expansion (Section V), one
``warp_select`` call per SELECT, with the RNG keys and cost charges the
batched engines must reproduce bit for bit.  It has the engine's
``step_instances`` / ``expand_entries`` interface, so the equivalence
suites hand it to the unchanged :class:`~repro.planner.executor.Executor`
in an engine's place.  Nothing in the product imports it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.api.bias import FrontierPoolView, SamplingProgram
from repro.api.config import PoolPolicy, SamplingConfig, SelectionScope
from repro.api.instance import InstanceState
from repro.api.select import gather_neighbors, warp_select
from repro.engine.step import validate_biases
from repro.gpusim.costmodel import CostModel
from repro.gpusim.prng import CounterRNG
from repro.gpusim.warp import WarpExecutor
from repro.graph.csr import CSRGraph

__all__ = ["ScalarMainLoop"]


_EMPTY = np.empty(0, dtype=np.int64)


class ScalarMainLoop:
    """The scalar MAIN loop behind the batched engine's two entry points.

    Every hook fires in the paper's order, one frontier vertex at a time, so
    this is also the reference for state shared *across* hook kinds.
    """

    def __init__(
        self, graph: CSRGraph, program: SamplingProgram, config: SamplingConfig
    ):
        self.graph = graph
        self.program = program
        self.config = config
        self.rng = CounterRNG(config.seed)
        self.warp_counter = 0

    # ------------------------------------------------------------------ #
    # In-memory entry point (the engine's ``step_instances``)
    # ------------------------------------------------------------------ #
    def step_instances(
        self,
        instances: Sequence[InstanceState],
        depth: int,
        cost: CostModel,
        iteration_counts: List[int],
    ) -> Optional[int]:
        """One depth step, instance by instance; ``None`` when none is active."""
        num_tasks = 0
        any_active = False
        for inst in instances:
            if inst.finished or inst.pool_size == 0:
                inst.finished = True
                continue
            any_active = True
            num_tasks += self._step_instance(inst, depth, cost, iteration_counts)
        return num_tasks if any_active else None

    def _step_instance(
        self,
        inst: InstanceState,
        depth: int,
        cost: CostModel,
        iteration_counts: List[int],
    ) -> int:
        """Advance one instance by one MAIN-loop iteration; returns warp-task count."""
        cfg = self.config
        tasks = 0

        pool = inst.frontier_pool
        frontier, frontier_positions, tasks_inc = self._select_frontier(inst, pool, depth, cost)
        tasks += tasks_inc
        if frontier.size == 0:
            inst.finished = True
            return tasks

        inserted: List[np.ndarray] = []
        if cfg.scope is SelectionScope.PER_LAYER:
            sampled_any, tasks_inc = self._sample_layer(inst, frontier, depth, cost,
                                                        iteration_counts, inserted)
            tasks += tasks_inc
        else:
            sampled_any = False
            for slot, vertex in enumerate(frontier):
                sampled, tasks_inc = self._sample_vertex(
                    inst, int(vertex), slot, depth, cost, iteration_counts, inserted
                )
                sampled_any = sampled_any or sampled
                tasks += tasks_inc

        # Remember the vertex explored at this step for dynamic biases
        # (node2vec).  Only single-vertex (walk-style) frontiers define a
        # previous vertex; with a wider frontier there is no single "vertex
        # the walker came from", and feeding frontier[0] to a node2vec-style
        # bias would silently skew it (see InstanceState.prev_vertex).
        if frontier.size == 1:
            inst.prev_vertex = int(frontier[0])

        self._update_pool(inst, pool, frontier_positions, inserted)
        inst.depth = depth + 1
        if inst.pool_size == 0:
            inst.finished = True
        return tasks

    def _select_frontier(
        self,
        inst: InstanceState,
        pool: np.ndarray,
        depth: int,
        cost: CostModel,
    ):
        """Line 4 of Fig. 2(b): SELECT(VERTEXBIAS(FrontierPool), FrontierSize)."""
        cfg = self.config
        if cfg.frontier_size == 0 or pool.size <= cfg.frontier_size:
            return pool, np.arange(pool.size), 0

        view = FrontierPoolView(
            vertices=pool,
            degrees=self.graph.degrees[pool],
            instance=inst,
            graph=self.graph,
        )
        biases = validate_biases(self.program.vertex_bias(view), pool.size, "vertex_bias")
        positive = int(np.count_nonzero(biases > 0))
        count = min(cfg.frontier_size, positive)
        if count == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), 0
        warp = self._next_warp(cost)
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

    def _sample_vertex(
        self,
        inst: InstanceState,
        vertex: int,
        slot: int,
        depth: int,
        cost: CostModel,
        iteration_counts: List[int],
        inserted: List[np.ndarray],
    ):
        """Lines 5-8 for one frontier vertex under per-vertex scope."""
        cfg = self.config
        edges = gather_neighbors(self.graph, vertex, inst, cost)
        if edges.size == 0:
            return False, 0
        biases = validate_biases(self.program.edge_bias(edges), edges.size, "edge_bias")
        requested = self.program.neighbor_count(edges, cfg.neighbor_size)
        if requested <= 0:
            return False, 0
        positive = int(np.count_nonzero(biases > 0))
        if positive == 0:
            return False, 0
        count = requested if cfg.with_replacement else min(requested, positive)
        warp = self._next_warp(cost)
        result = warp_select(
            biases,
            count,
            warp,
            inst.instance_id,
            depth,
            slot + 1,
            with_replacement=cfg.with_replacement,
            strategy=cfg.strategy,
            detector=cfg.detector,
        )
        sampled = edges.neighbors[result.indices]
        iteration_counts.extend(int(i) for i in result.iterations)
        accepted = np.asarray(self.program.accept(edges, sampled), dtype=np.int64).reshape(-1)
        if accepted.size:
            inst.record_edges(vertex, accepted)
            cost.sampled_edges += int(accepted.size)
        # UPDATE sees the visited set as of the *previous* steps so it can
        # filter re-visits; the newly accepted vertices are marked afterwards.
        new_vertices = np.asarray(
            self.program.update(edges, accepted), dtype=np.int64
        ).reshape(-1)
        if accepted.size and cfg.track_visited:
            inst.mark_visited(accepted)
        if new_vertices.size:
            inserted.append(new_vertices)
        return True, 1

    def _sample_layer(
        self,
        inst: InstanceState,
        frontier: np.ndarray,
        depth: int,
        cost: CostModel,
        iteration_counts: List[int],
        inserted: List[np.ndarray],
    ):
        """Lines 5-8 under per-layer scope (layer sampling)."""
        cfg = self.config
        pools = []
        for vertex in frontier:
            edges = gather_neighbors(self.graph, int(vertex), inst, cost)
            if edges.size == 0:
                continue
            biases = validate_biases(self.program.edge_bias(edges), edges.size, "edge_bias")
            pools.append((edges, biases))
        if not pools:
            return False, 0
        all_src = np.concatenate([np.full(e.size, e.src, dtype=np.int64) for e, _ in pools])
        all_neighbors = np.concatenate([e.neighbors for e, _ in pools])
        all_biases = np.concatenate([b for _, b in pools])
        positive = int(np.count_nonzero(all_biases > 0))
        if positive == 0:
            return False, 0
        count = cfg.neighbor_size if cfg.with_replacement else min(cfg.neighbor_size, positive)
        warp = self._next_warp(cost)
        result = warp_select(
            all_biases,
            count,
            warp,
            inst.instance_id,
            depth,
            1,
            with_replacement=cfg.with_replacement,
            strategy=cfg.strategy,
            detector=cfg.detector,
        )
        iteration_counts.extend(int(i) for i in result.iterations)
        chosen_src = all_src[result.indices]
        chosen_dst = all_neighbors[result.indices]
        for s, d in zip(chosen_src, chosen_dst):
            inst.record_edges(int(s), np.array([d]))
        cost.sampled_edges += int(chosen_dst.size)
        # UPDATE is called per source vertex with the subset it contributed;
        # it sees the visited set as of the previous steps.
        for edges, _ in pools:
            mask = chosen_src == edges.src
            if not mask.any():
                continue
            new_vertices = np.asarray(
                self.program.update(edges, chosen_dst[mask]), dtype=np.int64
            ).reshape(-1)
            if new_vertices.size:
                inserted.append(new_vertices)
        if cfg.track_visited:
            inst.mark_visited(chosen_dst)
        return True, 1

    def _update_pool(
        self,
        inst: InstanceState,
        pool: np.ndarray,
        frontier_positions: np.ndarray,
        inserted: List[np.ndarray],
    ) -> None:
        """Line 7 of Fig. 2(b): FrontierPool.INSERT(UPDATE(Sampled))."""
        new_vertices = (
            np.concatenate(inserted) if inserted else np.empty(0, dtype=np.int64)
        )
        if self.config.pool_policy is PoolPolicy.REPLACE_SELECTED:
            keep = np.ones(pool.size, dtype=bool)
            keep[np.asarray(frontier_positions, dtype=np.int64)] = False
            inst.set_pool(np.concatenate([pool[keep], new_vertices]))
        else:  # NEXT_LAYER
            inst.set_pool(new_vertices)

    def _next_warp(self, cost: CostModel) -> WarpExecutor:
        warp = WarpExecutor(warp_id=self.warp_counter, cost=cost, rng=self.rng)
        self.warp_counter += 1
        return warp

    # ------------------------------------------------------------------ #
    # Out-of-memory entry point (the engine's ``expand_entries``)
    # ------------------------------------------------------------------ #
    def expand_entries(
        self,
        vertices: np.ndarray,
        instance_ids: np.ndarray,
        depths: np.ndarray,
        instance_map: Dict[int, InstanceState],
        cost: CostModel,
        iteration_counts: List[int],
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Expand frontier-queue entries one by one; successors in visit order."""
        succ_v: List[np.ndarray] = []
        succ_i: List[int] = []
        succ_d: List[int] = []
        for vertex, instance_id, depth in zip(vertices, instance_ids, depths):
            new_vertices = self._expand_entry(
                int(vertex), instance_map[int(instance_id)], int(depth),
                cost, iteration_counts,
            )
            if new_vertices.size:
                succ_v.append(new_vertices)
                succ_i.append(int(instance_id))
                succ_d.append(int(depth) + 1)
        if not succ_v:
            return _EMPTY, _EMPTY, _EMPTY
        sizes = [v.size for v in succ_v]
        return (
            np.concatenate(succ_v),
            np.repeat(np.asarray(succ_i, dtype=np.int64), sizes),
            np.repeat(np.asarray(succ_d, dtype=np.int64), sizes),
        )

    def _expand_entry(
        self,
        vertex: int,
        instance: InstanceState,
        depth: int,
        cost: CostModel,
        iteration_counts: List[int],
    ) -> np.ndarray:
        """Sample the neighbors of one frontier entry; returns its successors."""
        cfg = self.config
        if depth >= cfg.depth:
            return _EMPTY
        edges = gather_neighbors(self.graph, vertex, instance, cost)
        if edges.size == 0:
            return _EMPTY
        biases = np.asarray(self.program.edge_bias(edges), dtype=np.float64).reshape(-1)
        if biases.size != edges.size:
            raise ValueError("edge_bias must return one bias per neighbor")
        positive = int(np.count_nonzero(biases > 0))
        if positive == 0:
            return _EMPTY
        requested = self.program.neighbor_count(edges, cfg.neighbor_size)
        if requested <= 0:
            return _EMPTY
        count = requested if cfg.with_replacement else min(requested, positive)
        warp = self._next_warp(cost)
        result = warp_select(
            biases,
            count,
            warp,
            instance.instance_id,
            depth,
            vertex,
            with_replacement=cfg.with_replacement,
            strategy=cfg.strategy,
            detector=cfg.detector,
        )
        iteration_counts.extend(int(i) for i in result.iterations)
        sampled = edges.neighbors[result.indices]
        accepted = np.asarray(self.program.accept(edges, sampled), dtype=np.int64).reshape(-1)
        if accepted.size:
            instance.record_edges(vertex, accepted)
            cost.sampled_edges += int(accepted.size)
        new_vertices = np.asarray(
            self.program.update(edges, accepted), dtype=np.int64
        ).reshape(-1)
        if accepted.size and cfg.track_visited:
            instance.mark_visited(accepted)
        instance.prev_vertex = vertex
        if depth + 1 >= cfg.depth:
            return _EMPTY
        return new_vertices
