"""KnightKing-like walker-centric CPU random-walk engine (Fig. 9(a) baseline).

KnightKing (SOSP'19) is a distributed CPU engine built around a
*walker-centric* model: every walker is an independent actor that repeatedly
samples an out-edge of its current vertex and moves.  For *static* transition
probabilities it pre-computes per-vertex alias tables (O(1) per step after
O(E) preprocessing); for *dynamic* probabilities it falls back to rejection
(dartboard) sampling.  Execution proceeds in bulk-synchronous steps over all
walkers, parallelised across CPU threads.

This module reproduces that engine faithfully enough to serve as the paper's
comparison point: it produces real walks and charges a CPU cost model
(POWER9-like spec) with the alias-table lookups, RNG draws and memory traffic
of every step, so its SEPS can be compared with C-SAW's on the same graphs.
The alias-table preprocessing cost is tracked separately (the paper's SEPS
uses sampling time only).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.gpusim.costmodel import CostModel
from repro.gpusim.device import POWER9_SPEC, DeviceSpec
from repro.gpusim.kernel import KernelLaunch
from repro.gpusim.prng import CounterRNG
from repro.graph.csr import CSRGraph
from repro.selection.alias import AliasTable, build_alias_table

__all__ = ["KnightKingEngine", "KnightKingResult"]

#: Cycles charged per walker step for the dependent (cache-missing) pointer
#: chase of CSR traversal on a CPU.  A GPU hides this latency by switching
#: among thousands of resident warps; a CPU thread executing one walker's
#: serial chain cannot, which is a large part of why the paper's GPU framework
#: wins despite the CPU's higher clock.
DEPENDENT_ACCESS_CYCLES = 250


@dataclass
class KnightKingResult:
    """Walks produced by the engine plus its cost accounting."""

    walks: List[np.ndarray]
    cost: CostModel
    preprocessing_cost: CostModel
    kernels: List[KernelLaunch] = field(default_factory=list)
    spec: DeviceSpec = POWER9_SPEC

    @property
    def total_sampled_edges(self) -> int:
        """Total number of walk steps taken (each step samples one edge)."""
        return int(sum(max(len(w) - 1, 0) for w in self.walks))

    def kernel_time(self, spec: Optional[DeviceSpec] = None) -> float:
        """Simulated sampling time (preprocessing excluded, as in the paper)."""
        spec = spec or self.spec
        if self.kernels:
            return float(sum(k.duration(spec) for k in self.kernels))
        return float(self.cost.simulated_time(spec))

    def preprocessing_time(self, spec: Optional[DeviceSpec] = None) -> float:
        """Simulated alias-table construction time."""
        spec = spec or self.spec
        return float(self.preprocessing_cost.simulated_time(spec))

    def seps(self, spec: Optional[DeviceSpec] = None) -> float:
        """Sampled edges per simulated second."""
        time = self.kernel_time(spec)
        return self.total_sampled_edges / time if time > 0 else 0.0


class KnightKingEngine:
    """Walker-centric biased/unbiased random walk on the simulated CPU."""

    def __init__(
        self,
        graph: CSRGraph,
        *,
        biased: bool = True,
        seed: int = 0,
        spec: DeviceSpec = POWER9_SPEC,
    ):
        if graph.num_vertices == 0:
            raise ValueError("cannot walk an empty graph")
        self.graph = graph
        self.biased = biased and graph.is_weighted
        self.spec = spec
        self.rng = CounterRNG(seed)
        self.preprocessing_cost = CostModel()
        #: One alias table per vertex, ``None`` where the row has no
        #: positive weight (the walker stops there).
        self.alias_tables: List[Optional[AliasTable]] = []
        if self.biased:
            for vertex in range(graph.num_vertices):
                weights = graph.neighbor_weights(vertex)
                self.alias_tables.append(
                    build_alias_table(weights, self.preprocessing_cost)
                    if np.any(weights > 0) else None
                )

    # ------------------------------------------------------------------ #
    def run_walks(
        self,
        seeds: Sequence[int] | np.ndarray,
        walk_length: int,
        *,
        num_walkers: Optional[int] = None,
    ) -> KnightKingResult:
        """Run one walk per seed (seeds reused round-robin up to ``num_walkers``)."""
        if walk_length < 1:
            raise ValueError("walk_length must be >= 1")
        seeds = list(np.asarray(seeds, dtype=np.int64).reshape(-1))
        if not seeds:
            raise ValueError("at least one seed is required")
        if num_walkers is not None:
            reps = int(np.ceil(num_walkers / len(seeds)))
            seeds = (seeds * reps)[:num_walkers]
        for s in seeds:
            if not (0 <= s < self.graph.num_vertices):
                raise ValueError(f"seed {s} outside the graph")

        cost = CostModel()
        kernels: List[KernelLaunch] = []
        walks = [[int(s)] for s in seeds]
        current = np.asarray(seeds, dtype=np.int64)
        active = self.graph.degrees[current] > 0

        for step in range(walk_length):
            if not active.any():
                break
            step_cost = CostModel()
            moved = 0
            for walker in np.nonzero(active)[0]:
                vertex = int(current[walker])
                nxt = self._step_walker(vertex, int(walker), step, step_cost)
                if nxt is None:
                    active[walker] = False
                    continue
                walks[walker].append(nxt)
                current[walker] = nxt
                moved += 1
                if self.graph.degrees[nxt] == 0:
                    active[walker] = False
            step_cost.sampled_edges += moved
            kernels.append(
                KernelLaunch(
                    name=f"kernel:bsp_step{step}",
                    cost=step_cost,
                    num_warp_tasks=max(moved, 1),
                )
            )
            cost.merge(step_cost)

        return KnightKingResult(
            walks=[np.asarray(w, dtype=np.int64) for w in walks],
            cost=cost,
            preprocessing_cost=self.preprocessing_cost,
            kernels=kernels,
            spec=self.spec,
        )

    # ------------------------------------------------------------------ #
    def _step_walker(self, vertex: int, walker: int, step: int, cost: CostModel) -> Optional[int]:
        """Advance one walker by one step; returns the next vertex or None."""
        neighbors = self.graph.neighbors(vertex)
        if neighbors.size == 0:
            return None
        cost.charge_global_bytes(neighbors.nbytes + 16)
        cost.charge_warp_step(DEPENDENT_ACCESS_CYCLES, active_lanes=1)
        if self.biased:
            table = self.alias_tables[vertex]
            if table is None:
                return None
            index = table.sample(self.rng, walker, step, cost=cost)
        else:
            r = float(self.rng.uniform(walker, step))
            cost.rng_draws += 1
            cost.selection_attempts += 1
            cost.charge_warp_step(1, active_lanes=1)
            index = min(int(r * neighbors.size), neighbors.size - 1)
        return int(neighbors[index])
