"""Warp-centric SELECT and neighbor gathering (Section IV-A).

``warp_select`` is the GPU-side SELECT primitive of Fig. 5: build the CTPS of
the candidate biases with a warp-level Kogge-Stone scan, then dedicate one
lane per requested selection, resolving collisions with the configured
strategy and detector.  ``gather_neighbors`` is GATHERNEIGHBORS: it fetches a
frontier vertex's adjacency slice and charges the corresponding global-memory
traffic.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.api.bias import EdgePool
from repro.api.instance import InstanceState
from repro.gpusim.costmodel import CostModel
from repro.gpusim.warp import WarpExecutor
from repro.graph.csr import CSRGraph
from repro.selection.collision import (
    CollisionStrategy,
    SelectionResult,
    select_without_replacement,
)
from repro.selection.its import sample_with_replacement

__all__ = ["gather_neighbors", "warp_select"]


def gather_neighbors(
    graph: CSRGraph,
    vertex: int,
    instance: InstanceState,
    cost: Optional[CostModel] = None,
) -> EdgePool:
    """GATHERNEIGHBORS: fetch a frontier vertex's neighbor pool.

    Charges the CSR row read (neighbor ids and weights) to the cost model.
    """
    neighbors = graph.neighbors(vertex)
    weights = graph.neighbor_weights(vertex)
    if cost is not None:
        cost.charge_global_bytes(neighbors.nbytes + weights.nbytes + 16)
    return EdgePool(src=int(vertex), neighbors=neighbors, weights=weights,
                    instance=instance, graph=graph)


def warp_select(
    biases: np.ndarray,
    count: int,
    warp: WarpExecutor,
    *coords: int,
    with_replacement: bool = False,
    strategy: Union[str, CollisionStrategy] = CollisionStrategy.BIPARTITE,
    detector: str = "strided_bitmap",
) -> SelectionResult:
    """Warp-centric SELECT over a candidate pool.

    Parameters mirror :func:`repro.selection.collision.select_without_replacement`;
    with ``with_replacement=True`` the collision machinery is bypassed (random
    walk semantics) and every selection takes exactly one iteration.
    """
    biases = np.asarray(biases, dtype=np.float64)
    if count < 0:
        raise ValueError("count must be non-negative")
    if count == 0:
        return SelectionResult(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), 0, 0)

    if with_replacement:
        indices = sample_with_replacement(biases, count, warp.rng,
                                          *(list(coords) + [warp.warp_id]), cost=warp.cost)
        warp.charge_step(1, active_lanes=min(count, warp.warp_size))
        return SelectionResult(
            indices=indices,
            iterations=np.ones(count, dtype=np.int64),
            probes=0,
            collisions=0,
        )

    result = select_without_replacement(
        biases,
        count,
        warp.rng,
        *(list(coords) + [warp.warp_id]),
        strategy=strategy,
        detector=detector,
        cost=warp.cost,
    )
    warp.charge_divergent_loop(result.iterations)
    return result
