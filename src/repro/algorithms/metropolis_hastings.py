"""Metropolis-Hastings random walk.

The Metropolis-Hastings walk proposes a uniformly random neighbor ``u`` of
the current vertex ``v`` and accepts the move with probability
``min(1, deg(v) / deg(u))``; otherwise the walker stays at ``v``.  The
acceptance rule makes the stationary distribution uniform over vertices,
which is why the technique is popular for unbiased vertex sampling of social
networks.  In C-SAW terms the proposal is an unbiased NeighborSize = 1
selection and the accept/reject step lives in the ``accept`` / ``update``
hooks.
"""

from __future__ import annotations

import numpy as np

from repro.api.bias import EdgePool, SamplingProgram
from repro.api.config import PoolPolicy, SamplingConfig, SelectionScope

__all__ = ["MetropolisHastingsWalk"]


class MetropolisHastingsWalk(SamplingProgram):
    """MH random walk: uniform proposal, degree-ratio acceptance."""

    name = "metropolis_hastings_walk"
    #: Acceptance draws consume ``self._rng`` in hook call order, so runs
    #: cannot share an engine batch (see SamplingProgram.supports_coalescing).
    supports_coalescing = False
    #: The proposal is uniform; the stateful ``accept`` rejection draw is
    #: what keeps the program interpreted.
    compiled_bias = "uniform"

    def __init__(self, seed: int = 0):
        self._rng = np.random.default_rng(seed)

    def accept(self, edges: EdgePool, sampled: np.ndarray) -> np.ndarray:
        if sampled.size == 0:
            return sampled
        src_degree = float(edges.graph.degree(edges.src))
        dst_degrees = edges.graph.degrees[sampled].astype(np.float64)
        # deg(u) can be zero for sink vertices; accepting such a move would
        # strand the walker, so treat it as an automatic rejection.
        with np.errstate(divide="ignore"):
            ratios = np.where(dst_degrees > 0, src_degree / dst_degrees, 0.0)
        draws = self._rng.random(sampled.size)
        return sampled[draws < np.minimum(1.0, ratios)]

    def update(self, edges: EdgePool, sampled: np.ndarray) -> np.ndarray:
        if sampled.size == 0:
            # Rejected: the walker stays at the current vertex.
            return np.array([edges.src], dtype=np.int64)
        return sampled

    @staticmethod
    def default_config(**overrides) -> SamplingConfig:
        """Walk-style config: one proposal per step, repeats allowed."""
        base = dict(
            frontier_size=0,
            neighbor_size=1,
            depth=8,
            with_replacement=True,
            scope=SelectionScope.PER_VERTEX,
            pool_policy=PoolPolicy.NEXT_LAYER,
            track_visited=False,
        )
        base.update(overrides)
        return SamplingConfig(**base)
