"""Snowball sampling.

Snowball sampling starts from uniformly selected seed vertices and, at each
level, adds *all* neighbors of every sampled vertex until a required depth is
reached (Section II-A).  It is the NeighborSize = "all" corner of the design
space; in C-SAW terms the neighbor count equals the pool size and selection
degenerates to taking everything (still expressed through the same API).
A ``max_per_vertex`` cap is provided because real uses of snowball sampling
on scale-free graphs routinely bound the per-vertex fan-out.
"""

from __future__ import annotations

import numpy as np

from repro.api.bias import EdgePool, SamplingProgram
from repro.api.config import PoolPolicy, SamplingConfig, SelectionScope

__all__ = ["SnowballSampling"]


class SnowballSampling(SamplingProgram):
    """Snowball sampling: take every neighbor of every frontier vertex."""

    name = "snowball_sampling"
    supports_coalescing = True  # hooks are pure functions of their arguments
    compiled_bias = "uniform"
    compiled_update = "unvisited"
    compiled_neighbor_count = "pool_capped"

    def __init__(self, max_per_vertex: int | None = None):
        if max_per_vertex is not None and max_per_vertex < 1:
            raise ValueError("max_per_vertex must be >= 1")
        self.max_per_vertex = max_per_vertex

    def compiled_cache_token(self) -> object:
        return (self.max_per_vertex,)

    def neighbor_count(self, edges: EdgePool, requested: int) -> int:
        count = edges.size
        if self.max_per_vertex is not None:
            count = min(count, self.max_per_vertex)
        return count

    def update(self, edges: EdgePool, sampled: np.ndarray) -> np.ndarray:
        return edges.instance.unvisited(sampled)

    @staticmethod
    def default_config(**overrides) -> SamplingConfig:
        """Depth-2 snowball; neighbor_size is ignored (the hook takes the pool)."""
        base = dict(
            frontier_size=0,
            neighbor_size=1,
            depth=2,
            with_replacement=False,
            scope=SelectionScope.PER_VERTEX,
            pool_policy=PoolPolicy.NEXT_LAYER,
            track_visited=True,
        )
        base.update(overrides)
        return SamplingConfig(**base)
