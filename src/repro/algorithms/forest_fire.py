"""Forest fire sampling.

Forest fire sampling (Leskovec & Faloutsos, KDD'06) is a probabilistic
version of neighbor sampling: at each vertex the number of neighbors to
"burn" is drawn from a geometric distribution with mean ``p_f / (1 - p_f)``,
where ``p_f`` is the burning probability (the paper uses ``p_f = 0.7``,
giving a mean of 2.33 neighbors).  Selection itself is unbiased and without
replacement, and burned vertices are never revisited.
"""

from __future__ import annotations

import numpy as np

from repro.api.bias import EdgePool, SamplingProgram
from repro.api.config import PoolPolicy, SamplingConfig, SelectionScope

__all__ = ["ForestFireSampling"]


class ForestFireSampling(SamplingProgram):
    """Forest fire sampling with geometric NeighborSize (Table I, variable)."""

    name = "forest_fire_sampling"
    #: The geometric draws consume ``self._rng`` in hook call order, so runs
    #: cannot share an engine batch (see SamplingProgram.supports_coalescing).
    supports_coalescing = False
    #: Burning picks neighbors uniformly; the stateful geometric
    #: ``neighbor_count`` draw is what keeps the program interpreted.
    compiled_bias = "uniform"

    def __init__(self, burning_probability: float = 0.7, seed: int = 0):
        if not (0.0 < burning_probability < 1.0):
            raise ValueError("burning probability must lie in (0, 1)")
        self.burning_probability = burning_probability
        self._rng = np.random.default_rng(seed)

    def neighbor_count(self, edges: EdgePool, requested: int) -> int:
        """Geometric draw with mean ``p_f / (1 - p_f)``, capped by the pool size."""
        mean = self.burning_probability / (1.0 - self.burning_probability)
        # numpy's geometric counts trials until first success (support >= 1);
        # shift to support >= 0 so a vertex can burn zero neighbors.
        draw = int(self._rng.geometric(1.0 / (1.0 + mean))) - 1
        return min(draw, edges.size)

    def update(self, edges: EdgePool, sampled: np.ndarray) -> np.ndarray:
        return edges.instance.unvisited(sampled)

    @staticmethod
    def default_config(**overrides) -> SamplingConfig:
        """Paper defaults: depth 2, neighbor count driven by the geometric draw."""
        base = dict(
            frontier_size=0,
            neighbor_size=8,          # upper bound; the geometric draw decides
            depth=2,
            with_replacement=False,
            scope=SelectionScope.PER_VERTEX,
            pool_policy=PoolPolicy.NEXT_LAYER,
            track_visited=True,
        )
        base.update(overrides)
        return SamplingConfig(**base)
