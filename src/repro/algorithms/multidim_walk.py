"""Multi-dimensional random walk (frontier sampling).

Multi-dimensional random walk (Ribeiro & Towsley's frontier sampling, used by
GraphSAINT's random-walk sampler) maintains a pool of ``m`` walker positions.
At every step it selects *one* vertex from the pool with probability
proportional to its degree (``VERTEXBIAS = degree``), samples one uniformly
random neighbor of it (``EDGEBIAS = 1``) and replaces the selected pool entry
with that neighbor (Fig. 3(b) and Fig. 4 of the paper).  The sampled edges
accumulate into one subgraph per instance.
"""

from __future__ import annotations

import numpy as np

from repro.api.bias import EdgePool, FrontierPoolView, SamplingProgram
from repro.api.config import PoolPolicy, SamplingConfig, SelectionScope

__all__ = ["MultiDimensionalRandomWalk"]


class MultiDimensionalRandomWalk(SamplingProgram):
    """Frontier sampling: degree-biased pool selection, uniform neighbor pick."""

    name = "multidimensional_random_walk"
    supports_coalescing = True  # hooks are pure functions of their arguments
    compiled_bias = "uniform"
    compiled_update = "keep_src_on_dead_end"
    compiled_vertex_bias = "degree_plus_one"

    def vertex_bias(self, pool: FrontierPoolView) -> np.ndarray:
        # Degree as the pool-selection bias (Fig. 3(b)); add-one so isolated
        # vertices keep a nonzero chance of being cycled out of the pool.
        return pool.degrees.astype(np.float64) + 1.0

    def vertex_bias_batch(self, pools) -> list:
        return [pool.degrees.astype(np.float64) + 1.0 for pool in pools]

    def update(self, edges: EdgePool, sampled: np.ndarray) -> np.ndarray:
        if sampled.size == 0:
            # Dead end: keep the source in the pool so the pool size is stable.
            return np.array([edges.src], dtype=np.int64)
        return sampled

    @staticmethod
    def default_config(**overrides) -> SamplingConfig:
        """One pool vertex advanced per step, pool entry replaced in place."""
        base = dict(
            frontier_size=1,
            neighbor_size=1,
            depth=16,
            with_replacement=True,
            scope=SelectionScope.PER_VERTEX,
            pool_policy=PoolPolicy.REPLACE_SELECTED,
            track_visited=False,
        )
        base.update(overrides)
        return SamplingConfig(**base)
