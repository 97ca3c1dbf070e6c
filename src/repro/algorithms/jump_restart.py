"""Random walk with jump and random walk with restart.

A simple random walk can get stuck in a local neighbourhood.  Two classic
escapes (Section II-A):

* **jump** -- with probability ``jump_probability`` the walker teleports to a
  uniformly random vertex of the graph;
* **restart** -- with probability ``restart_probability`` the walker teleports
  back to a pre-determined vertex (its seed), which is the kernel of
  personalised PageRank estimation.

Both are expressed purely through the ``UPDATE`` hook: the neighbor selection
itself stays an unbiased NeighborSize = 1 pick, and ``UPDATE`` decides whether
the frontier becomes the sampled neighbor or the teleport target.
"""

from __future__ import annotations

import numpy as np

from repro.api.bias import EdgePool, SamplingProgram
from repro.api.config import PoolPolicy, SamplingConfig, SelectionScope

__all__ = ["RandomWalkWithJump", "RandomWalkWithRestart"]


class RandomWalkWithJump(SamplingProgram):
    """Random walk that teleports to a random vertex with fixed probability."""

    name = "random_walk_with_jump"
    #: Teleport draws consume ``self._rng`` in hook call order, so runs
    #: cannot share an engine batch (see SamplingProgram.supports_coalescing).
    supports_coalescing = False
    #: The selection itself is unbiased; only the stateful ``update`` teleport
    #: keeps this program off the compiled tier (the recorded fallback reason).
    compiled_bias = "uniform"

    def __init__(self, jump_probability: float = 0.15, seed: int = 0):
        if not (0.0 <= jump_probability <= 1.0):
            raise ValueError("jump probability must lie in [0, 1]")
        self.jump_probability = jump_probability
        self._rng = np.random.default_rng(seed)

    def update(self, edges: EdgePool, sampled: np.ndarray) -> np.ndarray:
        if self._rng.random() < self.jump_probability:
            target = int(self._rng.integers(0, edges.graph.num_vertices))
            return np.array([target], dtype=np.int64)
        if sampled.size == 0:
            return np.array([edges.src], dtype=np.int64)
        return sampled

    @staticmethod
    def default_config(**overrides) -> SamplingConfig:
        """Walk-style config with repeats allowed."""
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


class RandomWalkWithRestart(RandomWalkWithJump):
    """Random walk that teleports back to the instance's seed vertex."""

    name = "random_walk_with_restart"

    def __init__(self, restart_probability: float = 0.15, seed: int = 0):
        super().__init__(jump_probability=restart_probability, seed=seed)
        self.restart_probability = restart_probability

    def update(self, edges: EdgePool, sampled: np.ndarray) -> np.ndarray:
        if self._rng.random() < self.restart_probability:
            return np.array([int(edges.instance.seeds[0])], dtype=np.int64)
        if sampled.size == 0:
            return np.array([edges.src], dtype=np.int64)
        return sampled
