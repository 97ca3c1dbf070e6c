"""Neighbor sampling (unbiased and biased).

Neighbor sampling (DGL's ``NeighborSampler``, GraphSAGE-style minibatching)
samples a constant number of neighbors per frontier vertex without
replacement, layer after layer.  The unbiased variant gives every neighbor
the same probability; the biased variant uses the edge weight (falling back
to the neighbor's degree on unweighted graphs) as the bias.
"""

from __future__ import annotations

import numpy as np

from repro.api.bias import EdgePool, SamplingProgram, SegmentedEdgePool
from repro.api.config import PoolPolicy, SamplingConfig, SelectionScope

__all__ = ["UnbiasedNeighborSampling", "BiasedNeighborSampling"]


class UnbiasedNeighborSampling(SamplingProgram):
    """Uniform neighbor sampling without replacement (Table I, unbiased/constant)."""

    name = "unbiased_neighbor_sampling"
    supports_coalescing = True  # hooks are pure functions of their arguments
    compiled_bias = "uniform"
    compiled_update = "unvisited"

    def update(self, edges: EdgePool, sampled: np.ndarray) -> np.ndarray:
        # Traversal-based sampling never revisits a vertex: only neighbors not
        # seen before are added to the next frontier.
        return edges.instance.unvisited(sampled)

    @staticmethod
    def default_config(**overrides) -> SamplingConfig:
        """Paper defaults: NeighborSize = Depth = 2, sampling without replacement."""
        base = dict(
            frontier_size=0,
            neighbor_size=2,
            depth=2,
            with_replacement=False,
            scope=SelectionScope.PER_VERTEX,
            pool_policy=PoolPolicy.NEXT_LAYER,
            track_visited=True,
        )
        base.update(overrides)
        return SamplingConfig(**base)


class BiasedNeighborSampling(UnbiasedNeighborSampling):
    """Neighbor sampling biased by edge weight (degree on unweighted graphs)."""

    name = "biased_neighbor_sampling"
    compiled_bias = "weight_or_degree"  # overrides the inherited "uniform"

    def edge_bias(self, edges: EdgePool) -> np.ndarray:
        if edges.graph.is_weighted:
            return np.asarray(edges.weights, dtype=np.float64)
        # Without weights, bias towards high-degree neighbors, matching the
        # "static bias from graph structure" row of Table I.
        return edges.neighbor_degrees().astype(np.float64) + 1.0

    def edge_bias_batch(self, edges: SegmentedEdgePool) -> np.ndarray:
        if edges.graph.is_weighted:
            return np.asarray(edges.weights, dtype=np.float64)
        return edges.neighbor_degrees().astype(np.float64) + 1.0
