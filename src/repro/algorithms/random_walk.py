"""Simple and biased random walks (DeepWalk and Biased DeepWalk).

A random walk is the NeighborSize = 1, with-replacement corner of the design
space: at every step the walker moves from its current vertex to one sampled
neighbor and the visited edge joins the sample.

* :class:`SimpleRandomWalk` / :class:`DeepWalk` -- unbiased: every neighbor is
  equally likely (DeepWalk's walk generation).
* :class:`BiasedRandomWalk` -- static bias: the edge weight (or the neighbor's
  degree on unweighted graphs, following Biased DeepWalk) decides the
  transition probability.

:func:`run_random_walks` is the high-throughput entry point used by the SEPS
benchmarks: it advances all walkers together with the vectorised
:func:`~repro.api.select.batch_walk_step` fast path, producing one simulated
kernel per step, which is how C-SAW's GPU kernels batch thousands of walker
instances.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.api.bias import EdgePool, SamplingProgram, SegmentedEdgePool
from repro.api.config import PoolPolicy, SamplingConfig, SelectionScope
from repro.api.instance import make_instances
from repro.api.results import SampleColumns, SampleResult
from repro.api.select import batch_walk_step
from repro.gpusim.costmodel import CostModel
from repro.gpusim.device import Device, make_device
from repro.gpusim.kernel import KernelLaunch
from repro.gpusim.prng import CounterRNG
from repro.graph.csr import CSRGraph

__all__ = ["SimpleRandomWalk", "DeepWalk", "BiasedRandomWalk", "run_random_walks"]


class SimpleRandomWalk(SamplingProgram):
    """Unbiased random walk: uniform transition probability over neighbors."""

    name = "simple_random_walk"
    supports_coalescing = True  # hooks are pure functions of their arguments
    compiled_bias = "uniform"

    def edge_bias(self, edges: EdgePool) -> np.ndarray:
        return np.ones(edges.size, dtype=np.float64)

    def edge_bias_batch(self, edges: SegmentedEdgePool) -> np.ndarray:
        return np.ones(edges.size, dtype=np.float64)

    @staticmethod
    def default_config(**overrides) -> SamplingConfig:
        """Walk of length ``depth`` with one neighbor per step, repeats allowed."""
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


class DeepWalk(SimpleRandomWalk):
    """DeepWalk's walk generation is exactly the simple (uniform) random walk."""

    name = "deepwalk"


class BiasedRandomWalk(SimpleRandomWalk):
    """Static-bias random walk: edge weight (or neighbor degree) as the bias."""

    name = "biased_random_walk"
    compiled_bias = "weight_or_degree"  # overrides the inherited "uniform"

    def edge_bias(self, edges: EdgePool) -> np.ndarray:
        if edges.graph.is_weighted:
            return np.asarray(edges.weights, dtype=np.float64)
        return edges.neighbor_degrees().astype(np.float64) + 1.0

    def edge_bias_batch(self, edges: SegmentedEdgePool) -> np.ndarray:
        if edges.graph.is_weighted:
            return np.asarray(edges.weights, dtype=np.float64)
        return edges.neighbor_degrees().astype(np.float64) + 1.0


def run_random_walks(
    graph: CSRGraph,
    seeds: Sequence[int] | np.ndarray,
    *,
    walk_length: int = 8,
    num_walkers: Optional[int] = None,
    biased: bool = False,
    seed: int = 0,
    device: Optional[Device] = None,
) -> SampleResult:
    """Run many random walks with the vectorised batch engine.

    Parameters
    ----------
    graph:
        Graph to walk; must be weighted when ``biased`` is True (otherwise the
        walk silently degrades to uniform, matching the paper's treatment of
        unweighted inputs).
    seeds:
        Seed vertices (reused round-robin when ``num_walkers`` exceeds them).
    walk_length:
        Number of steps per walker (the paper's biased random walk uses 2000;
        benchmarks scale this down).
    biased:
        Edge-weight-biased transitions when True, uniform otherwise.
    """
    if walk_length < 1:
        raise ValueError("walk_length must be >= 1")
    device = device if device is not None else make_device("gpu")
    rng = CounterRNG(seed)
    batch = make_instances(np.asarray(seeds).reshape(-1), num_instances=num_walkers)
    current = batch.seeds  # one seed per walker
    active = np.ones(current.size, dtype=bool)
    edge_bias = "weight" if (biased and graph.is_weighted) else "uniform"

    walker_parts, src_parts, dst_parts = [], [], []
    # C-SAW is free of bulk-synchronous stepping: one warp owns one walker for
    # its entire walk, so the whole job is a single kernel whose warp tasks
    # are the walkers (Section IV-A).  The cost of every step accumulates into
    # that one launch.
    job_cost = CostModel()
    for step in range(walk_length):
        nxt, moved = batch_walk_step(
            graph, current, rng, step, edge_bias=edge_bias, cost=job_cost, active=active
        )
        moved_idx = np.nonzero(moved)[0]
        walker_parts.append(moved_idx)
        src_parts.append(current[moved_idx])
        dst_parts.append(nxt[moved_idx])
        # Walkers stranded on zero-degree vertices stop for good.
        active &= ~(active & ~moved & (graph.degrees[current] == 0))
        current = nxt
        if not active.any():
            break
    job_cost.kernel_launches += 1
    kernels = [
        KernelLaunch(
            name="kernel:random_walk",
            cost=job_cost,
            num_warp_tasks=max(int(current.size), 1),
        )
    ]
    device.cost.merge(job_cost)

    return SampleResult(
        samples=SampleColumns.from_owner_edges(
            batch.instance_ids, batch.seed_offsets, batch.seeds,
            np.concatenate(walker_parts),
            np.concatenate(src_parts),
            np.concatenate(dst_parts),
        ),
        cost=device.cost.copy(),
        kernels=kernels,
        metadata={"program": "biased_random_walk" if biased else "simple_random_walk",
                  "walk_length": walk_length},
    )
