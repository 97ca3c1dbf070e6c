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
benchmarks (Figures 9, 16, 17): it advances all walkers together, one
vectorised step at a time, charging the per-walker costs the warp-accurate
path would, which is how C-SAW's GPU kernels batch thousands of walker
instances.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.api.bias import EdgePool, SamplingProgram, SegmentedEdgePool
from repro.api.config import PoolPolicy, SamplingConfig, SelectionScope
from repro.api.instance import make_instances
from repro.api.results import SampleColumns, SampleResult
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
    current = batch.seeds.copy()  # one seed per walker
    live = np.arange(current.size, dtype=np.int64)
    # Static weight biases: one graph-wide running sum serves every step.
    cumsum = np.cumsum(graph.weights) if biased and graph.is_weighted else None

    empty = np.empty(0, dtype=np.int64)
    walker_parts, src_parts, dst_parts = [empty], [empty], [empty]
    # C-SAW is free of bulk-synchronous stepping: one warp owns one walker for
    # its entire walk, so the whole job is a single kernel whose warp tasks
    # are the walkers (Section IV-A).  The cost of every step accumulates into
    # that one launch.
    job_cost = CostModel()
    for step in range(walk_length):
        # Walkers stranded on zero-degree vertices stop for good.
        live = live[graph.degrees[current[live]] > 0]
        if live.size == 0:
            break
        src = current[live]
        starts, degs = graph.row_ptr[src], graph.degrees[src]
        # Walkers use their array position as the lane coordinate.
        rs = np.atleast_1d(rng.uniform(live, np.int64(step)))
        if cumsum is None:
            pos = starts + np.minimum((rs * degs).astype(np.int64), degs - 1)
        else:
            # Segment-local inverse transform sampling on the global weight
            # cumsum: target = cumsum[start-1] + r * row_total.
            lo = np.where(starts > 0, cumsum[starts - 1], 0.0)
            hi = cumsum[starts + degs - 1]
            pos = np.searchsorted(cumsum, lo + rs * (hi - lo), side="right")
            pos = np.maximum(np.minimum(pos, starts + degs - 1), starts)
        current[live] = graph.col_idx[pos]
        walker_parts.append(live)
        src_parts.append(src)
        dst_parts.append(current[live])
        # Per walker: CSR row gather, CTPS build over its degree, one RNG
        # draw, one binary search; charged in aggregate.
        job_cost.rng_draws += int(live.size)
        job_cost.selection_attempts += int(live.size)
        job_cost.charge_global_bytes(int(np.sum(degs) * 8) + int(live.size) * 16)
        log_degs = np.ceil(np.log2(np.maximum(degs, 2)))
        job_cost.binary_search_steps += int(log_degs.sum())
        job_cost.prefix_sum_steps += (
            int(degs.sum()) if cumsum is None else int((log_degs * degs).sum())
        )
        job_cost.charge_warp_step(int(live.size), active_lanes=1)
        job_cost.sampled_edges += int(live.size)
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
