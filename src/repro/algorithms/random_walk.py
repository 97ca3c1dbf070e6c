"""Simple and biased random walks (DeepWalk and Biased DeepWalk).

A random walk is the NeighborSize = 1, with-replacement corner of the design
space: at every step the walker moves from its current vertex to one sampled
neighbor and the visited edge joins the sample.

* :class:`SimpleRandomWalk` / :class:`DeepWalk` -- unbiased: every neighbor is
  equally likely (DeepWalk's walk generation).
* :class:`BiasedRandomWalk` -- static bias: the edge weight (or the neighbor's
  degree on unweighted graphs, following Biased DeepWalk) decides the
  transition probability.

:func:`run_random_walks` takes walk-shaped arguments (``walk_length``,
``num_walkers``, ``biased``) and is one :func:`sample_graph` call on one of
these programs, so it runs the compiled walk kernel with the same RNG stream
and cost charges as any walk program (one kernel per depth step);
:func:`repro.oom.multigpu.run_multi_gpu_walks` splits that job across GPUs.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.api.bias import EdgePool, SamplingProgram, SegmentedEdgePool
from repro.api.config import PoolPolicy, SamplingConfig, SelectionScope
from repro.api.results import SampleResult
from repro.api.sampler import sample_graph
from repro.gpusim.device import Device
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


def _walk_job(graph: CSRGraph, walk_length: int, biased: bool, seed: int):
    """The walk program and config; ``biased`` on unweighted graphs walks uniformly."""
    if walk_length < 1:
        raise ValueError("walk_length must be >= 1")
    program = BiasedRandomWalk() if biased and graph.is_weighted else SimpleRandomWalk()
    return program, program.default_config(depth=walk_length, seed=seed)


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
    """Random walks as one :func:`sample_graph` call on the walk program.

    ``biased`` runs :class:`BiasedRandomWalk` (edge-weight transitions) on a
    weighted graph; otherwise, and on unweighted graphs, the walk is the
    uniform :class:`SimpleRandomWalk`, matching the paper's treatment of
    unweighted inputs.  ``seeds`` are flattened and reused round-robin up to
    ``num_walkers``; ``walk_length`` is the config's ``depth`` (the paper's
    biased random walk uses 2000; benchmarks scale this down) and ``seed``
    its ``seed``.  ``device`` is the simulated GPU charged (fresh if omitted).
    """
    program, config = _walk_job(graph, walk_length, biased, seed)
    return sample_graph(graph, program, np.asarray(seeds).reshape(-1), config,
                        num_instances=num_walkers, device=device)
