"""Declared-shape hook sites: the batched engine's compiled specialisation.

The fused walk kernel (:mod:`repro.compiled.walk_kernel`) covers walk-shaped
plans on the routes it has a driver for (the in-memory / coalesced depth loop
and the out-of-memory partition drain).  Every *other* eligible shape --
without-replacement selection, frontier selection, per-layer scope, visited
tracking, on every route including ``expand_entries`` drains -- and every
shape on the sharded route's per-shard engines runs on the one
:class:`~repro.engine.step.BatchedStepEngine`, whose four hook sites are
bound at construction to the functions below: the program's *declared*
shapes (``compiled_bias`` / ``compiled_update`` / ``compiled_neighbor_count``
/ ``compiled_vertex_bias``) evaluated directly, so the hot loop never
dispatches user hooks, never re-validates bias arrays, and answers node2vec
membership probes from the structure cache's sorted edge keys.

Bit-compatibility: every site computes exactly the values the declared hook
computes (the declarations are promises, checked by the compiler's
eligibility pass) at the exact call sites the hook-dispatching engine
evaluates them, so RNG keys, cost charges, samples and iteration counts are
identical -- the ``compiled`` cells of
``tests/integration/test_bitcompat_matrix.py`` pin this for all four
routes.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, Optional

import numpy as np

from repro.api.bias import SamplingProgram, SegmentedEdgePool
from repro.api.config import SamplingConfig
from repro.graph.csr import CSRGraph

__all__ = ["declared_sites"]


def declared_sites(
    graph: CSRGraph, program: SamplingProgram, config: SamplingConfig, kind: str
) -> Dict[str, Callable]:
    """The engine's hook sites specialised to ``program``'s declared shapes.

    Keys are the engine's site names (``edge_biases`` / ``update_vertices``
    always; ``neighbor_counts`` / ``frontier_biases`` when the program
    declares a shape for them -- an eligible program that declares none does
    not override the hook, so the engine's own site is already hook-free).
    """
    keys = None
    if kind == "node2vec":
        from repro.compiled.structures import get_structures

        keys = get_structures(graph, "node2vec").sorted_edge_keys
    sites = {
        "edge_biases": partial(_edge_biases, graph, program, kind, keys),
        "update_vertices": partial(
            _update_vertices, getattr(program, "compiled_update", None)
        ),
    }
    if getattr(program, "compiled_neighbor_count", None) == "pool_capped":
        sites["neighbor_counts"] = partial(
            _pool_capped_counts, config.neighbor_size, program
        )
    if getattr(program, "compiled_vertex_bias", None) == "degree_plus_one":
        sites["frontier_biases"] = partial(_degree_plus_one, graph)
    return sites


# ---------------------------------------------------------------------- #
def _edge_biases(graph, program, kind, n2v_keys, pool, *, validate_values):
    """EDGEBIAS from the declared kind -- no dispatch, no revalidation.

    The ``uniform`` flag may be truer than the hook-dispatching site's
    (which reports ``False`` for any overridden hook): downstream it
    only short-circuits positive-bias counting and value validation,
    both of which are value-identical for all-ones biases.
    """
    total = pool.size
    if kind == "uniform":
        return np.ones(total, dtype=np.float64), True
    if kind == "weight_or_uniform":
        if program.weighted_bias and graph.is_weighted:
            return np.asarray(pool.weights, dtype=np.float64), False
        return np.ones(total, dtype=np.float64), True
    if kind == "weight_or_degree":
        if graph.is_weighted:
            return np.asarray(pool.weights, dtype=np.float64), False
        return pool.neighbor_degrees().astype(np.float64) + 1.0, False
    return _node2vec_biases(graph, program, n2v_keys, pool), False


def _node2vec_biases(
    graph: CSRGraph,
    program: SamplingProgram,
    keys: Optional[np.ndarray],
    pool: SegmentedEdgePool,
) -> np.ndarray:
    """Second-order bias, membership answered by the sorted edge keys.

    Elementwise identical to :meth:`Node2Vec.edge_bias_batch`; the
    vectorised key search returns the same booleans as the hook's
    per-segment stamp loop (kept as the fallback when the key space
    would overflow int64).
    """
    weights = np.asarray(pool.weights, dtype=np.float64)
    lengths = pool.lengths()
    prevs = np.fromiter(
        (inst.prev_vertex for inst in pool.instances),
        dtype=np.int64,
        count=pool.num_segments,
    )
    prev_of_edge = np.repeat(prevs, lengths)
    bias = weights / program.q
    is_prev_neighbor = np.zeros(pool.size, dtype=bool)
    valid = prev_of_edge >= 0
    if keys is not None and keys.size and np.any(valid):
        probe = (
            prev_of_edge[valid] * np.int64(graph.num_vertices)
            + pool.neighbors[valid]
        )
        pos = np.minimum(np.searchsorted(keys, probe), keys.size - 1)
        is_prev_neighbor[valid] = keys[pos] == probe
    elif keys is None:
        stamps = np.full(graph.num_vertices, -1, dtype=np.int64)
        for k in np.nonzero(prevs >= 0)[0]:
            lo, hi = int(pool.offsets[k]), int(pool.offsets[k + 1])
            stamps[graph.neighbors(int(prevs[k]))] = k
            is_prev_neighbor[lo:hi] = stamps[pool.neighbors[lo:hi]] == k
    is_prev = (pool.neighbors == prev_of_edge) & valid
    bias[is_prev_neighbor] = weights[is_prev_neighbor]
    bias[is_prev] = weights[is_prev] / program.p
    first = ~valid
    bias[first] = weights[first]
    return bias


# ---------------------------------------------------------------------- #
def _pool_capped_counts(neighbor_size, program, pool, lengths, hook_mask):
    """NeighborSize = the pool's length, capped at ``max_per_vertex``."""
    requested = np.full(pool.num_segments, neighbor_size, dtype=np.int64)
    capped = np.asarray(lengths, dtype=np.int64)
    cap = program.max_per_vertex
    if cap is not None:
        capped = np.minimum(capped, int(cap))
    requested[hook_mask] = capped[hook_mask]
    return requested


# ---------------------------------------------------------------------- #
def _update_vertices(shape, pool, k, segment, accepted):
    """UPDATE from the declared shape (no shape: the default identity)."""
    if shape == "unvisited":
        return pool.instances[k].unvisited(accepted)
    if shape == "keep_src_on_dead_end" and not accepted.size:
        return np.array([int(pool.src[k])], dtype=np.int64)
    return accepted


# ---------------------------------------------------------------------- #
def _degree_plus_one(graph, selecting):
    """VERTEXBIAS = degree + 1 for every selecting instance's pool."""
    return [
        graph.degrees[inst.frontier_pool].astype(np.float64) + 1.0
        for inst in selecting
    ]
