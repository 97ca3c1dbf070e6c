"""Declared-shape hook sites: the batched engine's compiled specialisation.

The fused walk kernel (:mod:`repro.compiled.walk_kernel`) covers walk-shaped
plans on every route.  Every *other* eligible shape -- without-replacement
selection, frontier selection, per-layer scope, visited tracking, on every
route including ``expand_entries`` drains and the shards' envelope steps --
runs on the one :class:`~repro.engine.step.BatchedStepEngine`, whose four
hook sites are bound at construction to the functions below: the program's
*declared* shapes (``compiled_bias`` / ``compiled_update`` /
``compiled_neighbor_count`` / ``compiled_vertex_bias``) evaluated directly,
so the hot loop never dispatches user hooks and never re-validates bias
arrays.  The engine reads
no cached structure: it evaluates biases per step.

:func:`kind_biases` is the one formula of each declared bias kind.  The
engine's bias site, the walk kernel's node2vec prefix-row builds and the
structure cache's graph-wide weight/degree table all call it, so each
kind's arithmetic exists once in the compiled tier (the program hooks stay
the independent reference the interpreted tier runs).

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

from repro.api.bias import SamplingProgram
from repro.api.config import SamplingConfig
from repro.graph.csr import CSRGraph

__all__ = ["declared_sites", "kind_biases"]


def declared_sites(
    graph: CSRGraph, program: SamplingProgram, config: SamplingConfig, kind: str
) -> Dict[str, Callable]:
    """The engine's hook sites specialised to ``program``'s declared shapes.

    Keys are the engine's site names (``edge_biases`` / ``update_vertices``
    always; ``neighbor_counts`` / ``frontier_biases`` when the program
    declares a shape for them -- an eligible program that declares none does
    not override the hook, so the engine's own site is already hook-free).
    """
    sites = {
        "edge_biases": partial(_edge_biases, graph, program, kind),
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
def kind_biases(
    kind: str,
    graph: CSRGraph,
    program: Optional[SamplingProgram],
    neighbors: np.ndarray,
    weights: Optional[np.ndarray],
    offsets: Optional[np.ndarray] = None,
    prevs: Optional[np.ndarray] = None,
) -> Optional[np.ndarray]:
    """EDGEBIAS of a declared bias ``kind`` over pools stored back to back.

    ``neighbors`` / ``weights`` are the flat candidate ids and their edge
    weights (``weights`` is ``None`` exactly on unweighted graphs);
    node2vec also needs the pools' ``(K + 1,)`` ``offsets`` and each pool's
    walker's ``prevs`` (-1 at a seed).  Returns ``None`` when every bias is
    1, so callers that know the pool size need not materialise the ones.

    Elementwise the formula the program's hooks compute (the declaration is
    that promise): node2vec's "is the candidate next to ``prev``" test is
    :meth:`Node2Vec.edge_bias_batch`'s per-pool stamp loop, and every value
    is independent of which other pools share the batch.
    """
    if kind == "weight_or_degree":
        if weights is None:
            return graph.degrees[neighbors] + 1.0  # int64 + 1.0: exact
        return np.asarray(weights, dtype=np.float64)
    if kind == "weight_or_uniform":
        if weights is None or not program.weighted_bias:
            return None
        return np.asarray(weights, dtype=np.float64)
    if kind != "node2vec":
        return None
    weights = (
        np.ones(neighbors.size, dtype=np.float64) if weights is None
        else np.asarray(weights, dtype=np.float64)
    )
    prev_of_edge = np.repeat(prevs, np.diff(offsets))
    bias = weights / program.q  # distance 2 from prev
    is_prev_neighbor = np.zeros(neighbors.size, dtype=bool)
    stamps = np.full(graph.num_vertices, -1, dtype=np.int64)
    for k in np.nonzero(prevs >= 0)[0]:
        lo, hi = int(offsets[k]), int(offsets[k + 1])
        stamps[graph.neighbors(int(prevs[k]))] = k
        is_prev_neighbor[lo:hi] = stamps[neighbors[lo:hi]] == k
    is_prev = (neighbors == prev_of_edge) & (prev_of_edge >= 0)
    bias[is_prev_neighbor] = weights[is_prev_neighbor]  # distance 1
    bias[is_prev] = weights[is_prev] / program.p  # distance 0 (return)
    first = prev_of_edge < 0  # a walk's first step: plain weighted pick
    bias[first] = weights[first]
    return bias


def _edge_biases(graph, program, kind, pool, *, validate_values):
    """EDGEBIAS from the declared kind -- no dispatch, no revalidation.

    The ``uniform`` flag may be truer than the hook-dispatching site's
    (which reports ``False`` for any overridden hook): downstream it
    only short-circuits positive-bias counting and value validation,
    both of which are value-identical for all-ones biases.
    """
    prevs = None
    if kind == "node2vec":
        prevs = np.fromiter(
            (inst.prev_vertex for inst in pool.instances),
            dtype=np.int64,
            count=pool.num_segments,
        )
    biases = kind_biases(
        kind, graph, program, pool.neighbors,
        pool.weights if graph.is_weighted else None, pool.offsets, prevs,
    )
    if biases is None:
        return np.ones(pool.size, dtype=np.float64), True
    return biases, False


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
