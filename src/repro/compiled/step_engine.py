"""The compiled step engine: hook-free specialisation of the batched engine.

The fused walk kernel (:mod:`repro.compiled.walk_kernel`) covers walk-shaped
plans on the routes it has a driver for (the in-memory / coalesced depth loop
and the out-of-memory partition drain).  Every *other* eligible shape --
without-replacement selection, frontier selection, per-layer scope, visited
tracking, on every route including :meth:`expand_entries` drains -- and every
shape on the sharded route's per-shard engines runs on
:class:`CompiledStepEngine`: a :class:`~repro.engine.step.BatchedStepEngine`
whose hook evaluation is replaced by the program's *declared* shapes
(``compiled_bias`` / ``compiled_update`` / ``compiled_neighbor_count`` /
``compiled_vertex_bias``), so the hot loop never dispatches user hooks,
never re-validates bias arrays, and answers node2vec membership probes from
the structure cache's sorted edge keys.

Bit-compatibility: every override computes exactly the values the declared
hook computes (the declarations are promises, checked by the compiler's
eligibility pass) at the exact call sites the interpreted engine evaluates
them, so RNG keys, cost charges, samples and iteration counts are identical
-- the compiled axis of ``tests/integration/test_cross_route_matrix.py``
pins this for all four routes.
"""

from __future__ import annotations

import numpy as np

from repro.api.bias import SamplingProgram, SegmentedEdgePool
from repro.api.config import SamplingConfig
from repro.compiled.compiler import resolve_step
from repro.engine.step import BatchedStepEngine
from repro.gpusim.prng import CounterRNG
from repro.graph.csr import CSRGraph

__all__ = ["CompiledStepEngine", "make_step_engine"]


class CompiledStepEngine(BatchedStepEngine):
    """Batched engine with declared-shape hook evaluation compiled in."""

    def __init__(
        self,
        graph: CSRGraph,
        program: SamplingProgram,
        config: SamplingConfig,
        rng: CounterRNG,
        *,
        kind: str,
    ):
        super().__init__(graph, program, config, rng)
        self.kind = kind
        self._update_shape = getattr(program, "compiled_update", None)
        self._ncount_shape = getattr(program, "compiled_neighbor_count", None)
        self._vbias_shape = getattr(program, "compiled_vertex_bias", None)
        self._structures = None
        self._n2v_keys = None
        if kind in ("weight_or_degree", "node2vec"):
            from repro.compiled.structures import get_structures

            self._structures = get_structures(graph, "weight_or_degree")
            if kind == "node2vec":
                self._n2v_keys = get_structures(
                    graph, "node2vec"
                ).sorted_edge_keys

    # ------------------------------------------------------------------ #
    def _edge_biases(self, pool, *, validate_values):
        """EDGEBIAS from the declared kind -- no dispatch, no revalidation.

        The ``uniform`` flag may be truer than the interpreted engine's
        (which reports ``False`` for any overridden hook): downstream it
        only short-circuits positive-bias counting and value validation,
        both of which are value-identical for all-ones biases.
        """
        total = pool.size
        kind = self.kind
        if kind == "uniform":
            return np.ones(total, dtype=np.float64), True
        if kind == "weight_or_uniform":
            if self.program.weighted_bias and self.graph.is_weighted:
                return np.asarray(pool.weights, dtype=np.float64), False
            return np.ones(total, dtype=np.float64), True
        if kind == "weight_or_degree":
            if self.graph.is_weighted:
                return np.asarray(pool.weights, dtype=np.float64), False
            return pool.neighbor_degrees().astype(np.float64) + 1.0, False
        return self._node2vec_biases(pool), False

    def _node2vec_biases(self, pool: SegmentedEdgePool) -> np.ndarray:
        """Second-order bias, membership answered by the sorted edge keys.

        Elementwise identical to :meth:`Node2Vec.edge_bias_batch`; the
        vectorised key search returns the same booleans as the hook's
        per-segment stamp loop (kept as the fallback when the key space
        would overflow int64).
        """
        program = self.program
        graph = self.graph
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
        keys = self._n2v_keys
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

    # ------------------------------------------------------------------ #
    def _neighbor_counts(self, pool, lengths, hook_mask):
        if self._ncount_shape != "pool_capped":
            return super()._neighbor_counts(pool, lengths, hook_mask)
        requested = np.full(
            pool.num_segments, self.config.neighbor_size, dtype=np.int64
        )
        capped = np.asarray(lengths, dtype=np.int64)
        cap = self.program.max_per_vertex
        if cap is not None:
            capped = np.minimum(capped, int(cap))
        requested[hook_mask] = capped[hook_mask]
        return requested

    # ------------------------------------------------------------------ #
    def _update_vertices(self, pool, k, segment, accepted):
        shape = self._update_shape
        if shape == "unvisited":
            return pool.instances[k].unvisited(accepted)
        if shape == "keep_src_on_dead_end":
            if accepted.size:
                return accepted
            return np.array([int(pool.src[k])], dtype=np.int64)
        return accepted  # declared-default update is the identity

    # ------------------------------------------------------------------ #
    def _frontier_biases(self, active):
        if self._vbias_shape != "degree_plus_one":
            return super()._frontier_biases(active)
        cfg = self.config
        if cfg.frontier_size == 0:
            return {}
        return {
            id(inst): self.graph.degrees[inst.frontier_pool].astype(
                np.float64
            )
            + 1.0
            for inst in active
            if inst.pool_size > cfg.frontier_size
        }


def make_step_engine(
    graph: CSRGraph,
    program: SamplingProgram,
    config: SamplingConfig,
    rng: CounterRNG,
    route: str,
) -> BatchedStepEngine:
    """The step engine every route constructs through.

    Returns the compiled specialisation exactly when the route's
    :func:`~repro.compiled.compiler.resolve_step` says ``"compiled"`` -- the
    same resolution the plan reports -- and the interpreted engine
    otherwise.  Both produce bit-identical results, so the choice never
    changes observable output -- only whether hook dispatch survives into
    the hot loop.
    """
    resolution = resolve_step(config, route, program=program)
    if resolution.tier == "compiled":
        return CompiledStepEngine(
            graph, program, config, rng, kind=resolution.kind
        )
    return BatchedStepEngine(graph, program, config, rng)
