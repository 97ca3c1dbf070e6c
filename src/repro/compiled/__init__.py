"""Compiled step kernels: plan-specialized fused execution (the compiled tier).

The interpreted engine (:mod:`repro.engine.step`) re-decides everything per
step: which hooks a program overrides, how biases are evaluated, whether the
dedup detector is needed, how warp cursors advance.  For plans whose programs
*declare* their hook shapes (``compiled_bias`` / ``compiled_update`` /
``compiled_neighbor_count`` / ``compiled_vertex_bias``) all of those
decisions are fixed at plan time, so this package compiles them out through
two kernels:

* the **fused walk kernel** (:class:`~repro.compiled.walk_kernel.
  CompiledWalkKernel`) for walk-shaped plans on every route, stepped by the
  executor's depth loop and partition drain and by the shard runtimes
  through its two entry points (``step`` / ``expand``, the engine's twins):
  every walker stays in flat arrays, hook dispatch
  disappears, and the biased kinds answer selection from per-graph cached
  structures (:mod:`repro.compiled.structures`) -- flat CTPS prefixes for
  weight/degree biases, per-traversed-edge prefix rows for node2vec -- built
  once per (graph, epoch) and reused across depth steps and requests;
* the **engine kernel** -- the one :class:`~repro.engine.step.
  BatchedStepEngine` with its hook sites bound to the declared shapes
  (:func:`~repro.compiled.step_engine.declared_sites`) -- for every other
  eligible shape (without-replacement, frontier and per-layer selection,
  visited tracking) on every route: hook dispatch and per-step bias
  revalidation are replaced by the declared shapes, and biases are
  evaluated per step -- the engine reads no cached structure.

Which of the two runs is decided once per ``(program, config)`` by
:func:`~repro.compiled.compiler.resolve_step`; the route plays no part.

Each declared bias kind's formula is written once
(:func:`~repro.compiled.step_engine.kind_biases`) and shared by both
kernels and the structure cache.

Two backends sit behind one interface:

* ``"numpy"`` -- the always-available fused ndarray program;
* ``"numba"`` -- optional ``@njit`` inner loops for the walk kernel's
  uniform select and cached-prefix searches, auto-detected at import
  (:data:`NUMBA_AVAILABLE`) and exercised by the CI ``compiled-smoke`` job's
  with-numba leg.

Bit-compatibility is the contract: the compiled tier draws the same
``(instance, depth, slot, warp, lane, attempt)`` RNG keys and charges the
same per-segment cost-model counters as the interpreted engine, so samples,
iteration counts, per-kernel records and simulated times are identical
(asserted by the ``compiled`` cells of
``tests/integration/test_bitcompat_matrix.py``).  See ``docs/compiled.md``.
"""

from repro.compiled.backends import (
    NUMBA_AVAILABLE,
    available_backends,
    backend_fingerprint,
    compiled_enabled,
    force_backend,
    select_backend,
)
from repro.compiled.compiler import (
    StepResolution,
    clear_kernel_cache,
    kernel_cache_stats,
    resolve_step,
)
from repro.compiled.step_engine import declared_sites
from repro.compiled.structures import (
    GraphStructures,
    Node2VecPrefixTable,
    clear_structure_cache,
    evict_graph,
    get_structures,
    structure_cache_stats,
)

__all__ = [
    "NUMBA_AVAILABLE",
    "available_backends",
    "backend_fingerprint",
    "compiled_enabled",
    "force_backend",
    "select_backend",
    "StepResolution",
    "clear_kernel_cache",
    "kernel_cache_stats",
    "resolve_step",
    "declared_sites",
    "GraphStructures",
    "Node2VecPrefixTable",
    "clear_structure_cache",
    "evict_graph",
    "get_structures",
    "structure_cache_stats",
]
