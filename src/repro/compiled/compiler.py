"""The kernel compiler: the step-tier resolver and its cache.

:func:`resolve_step` is the one place "which code runs the depth step" is
decided, once per ``(program | algorithm name, config)`` plus the
process-wide ``REPRO_COMPILED`` switch.  Its :class:`StepResolution` is what
the planner reports, the kind a :class:`~repro.engine.step.BatchedStepEngine`
is handed to bind its hook sites, and what the executor and the shards
instantiate the walk kernel from -- so what a plan says and what runs cannot
disagree.  The route is no input: every route's loop calls the same two
kernels.

Eligibility is static: a program compiles when it *declares* a recognised
bias kind (``SamplingProgram.compiled_bias``) and every hook it overrides is
covered by a recognised declared shape (``compiled_update`` /
``compiled_neighbor_count`` / ``compiled_vertex_bias``) -- an overridden hook
with no declaration (or an ``accept`` override, which is inherently
stateful) keeps the program interpreted with an explicit reason.  It never
inspects instances, sizes or calibrations: compiled beats interpreted down
to a single walker, so the tier follows from the declared shape alone.
Eligible plans resolve to:

* ``"walk"`` -- the fused walk kernel
  (:class:`~repro.compiled.walk_kernel.CompiledWalkKernel`) for walk-shaped
  plans (single-neighbor-ish per-vertex selection with replacement, no
  frontier sub-selection, no visited tracking, no declared hook shapes):
  the executor's depth loop and partition drain and each shard's epoch call
  its ``step`` / ``expand``;
* ``"engine"`` -- the batched engine with declared-shape hook sites
  (:func:`~repro.compiled.step_engine.declared_sites`), which replaces
  hook dispatch inside the batched engine and therefore covers every other
  eligible shape on every route.

Resolutions -- refusals included, so ``explain()`` can say *why* a plan
interprets -- are memoised in the kernel cache per ``(program class + cache
token | algorithm name, config, backend fingerprint)``; flipping numba
availability or forcing a backend changes the fingerprint and can never
serve a stale kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.api.bias import SamplingProgram
from repro.api.config import PoolPolicy, SamplingConfig, SelectionScope
from repro.compiled.backends import (
    backend_fingerprint,
    compiled_enabled,
    select_backend,
)

__all__ = [
    "StepResolution",
    "clear_kernel_cache",
    "kernel_cache_stats",
    "resolve_step",
]

#: Bias kinds the compiled tier implements.
KNOWN_KINDS = (
    "uniform",
    "weight_or_degree",
    "node2vec",
    "weight_or_uniform",
)

#: Bias kinds the fused walk kernel implements (the walk kernel has no
#: weight-or-uniform specialisation; those plans run on the compiled engine).
WALK_KINDS = ("uniform", "weight_or_degree", "node2vec")

#: Declared hook shapes the compiled engine implements.
KNOWN_UPDATE_SHAPES = ("unvisited", "keep_src_on_dead_end")
KNOWN_NEIGHBOR_COUNT_SHAPES = ("pool_capped",)
KNOWN_VERTEX_BIAS_SHAPES = ("degree_plus_one",)


@dataclass(frozen=True)
class StepResolution:
    """What :func:`resolve_step` decides (and the kernel cache stores)."""

    #: ``"compiled"`` or ``"interpreted"``.
    tier: str
    #: The declared bias kind when compiled.
    kind: Optional[str] = None
    #: ``"walk"`` (fused walk kernel), ``"engine"`` (the compiled step
    #: engine drives the step; no separate kernel object) or ``"none"``
    #: (interpreted).
    kernel: str = "none"
    #: ``"numpy"`` / ``"numba"`` when compiled.
    backend: Optional[str] = None
    #: Why the plan interprets; ``None`` exactly when the tier is compiled.
    fallback: Optional[str] = None


def _interpreted(reason: str) -> StepResolution:
    return StepResolution("interpreted", fallback=reason)


# --------------------------------------------------------------------------- #
# Eligibility
# --------------------------------------------------------------------------- #
def _decide(
    program: SamplingProgram, config: SamplingConfig
) -> StepResolution:
    """Static check: which kernel runs this (program, config)."""
    cls = type(program)
    kind = getattr(program, "compiled_bias", None)
    if kind is None:
        return _interpreted("program declares no compiled bias kind")
    if kind not in KNOWN_KINDS:
        return _interpreted(f"unknown compiled bias kind {kind!r}")
    if cls.accept is not SamplingProgram.accept:
        return _interpreted("program overrides accept (stateful hook)")

    update_shape = getattr(program, "compiled_update", None)
    if update_shape is not None and update_shape not in KNOWN_UPDATE_SHAPES:
        return _interpreted(f"unknown compiled update shape {update_shape!r}")
    if cls.update is not SamplingProgram.update and update_shape is None:
        return _interpreted(
            "program overrides update without a declared shape"
        )

    ncount_shape = getattr(program, "compiled_neighbor_count", None)
    if (
        ncount_shape is not None
        and ncount_shape not in KNOWN_NEIGHBOR_COUNT_SHAPES
    ):
        return _interpreted(
            f"unknown compiled neighbor-count shape {ncount_shape!r}"
        )
    if (
        cls.neighbor_count is not SamplingProgram.neighbor_count
        and ncount_shape is None
    ):
        return _interpreted(
            "program overrides neighbor_count without a declared shape"
        )

    vbias_shape = getattr(program, "compiled_vertex_bias", None)
    if vbias_shape is not None and vbias_shape not in KNOWN_VERTEX_BIAS_SHAPES:
        return _interpreted(
            f"unknown compiled vertex-bias shape {vbias_shape!r}"
        )
    if (
        cls.vertex_bias is not SamplingProgram.vertex_bias
        or cls.vertex_bias_batch is not SamplingProgram.vertex_bias_batch
    ) and vbias_shape is None:
        return _interpreted(
            "program overrides vertex_bias without a declared shape"
        )

    if (
        kind in WALK_KINDS
        and update_shape is None
        and ncount_shape is None
        and vbias_shape is None
        and config.scope is SelectionScope.PER_VERTEX
        and config.frontier_size == 0
        and config.with_replacement
        and config.pool_policy is PoolPolicy.NEXT_LAYER
        and not config.track_visited
    ):
        # The fused walk kernel has a jittable scalar inner loop on every
        # kind (uniform draw + prefix search).
        return StepResolution("compiled", kind, "walk", select_backend())
    # The engine kernel reuses the segmented numpy SELECT verbatim.
    return StepResolution("compiled", kind, "engine", "numpy")


# --------------------------------------------------------------------------- #
# The step-tier resolver (memoised by the kernel cache)
# --------------------------------------------------------------------------- #
_KERNEL_CACHE: Dict[tuple, StepResolution] = {}
_CACHE_HITS = 0
_CACHE_MISSES = 0

_DISABLED = _interpreted("compiled tier disabled (REPRO_COMPILED)")


def resolve_step(
    config: SamplingConfig,
    *,
    program: Optional[SamplingProgram] = None,
    algorithm: Optional[str] = None,
) -> StepResolution:
    """Which code runs the depth step of one (program, config).

    Plans that carry no program object (the service plans from graph stats)
    resolve through the registry by ``algorithm`` name.  Instance *counts*
    and routes are deliberately no input: kernels are shape-generic over
    walkers, every route's loop calls the same kernels and the compiled tier
    wins at every size.
    """
    global _CACHE_HITS, _CACHE_MISSES
    if not compiled_enabled():
        return _DISABLED
    if program is not None:
        identity = (type(program), program.compiled_cache_token())
    else:
        identity = (algorithm, None)
    key = (identity, config, backend_fingerprint())
    resolution = _KERNEL_CACHE.get(key)
    if resolution is not None:
        _CACHE_HITS += 1
        return resolution
    _CACHE_MISSES += 1
    if program is None and algorithm is not None:
        from repro.algorithms.registry import ALGORITHM_REGISTRY

        info = ALGORITHM_REGISTRY.get(algorithm)
        program = info.program_factory() if info is not None else None
    if program is None:
        resolution = _interpreted("program unknown at plan time")
    else:
        resolution = _decide(program, config)
    _KERNEL_CACHE[key] = resolution
    return resolution


def kernel_cache_stats() -> Dict[str, int]:
    """Cache effectiveness counters (service metrics / tests)."""
    return {
        "entries": len(_KERNEL_CACHE),
        "hits": _CACHE_HITS,
        "misses": _CACHE_MISSES,
    }


def clear_kernel_cache() -> None:
    """Drop every cached resolution and reset the hit/miss counters."""
    global _CACHE_HITS, _CACHE_MISSES
    _KERNEL_CACHE.clear()
    _CACHE_HITS = 0
    _CACHE_MISSES = 0
