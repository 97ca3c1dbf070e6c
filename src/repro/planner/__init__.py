"""Unified execution planner: one plan/execute runtime behind every entry point.

``plan(request)`` inspects graph size vs. memory budget, shard count,
program coalescability and the cost-model estimate and emits a declarative
:class:`ExecutionPlan` (route, partition layout, fusion grouping,
warp-cursor assignment, predicted cost); :class:`Executor` runs any plan on
the :class:`~repro.engine.step.BatchedStepEngine`.  See ``docs/planner.md``.

Attribute access is lazy (PEP 562): the error types live in a leaf module
that low layers import while the rest of the planner imports *them*.
"""

from __future__ import annotations

_EXPORTS = {
    "PlanError": "repro.planner.errors",
    "SeedValidationError": "repro.planner.errors",
    "ExecutionPlan": "repro.planner.plan",
    "PartitionLayout": "repro.planner.plan",
    "GraphStats": "repro.planner.planner",
    "PlanRequest": "repro.planner.planner",
    "plan": "repro.planner.planner",
    "plan_admission": "repro.planner.planner",
    "plan_route": "repro.planner.planner",
    "scale_plan": "repro.planner.planner",
    "predict_cost": "repro.planner.cost",
    "predict_time_s": "repro.planner.cost",
    "Executor": "repro.planner.executor",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return __all__
