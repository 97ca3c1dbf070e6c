"""``plan(request) -> ExecutionPlan``: the one place a run is described.

Every sampling entry point -- :class:`~repro.api.sampler.GraphSampler`,
:class:`~repro.oom.scheduler.OutOfMemorySampler`,
:func:`~repro.engine.hetero.run_coalesced`,
:func:`~repro.oom.multigpu.run_multi_gpu_sampling`, the sharded cluster and
the sampling service -- builds a :class:`~repro.planner.plan.ExecutionPlan`
here and hands it, as built, to the shared
:class:`~repro.planner.executor.Executor`.

Three decisions live in this module, each in one function:

* **routing** -- :func:`plan_admission` (through :func:`plan_route`): a
  graph within the memory budget is ``"in_memory"``; an over-budget graph
  is ``"sharded"`` when ``cluster_shards > 0`` (parallel shards beat the
  serial partition-scheduled sampler on every realistic layout) and
  ``"out_of_memory"`` otherwise.  :func:`plan` never routes: every caller
  names the route (``force_route``) -- a facade *is* its tier, and the
  service passes the admitted one;
* **layout** -- :func:`_layout`, the one sizing rule admission and
  :func:`plan` share: shard counts so every shard's partition fits the
  budget, out-of-memory partitions of at most the budget;
* **fusion** -- :func:`scale_plan`: a unit of several members becomes
  ``"coalesced"`` exactly when its class plan is in-memory and
  ``coalescable`` (stateful-hook programs never share an engine batch);
  otherwise it keeps its route and its members run one by one.

Seed validation happens at plan time, uniformly: every facade raises the
same :class:`~repro.planner.errors.SeedValidationError` for an empty seed
list, out-of-range vertex ids or duplicate seeds inside one instance's
pool.  The service validates at submit time and plans without instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.api.bias import SamplingProgram
from repro.api.config import SamplingConfig
from repro.api.instance import InstanceBatch
from repro.compiled.compiler import resolve_step
from repro.gpusim.device import DeviceSpec, V100_SPEC
from repro.oom.scheduler import OutOfMemoryConfig
from repro.planner.calibration import load_calibration
from repro.planner.cost import predict_cost, predict_time_s
from repro.planner.errors import PlanError
from repro.planner.plan import ExecutionPlan, PartitionLayout

__all__ = [
    "GraphStats",
    "PlanRequest",
    "plan",
    "plan_admission",
    "plan_route",
    "scale_plan",
]


# --------------------------------------------------------------------------- #
# Plan requests
# --------------------------------------------------------------------------- #
@dataclass
class PlanRequest:
    """Everything the planner may inspect when describing one run.

    Facades fill the subset they know: the standalone samplers pass a live
    ``graph`` object, their resolved ``program`` and the instances they
    built; the service passes graph *stats* (from its shared-memory handle)
    and no instances (it validated the request's batch at submit time).
    """

    graph: Optional[object] = None  # CSRGraph / DeltaGraph
    config: Optional[SamplingConfig] = None
    algorithm: Optional[str] = None
    program: Optional[SamplingProgram] = None
    #: Instances of a standalone run (validated at plan time).
    instances: Optional[InstanceBatch] = None
    #: Member batches of a coalesced run (validated at plan time).
    members: Optional[Sequence[InstanceBatch]] = None
    #: Instance count when neither instances nor members are given.
    num_instances: Optional[int] = None
    memory_budget_bytes: Optional[int] = None
    oom_config: Optional[OutOfMemoryConfig] = None
    #: Shard-range boundaries already chosen by the caller (cluster facade).
    boundaries: Optional[np.ndarray] = None
    #: The route to plan (required): a facade's own tier, or the service's
    #: admitted one (:func:`plan_admission` is the router).
    force_route: Optional[str] = None
    #: Override when the program object is not available (the registry
    #: program's ``supports_coalescing`` otherwise).
    coalescable: Optional[bool] = None
    #: Graph stats when no graph object is available (service handles).
    graph_num_vertices: Optional[int] = None
    graph_num_edges: Optional[int] = None
    graph_nbytes: Optional[int] = None
    spec: DeviceSpec = field(default=V100_SPEC)


def plan_route(
    nbytes: int,
    *,
    memory_budget_bytes: Optional[int],
    cluster_shards: int,
) -> str:
    """Admission decision alone: which tier serves a graph of ``nbytes``.

    Within budget is always ``"in_memory"``.  Over budget, the parallel
    shards (``"sharded"``) serve when ``cluster_shards > 0``, and the serial
    partition-scheduled sampler (``"out_of_memory"``) otherwise.
    """
    if memory_budget_bytes is None or nbytes <= memory_budget_bytes:
        return "in_memory"
    return "sharded" if cluster_shards else "out_of_memory"


class GraphStats:
    """Duck-typed stand-in for a CSRGraph when only stats are known."""

    def __init__(self, num_vertices: int, num_edges: int, nbytes: int):
        self.num_vertices = int(num_vertices)
        self.num_edges = int(num_edges)
        self.nbytes = int(nbytes)

    @property
    def average_degree(self) -> float:
        if self.num_vertices == 0:
            return 0.0
        return self.num_edges / self.num_vertices


def _layout(route: str, *, nbytes: int, num_vertices: int,
            budget: Optional[int], oom_config=None, shard_floor: int = 1,
            graph=None, boundaries=None) -> PartitionLayout:
    """The route's partition layout, the one sizing rule of admission and
    :func:`plan`: partitions of at most ``budget`` bytes.  Without a graph,
    sharded boundaries are left to the Executor (shard-count invariance makes
    the exact split irrelevant to results)."""
    per = max(int(budget if budget is not None else nbytes), 1)
    needed = -(-int(nbytes) // per)
    if route == "out_of_memory":
        oom = oom_config or OutOfMemoryConfig.fully_optimized(
            num_partitions=max(2, needed), max_resident_partitions=2,
            num_kernels=2,
        )
        return PartitionLayout(
            kind="oom_partitions", num_partitions=oom.num_partitions, oom=oom
        )
    if route != "sharded":
        return PartitionLayout()
    if boundaries is None:
        num_shards = min(max(int(shard_floor), needed, 1), max(num_vertices, 1))
        if graph is None:
            return PartitionLayout(kind="shard_ranges", num_partitions=num_shards)
        from repro.graph.partition import partition_bounds

        boundaries = partition_bounds(graph, num_shards)
    boundaries = tuple(int(b) for b in np.asarray(boundaries))
    return PartitionLayout(
        kind="shard_ranges", num_partitions=len(boundaries) - 1,
        boundaries=boundaries,
    )


def plan_admission(
    *,
    num_vertices: int,
    num_edges: int,
    nbytes: int,
    memory_budget_bytes: Optional[int],
    cluster_shards: int = 0,
    oom_config: Optional[OutOfMemoryConfig] = None,
) -> Tuple[str, PartitionLayout]:
    """Admission-time ``(route, layout)`` for one published graph epoch.

    This is the config-independent half of planning: the service calls it
    once per ``(graph, epoch)`` when a graph is loaded (or re-planned) and
    freezes the result, so later budget changes never resize an admitted
    graph's partitions out from under its documented sizing.  The
    config-dependent half (fusion grouping, predicted cost) is planned per
    ``(graph, epoch, algorithm, config)`` and cached.
    """
    route = plan_route(
        nbytes,
        memory_budget_bytes=memory_budget_bytes,
        cluster_shards=cluster_shards,
    )
    return route, _layout(
        route, nbytes=nbytes, num_vertices=num_vertices,
        budget=memory_budget_bytes, oom_config=oom_config,
        shard_floor=cluster_shards,
    )


def _predict_for_layout(
    stats: "GraphStats",
    config: SamplingConfig,
    num_instances: int,
    route: str,
    layout: PartitionLayout,
    spec: DeviceSpec,
):
    """Predicted ``(cost, time_s)`` for one routed layout.

    The single place that encodes how a layout feeds the cost model: an
    out-of-memory layout charges its partition transfers, a sharded layout
    divides the overlappable time by its shard count.
    """
    oom = layout.oom
    predicted = predict_cost(
        stats, config, num_instances,
        route="out_of_memory" if oom is not None else route,
        num_partitions=(
            oom.num_partitions if oom is not None else layout.num_partitions
        ),
        max_resident_partitions=(
            oom.max_resident_partitions if oom is not None else 1
        ),
    )
    predicted_time = predict_time_s(
        stats, config, num_instances,
        route=route,
        num_partitions=oom.num_partitions if oom is not None else 1,
        max_resident_partitions=(
            oom.max_resident_partitions if oom is not None else 1
        ),
        num_shards=layout.num_partitions if route == "sharded" else 1,
        spec=spec,
    )
    return predicted, predicted_time


def _calibrated_time_s(predicted_time_s: float, step_tier: str) -> float:
    """Host wall estimate for the chosen tier (pricing only, never routing)."""
    calibration = load_calibration()
    calibrated = calibration.calibrated_time_s(predicted_time_s)
    if step_tier == "compiled":
        calibrated /= calibration.compiled_speedup
    return calibrated


def _warp_cursors(route: str) -> str:
    """The RNG-stream numbering that keeps a route bit-identical."""
    return {"coalesced": "per_member", "sharded": "per_walker"}.get(
        route, "global"
    )


def scale_plan(
    base: ExecutionPlan,
    member_sizes: Sequence[int],
    *,
    spec: DeviceSpec = V100_SPEC,
) -> ExecutionPlan:
    """Specialise a cached class-level plan to one dispatch unit.

    The service caches one :class:`ExecutionPlan` per ``(graph, epoch,
    algorithm, config)`` -- everything expensive (routing, layout sizing,
    coalescability) -- and cheaply re-scales it per batch.  This is the one
    place fusion is decided: an in-memory class with several members becomes
    a ``"coalesced"`` unit when the class is ``coalescable``; any other unit
    keeps its route (its members then run one by one), and a single member
    is never coalesced.  The predicted cost is recomputed for the unit's
    instance count from the closed-form model.
    """
    member_sizes = tuple(int(m) for m in member_sizes)
    total = int(sum(member_sizes))
    route = base.route
    if route in ("in_memory", "coalesced"):
        fused = len(member_sizes) > 1 and base.coalescable
        route = "coalesced" if fused else "in_memory"
    stats = GraphStats(
        base.graph_num_vertices, base.graph_num_edges, base.graph_nbytes
    )
    predicted, predicted_time = _predict_for_layout(
        stats, base.config, total, route, base.layout, spec
    )
    # The tier decision carries over unchanged (eligibility is identical for
    # the in_memory and coalesced routes and depends only on program/config),
    # but the calibrated wall estimate tracks the rescaled prediction.
    return replace(
        base,
        route=route,
        warp_cursors=_warp_cursors(route),
        num_instances=total,
        member_sizes=member_sizes,
        predicted_cost=predicted,
        predicted_time_s=predicted_time,
        calibrated_time_s=_calibrated_time_s(predicted_time, base.step_tier),
    )


# --------------------------------------------------------------------------- #
# The planner
# --------------------------------------------------------------------------- #
def plan(request: PlanRequest) -> ExecutionPlan:
    """Turn a :class:`PlanRequest` into a declarative :class:`ExecutionPlan`."""
    graph = request.graph
    if graph is not None:
        from repro.graph.delta import as_csr

        graph = as_csr(graph)
        num_vertices = graph.num_vertices
        num_edges = graph.num_edges
        nbytes = graph.nbytes
    else:
        if request.graph_num_vertices is None or request.graph_nbytes is None:
            raise PlanError("plan needs a graph or explicit graph stats")
        num_vertices = int(request.graph_num_vertices)
        num_edges = int(request.graph_num_edges or 0)
        nbytes = int(request.graph_nbytes)
    if num_vertices == 0:
        raise PlanError("cannot sample an empty graph")
    stats = GraphStats(num_vertices, num_edges, nbytes)

    config = request.config
    if config is None:
        if request.algorithm is None:
            raise PlanError("plan needs a config or a registry algorithm")
        from repro.algorithms.registry import default_config

        config = default_config(request.algorithm)

    program = request.program
    program_name = type(program).__name__ if program is not None else (
        request.algorithm or ""
    )
    if request.coalescable is not None:
        coalescable = bool(request.coalescable)
    elif program is not None:
        coalescable = bool(program.supports_coalescing)
    elif request.algorithm is not None:
        from repro.algorithms.registry import ALGORITHM_REGISTRY

        # Advisory only: an unknown algorithm must keep failing where it
        # always failed (program construction in the executing tier), not
        # at plan time.
        info = ALGORITHM_REGISTRY.get(request.algorithm)
        coalescable = (
            bool(info.program_factory().supports_coalescing)
            if info is not None
            else True
        )
    else:
        coalescable = True

    # ------------------------------------------------------------------ #
    # Seed validation: uniform, at plan time.
    # ------------------------------------------------------------------ #
    batch = (
        InstanceBatch.concat(request.members)
        if request.members is not None
        else request.instances
    )
    if batch is not None:
        batch.validate(
            num_vertices, reject_duplicates=not config.with_replacement
        )
        num_instances = len(batch)
    else:
        num_instances = int(request.num_instances or 1)
    member_sizes = (
        tuple(len(m) for m in request.members)
        if request.members is not None
        else (num_instances,)
    )

    # ------------------------------------------------------------------ #
    # Route: named by the caller (plan_admission is the router)
    # ------------------------------------------------------------------ #
    route = request.force_route
    if route is None:
        raise PlanError(
            "plan needs force_route: the facade's own tier, or the route "
            "plan_admission chose"
        )
    if route == "coalesced" and len(member_sizes) > 1 and not coalescable:
        raise PlanError(
            f"program {program_name or '?'} has stateful hooks and cannot "
            "share a coalesced batch"
        )

    # ------------------------------------------------------------------ #
    # Partition layout
    # ------------------------------------------------------------------ #
    layout = _layout(
        route, nbytes=nbytes, num_vertices=num_vertices,
        budget=request.memory_budget_bytes, oom_config=request.oom_config,
        graph=graph, boundaries=request.boundaries,
    )

    warp_cursors = _warp_cursors(route)

    # ------------------------------------------------------------------ #
    # Cost prediction
    # ------------------------------------------------------------------ #
    predicted, predicted_time = _predict_for_layout(
        stats, config, num_instances, route, layout, request.spec
    )

    # ------------------------------------------------------------------ #
    # Step tier (from eligibility alone) + host calibration
    # ------------------------------------------------------------------ #
    resolution = resolve_step(
        config, program=program, algorithm=request.algorithm
    )

    return ExecutionPlan(
        route=route,
        config=config,
        algorithm=request.algorithm,
        program_name=program_name,
        coalescable=coalescable,
        num_instances=num_instances,
        member_sizes=member_sizes,
        warp_cursors=warp_cursors,
        layout=layout,
        graph_num_vertices=num_vertices,
        graph_num_edges=num_edges,
        graph_nbytes=nbytes,
        memory_budget_bytes=request.memory_budget_bytes,
        predicted_cost=predicted,
        predicted_time_s=predicted_time,
        step_tier=resolution.tier,
        compiled_backend=resolution.backend,
        compiled_fallback=resolution.fallback,
        calibrated_time_s=_calibrated_time_s(predicted_time, resolution.tier),
    )
