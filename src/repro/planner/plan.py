"""The declarative execution plan.

An :class:`ExecutionPlan` is everything the runtime needs to know about *how*
a sampling request will execute, decided before anything runs: the route
(which tier samples it), the partition layout (how the graph is split for
that tier), the fusion grouping (which members share one engine batch) and
the warp-cursor assignment (which RNG-stream numbering keeps the run
bit-identical to a standalone one).  Plans are plain picklable data -- they
cross the service's process boundary and are cached per
``(graph, epoch, algorithm, config)``.

:meth:`ExecutionPlan.explain` renders the plan as a human-readable dry run;
the service exposes the same information as ``SampleResponse.plan``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.api.config import SamplingConfig
from repro.gpusim.costmodel import CostModel
from repro.oom.scheduler import OutOfMemoryConfig
from repro.planner.errors import PlanError

__all__ = ["PartitionLayout", "ExecutionPlan"]

#: Valid ``ExecutionPlan.route`` values.
ROUTES = ("in_memory", "coalesced", "out_of_memory", "sharded")


def _format_bytes(nbytes: int) -> str:
    value = float(nbytes)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024.0 or unit == "GiB":
            return f"{value:.1f} {unit}" if unit != "B" else f"{int(value)} B"
        value /= 1024.0
    return f"{value:.1f} GiB"  # pragma: no cover - unreachable


@dataclass(frozen=True)
class PartitionLayout:
    """How the graph is split for the plan's route.

    ``kind`` is ``"none"`` (in-memory / coalesced: the whole CSR is
    resident), ``"oom_partitions"`` (serial partition scheduling through
    device memory, described by ``oom``), ``"shard_ranges"`` (one
    contiguous vertex range per cluster shard, ``boundaries`` as produced by
    :func:`repro.graph.partition.partition_bounds`) or ``"device_groups"``
    (Fig. 17: an in-memory plan's instances split into ``num_partitions``
    contiguous groups, one simulated GPU each, group ``g`` at
    ``config.seed + g``).
    """

    kind: str = "none"
    num_partitions: int = 1
    #: Shard-range boundaries (``kind == "shard_ranges"``), length
    #: ``num_partitions + 1``.
    boundaries: Tuple[int, ...] = ()
    #: Out-of-memory scheduling switches (``kind == "oom_partitions"``).
    oom: Optional[OutOfMemoryConfig] = None

    def __post_init__(self) -> None:
        if self.num_partitions < 1:
            raise PlanError(f"a {self.kind} layout needs at least one partition")

    def describe(self, graph_nbytes: int) -> str:
        """One explain() line for this layout."""
        if self.kind == "oom_partitions":
            oom = self.oom or OutOfMemoryConfig()
            opts = "+".join(
                label
                for flag, label in (
                    (oom.batched, "BA"),
                    (oom.workload_aware, "WS"),
                    (oom.balanced_blocks, "BAL"),
                )
                if flag
            ) or "baseline"
            per = _format_bytes(graph_nbytes // max(oom.num_partitions, 1))
            return (
                f"{oom.num_partitions} scheduled partitions (~{per} each), "
                f"max resident {oom.max_resident_partitions}, "
                f"{oom.num_kernels} concurrent kernels, {opts}"
            )
        if self.kind == "shard_ranges":
            per = _format_bytes(graph_nbytes // max(self.num_partitions, 1))
            return (
                f"{self.num_partitions} cluster shards (~{per} each), "
                f"contiguous vertex ranges {list(self.boundaries)}"
            )
        if self.kind == "device_groups":
            return (f"{self.num_partitions} device groups (contiguous instance "
                    "ranges, whole graph resident on each GPU; group g runs "
                    "at seed + g, instance ids from 0)")
        return "whole graph resident (no partitioning)"


@dataclass(frozen=True)
class ExecutionPlan:
    """Declarative description of how one sampling run will execute."""

    #: ``"in_memory"``, ``"coalesced"``, ``"out_of_memory"`` or ``"sharded"``.
    route: str
    config: SamplingConfig
    #: Registry algorithm name when known (service / cluster entry points).
    algorithm: Optional[str] = None
    #: The resolved program's class name (always known).
    program_name: str = ""
    #: Whether the program's hooks allow sharing an engine batch.
    coalescable: bool = True
    num_instances: int = 0
    #: Fusion grouping: instance count of each member sharing the batch
    #: (one entry for standalone runs, one per request when coalesced).
    member_sizes: Tuple[int, ...] = ()
    #: Warp-cursor assignment: ``"global"`` (one engine-wide cursor),
    #: ``"per_member"`` (coalesced: each member replays its standalone
    #: stream) or ``"per_walker"`` (sharded: the cursor migrates with the
    #: walker).
    warp_cursors: str = "global"
    layout: PartitionLayout = field(default_factory=PartitionLayout)
    #: Graph footprint the routing decision was made against.
    graph_num_vertices: int = 0
    graph_num_edges: int = 0
    graph_nbytes: int = 0
    memory_budget_bytes: Optional[int] = None
    #: Analytic cost estimate (see :mod:`repro.planner.cost`).
    predicted_cost: Optional[CostModel] = None
    predicted_time_s: float = 0.0
    #: Which step engine runs the depth loop: ``"interpreted"`` (the hook
    #: dispatching :class:`~repro.engine.step.BatchedStepEngine`) or
    #: ``"compiled"`` (a plan-specialised fused kernel, see
    #: :mod:`repro.compiled`).
    step_tier: str = "interpreted"
    #: Compiled backend (``"numpy"`` / ``"numba"``) when ``step_tier`` is
    #: ``"compiled"``.
    compiled_backend: Optional[str] = None
    #: Why the plan interprets, when a compiled tier exists but was not
    #: chosen (eligibility failure or the ``REPRO_COMPILED`` switch).
    compiled_fallback: Optional[str] = None
    #: ``predicted_time_s`` scaled by the host calibration constant
    #: (:mod:`repro.planner.calibration`): the planner's estimate of actual
    #: wall time for the chosen tier.
    calibrated_time_s: float = 0.0

    def __post_init__(self) -> None:
        if self.route not in ROUTES:
            raise ValueError(f"unknown route {self.route!r}; known: {ROUTES}")

    # ------------------------------------------------------------------ #
    @property
    def over_budget(self) -> bool:
        """Whether the graph exceeds the memory budget the plan saw."""
        return (
            self.memory_budget_bytes is not None
            and self.graph_nbytes > self.memory_budget_bytes
        )

    # ------------------------------------------------------------------ #
    def explain(self) -> str:
        """Human-readable dry run: route, sizing, fusion, predicted cost."""
        budget = (
            "no memory budget"
            if self.memory_budget_bytes is None
            else f"budget {_format_bytes(self.memory_budget_bytes)}"
            + (" -> over budget" if self.over_budget else " -> fits")
        )
        cfg = self.config
        program = self.program_name or "?"
        if self.algorithm and self.algorithm != self.program_name:
            program = f"{self.algorithm} ({self.program_name})"
        members = (
            f"{len(self.member_sizes)} fusion group(s) "
            f"of sizes {list(self.member_sizes)}"
            if len(self.member_sizes) > 1
            else "1 fusion group"
        )
        lines = [
            f"ExecutionPlan: route={self.route}",
            f"  graph: {self.graph_num_vertices} vertices, "
            f"{self.graph_num_edges} edges, "
            f"{_format_bytes(self.graph_nbytes)} ({budget})",
            f"  program: {program} "
            f"({'coalescable' if self.coalescable else 'stateful hooks, never fused'})",
            f"  config: depth={cfg.depth}, neighbor_size={cfg.neighbor_size}, "
            f"frontier_size={cfg.frontier_size}, scope={cfg.scope.value}, "
            f"strategy={cfg.strategy.value}, seed={cfg.seed}",
            f"  instances: {self.num_instances} in {members}; "
            f"warp cursors: {self.warp_cursors}",
            f"  layout: {self.layout.describe(self.graph_nbytes)}",
        ]
        if self.step_tier == "compiled":
            lines.append(f"  step tier: compiled ({self.compiled_backend} backend)")
        else:
            tier = "  step tier: interpreted"
            if self.compiled_fallback:
                tier += f" ({self.compiled_fallback})"
            lines.append(tier)
        if self.predicted_cost is not None:
            pc = self.predicted_cost
            lines.append(
                f"  predicted: {self.predicted_time_s:.3e} s simulated "
                f"(rng_draws={pc.rng_draws}, sampled_edges={pc.sampled_edges}, "
                f"global_bytes={pc.global_bytes}, h2d_bytes={pc.h2d_bytes}, "
                f"kernel_launches={pc.kernel_launches})"
            )
        if self.calibrated_time_s > 0.0:
            lines.append(
                f"  calibrated: {self.calibrated_time_s:.3e} s host wall estimate"
            )
        return "\n".join(lines)

    def summary(self) -> Dict[str, object]:
        """Flat picklable summary (``SampleResponse.plan`` metadata)."""
        out: Dict[str, object] = {
            "route": self.route,
            "algorithm": self.algorithm,
            "program": self.program_name,
            "coalescable": self.coalescable,
            "num_instances": self.num_instances,
            "member_sizes": list(self.member_sizes),
            "warp_cursors": self.warp_cursors,
            "layout": self.layout.kind,
            "num_partitions": self.layout.num_partitions,
            "graph_nbytes": self.graph_nbytes,
            "memory_budget_bytes": self.memory_budget_bytes,
            "over_budget": self.over_budget,
            "predicted_time_s": self.predicted_time_s,
            "step_tier": self.step_tier,
            "compiled_backend": self.compiled_backend,
            "compiled_fallback": self.compiled_fallback,
            "calibrated_time_s": self.calibrated_time_s,
            "explain": self.explain(),
        }
        if self.predicted_cost is not None:
            out["predicted_sampled_edges"] = self.predicted_cost.sampled_edges
        return out
