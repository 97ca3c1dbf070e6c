"""Worker pool: each worker executes the front-end's plans over shared graphs.

A :class:`WorkUnit` is one dispatchable chunk of the front-end's batching
decision: a graph handle plus one *class* of compatible requests (same
algorithm, config and program constructor arguments) and the unit's
:class:`~repro.planner.plan.ExecutionPlan`.  Workers run that plan as
shipped on the :class:`~repro.planner.executor.Executor`: a ``"coalesced"``
plan as a single fused engine batch, any other plan as one standalone run
per request.  They ship back per-request payloads of plain arrays (one
:class:`~repro.api.results.SampleColumns` each).

Three pool modes share the exact same execution path
(:func:`execute_unit`):

* ``"process"`` -- real OS processes (spawn), each attaching the store's
  shared-memory segments; the production shape.
* ``"thread"``  -- threads mapping the owner's views directly; no process
  startup cost, useful for benchmarks of coalescing itself and on small
  boxes.
* ``"inline"``  -- alias for one thread; deterministic single-consumer mode
  used by tests.
"""

from __future__ import annotations

import multiprocessing
import queue
import threading
import traceback
import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.api.config import SamplingConfig
from repro.api.instance import make_instances
from repro.api.results import SampleColumns
from repro.compiled.compiler import kernel_cache_stats
from repro.compiled.structures import structure_cache_stats
from repro.graph.csr import CSRGraph
from repro.graph.partition import partition_bounds
from repro.oom.scheduler import OutOfMemoryConfig
from repro.planner.plan import ExecutionPlan
from repro.planner.planner import PlanRequest, plan, scale_plan
from repro.service.store import SharedGraphHandle, attach
from repro.telemetry import profiler as _profiler
from repro.telemetry import trace as _trace
from repro.telemetry import drain_envelope, reset_child

__all__ = [
    "RequestSpec",
    "WorkUnit",
    "RequestPayload",
    "UnitResult",
    "execute_unit",
    "WorkerPool",
]


@dataclass(frozen=True)
class RequestSpec:
    """One request's execution inputs (the picklable subset)."""

    request_id: int
    seeds: Tuple
    num_instances: Optional[int] = None


@dataclass(frozen=True)
class WorkUnit:
    """One class of compatible requests bound for a single worker."""

    unit_id: int
    handle: SharedGraphHandle
    algorithm: str
    config: SamplingConfig
    program_kwargs: Tuple[Tuple[str, object], ...]
    requests: Tuple[RequestSpec, ...]
    #: ``"in_memory"``, ``"out_of_memory"`` or ``"sharded"`` (the admission
    #: plan's call).
    route: str = "in_memory"
    oom_config: Optional[OutOfMemoryConfig] = None
    #: Shard count for the ``"sharded"`` route (in-process shards inside the
    #: executing worker, sized so each partition fits the memory budget).
    cluster_shards: Optional[int] = None
    #: The service's :class:`~repro.planner.plan.ExecutionPlan` for this
    #: unit, executed as shipped.  ``route`` / ``oom_config`` /
    #: ``cluster_shards`` above are its worker-facing projection; a unit
    #: constructed without a plan gets one built from them.
    plan: Optional[object] = None
    #: Telemetry trace context of the (head) request this unit serves, so
    #: worker-side spans join the request's trace; ``None`` = tracing off.
    trace_ctx: Optional[tuple] = None
    #: Whether the front-end's continuous profiler is on: a process worker
    #: enables its local profiler for this unit and ships the accumulators
    #: home on the result (thread workers share the front-end's profiler).
    profile: bool = False


@dataclass
class RequestPayload:
    """Per-request result shipped back from a worker."""

    request_id: int
    #: The request's instances as one columnar container: five arrays cross
    #: the worker boundary, whatever the instance count.
    samples: SampleColumns = field(default_factory=SampleColumns.empty)
    iteration_counts: List[int] = field(default_factory=list)
    route: str = "in_memory"
    coalesced_with: int = 1
    #: Numeric run statistics plus telemetry annotations (``step_tier`` is
    #: a string; everything else stays a float).
    stats: Dict[str, object] = field(default_factory=dict)
    error: Optional[str] = None


@dataclass
class UnitResult:
    """Everything a worker produced for one :class:`WorkUnit`."""

    unit_id: int
    payloads: List[RequestPayload] = field(default_factory=list)
    error: Optional[str] = None
    #: A process worker's telemetry envelope
    #: (:func:`repro.telemetry.drain_envelope`), shipped home for the
    #: front-end to re-ingest; ``None`` for thread/inline workers, which
    #: record straight into the front-end's buffers.
    telemetry: Optional[tuple] = None


# --------------------------------------------------------------------------- #
# Execution (mode-independent)
# --------------------------------------------------------------------------- #
#: The per-request cache-activity stats, named once: the worker writes these
#: keys into ``RequestPayload.stats`` and the front-end's collector folds the
#: same keys into registry counters of the same names.
CACHE_DELTA_KEYS = (
    "kernel_cache_hits",
    "kernel_cache_misses",
    "structure_cache_hits",
    "structure_cache_misses",
)


def _cache_counters() -> Tuple[int, ...]:
    """Worker-local cache counters, in :data:`CACHE_DELTA_KEYS` order."""
    kernel, structure = kernel_cache_stats(), structure_cache_stats()
    return (kernel["hits"], kernel["misses"],
            structure["hits"], structure["misses"])


def _payload(spec: RequestSpec, ran, route: str, coalesced_with: int,
             cache_before: Tuple[int, ...], step_tier: str,
             extra: Dict[str, float]) -> RequestPayload:
    """One finished run as a payload, with the stats every route reports.

    ``ran`` is the route's native result: a ``SampleResult``, or the
    out-of-memory / cluster result wrapping one (their schedule figures
    join the stats).  Both caches live in the worker process; the front-end
    only ever sees the per-payload deltas since ``cache_before``.
    """
    if route == "out_of_memory":
        result, extra = ran.sample, {**extra, "makespan": float(ran.makespan)}
    elif route == "sharded":
        result, extra = ran.result, {
            **extra,
            "makespan": float(ran.makespan()),
            "num_shards": float(ran.num_shards),
            "migrations": float(ran.migrations),
        }
    else:
        result = ran
    stats: Dict[str, object] = {
        "sampled_edges": float(result.total_sampled_edges),
        "kernel_time_s": float(result.kernel_time()),
        **extra,
    }
    for key, after, before in zip(CACHE_DELTA_KEYS, _cache_counters(),
                                  cache_before):
        stats[key] = float(after - before)
    stats["step_tier"] = step_tier
    return RequestPayload(
        request_id=spec.request_id,
        samples=result.samples,
        iteration_counts=list(result.iteration_counts),
        route=route,
        coalesced_with=coalesced_with,
        stats=stats,
    )


def _instances(spec: RequestSpec):
    return make_instances(list(spec.seeds), num_instances=spec.num_instances)


def _flat_plan(graph: CSRGraph, unit: WorkUnit) -> ExecutionPlan:
    """The plan of a unit built without one, from its flat fields."""
    boundaries = None
    if unit.route == "sharded":
        if not unit.cluster_shards:
            # A missing shard count must not silently run partitions over
            # the budget.
            raise ValueError("sharded unit carries no cluster_shards")
        boundaries = partition_bounds(
            graph, min(int(unit.cluster_shards), graph.num_vertices)
        )
    class_plan = plan(PlanRequest(
        graph=graph, config=unit.config, algorithm=unit.algorithm,
        oom_config=unit.oom_config, boundaries=boundaries,
        force_route=unit.route,
    ))
    return scale_plan(class_plan, [
        spec.num_instances if spec.num_instances is not None
        else len(spec.seeds)
        for spec in unit.requests
    ])


def execute_unit(graph: CSRGraph, unit: WorkUnit) -> UnitResult:
    """Run one work unit against an already-attached graph.

    The unit's :class:`ExecutionPlan` is executed as shipped: the
    front-end's admission, class plan and :func:`scale_plan` already fixed
    the route, the layout and the fusion, so the worker hands it to the
    :class:`~repro.planner.executor.Executor` with only the registry
    program kwargs.  A unit built without a plan (the flat ``route`` /
    ``oom_config`` / ``cluster_shards`` fields alone) gets its plan built
    from those fields first, then takes the same path.

    When the unit carries a trace context the whole execution is adopted
    into that trace under a ``unit`` span, so worker-side spans connect to
    the front-end's request span.
    """
    ctx = unit.trace_ctx
    if ctx is None:
        return _execute_unit(graph, unit)
    with _trace.activated(ctx), _trace.span(
        "unit",
        unit_id=unit.unit_id,
        route=unit.route,
        requests=len(unit.requests),
    ):
        return _execute_unit(graph, unit)


def _execute_unit(graph: CSRGraph, unit: WorkUnit) -> UnitResult:
    # Deferred like every facade's: the Executor and the kernels it pulls in
    # load on a worker's first unit, not when the service module is imported.
    from repro.planner.executor import Executor

    unit_plan = unit.plan if unit.plan is not None else _flat_plan(graph, unit)
    kwargs = dict(unit.program_kwargs)
    step_tier = unit_plan.step_tier
    fallback: Dict[str, float] = {}
    if unit_plan.route == "coalesced":
        try:
            members = [_instances(spec) for spec in unit.requests]
            cache_before = _cache_counters()
            results = Executor(unit_plan, graph, program_kwargs=kwargs).execute(
                members=members
            )
            # One kernel/structure lookup served the fused batch; every
            # member reports the shared delta.
            return UnitResult(unit_id=unit.unit_id, payloads=[
                _payload(spec, result, unit.route, len(unit.requests),
                         cache_before, step_tier, {})
                for spec, result in zip(unit.requests, results)
            ])
        except Exception:
            # One member's failure must not take down the whole batch: fall
            # through to the solo loop, which isolates errors per request.
            # Surface the fused failure (worker stderr + payload stats) so a
            # reproducible batch-only engine bug cannot hide behind the
            # fallback doing double work forever.
            warnings.warn(
                "coalesced batch failed, falling back to per-request runs:\n"
                + traceback.format_exc(limit=8)
            )
            fallback = {"coalesced_fallback": 1.0}

    # One run per request, each on a fresh program (stateful hooks stay
    # standalone-equivalent); a failure fails only its request.
    payloads: List[RequestPayload] = []
    for spec in unit.requests:
        try:
            batch = _instances(spec)
            run_plan = (
                unit_plan if len(unit.requests) == 1
                else scale_plan(unit_plan, [len(batch)])
            )
            # Snapshot before the run constructs anything: building the
            # engine is what resolves the compiled tier's cached structures.
            cache_before = _cache_counters()
            ran = Executor(run_plan, graph, program_kwargs=kwargs).execute(batch)
            payloads.append(_payload(spec, ran, unit.route, 1, cache_before,
                                     step_tier, fallback))
        except Exception:
            payloads.append(RequestPayload(
                request_id=spec.request_id, route=unit.route,
                error=traceback.format_exc(limit=8),
            ))
    return UnitResult(unit_id=unit.unit_id, payloads=payloads)


# --------------------------------------------------------------------------- #
# Worker loops
# --------------------------------------------------------------------------- #
def _process_worker_main(task_queue, result_queue) -> None:
    """Process-mode worker: attach shared graphs lazily, loop until sentinel."""
    import os

    reset_child()
    attached: Dict[str, object] = {}
    try:
        while True:
            unit = task_queue.get()
            if unit is None:
                break
            # Claim the unit before running it: if this process dies mid-unit
            # the front-end can fail exactly this unit instead of guessing.
            result_queue.put(("claim", unit.unit_id, os.getpid()))
            try:
                # Cache by name, validated by segment identity: releasing a
                # graph and publishing a different one under the same name
                # must not serve the stale mapping.
                mapping = attached.get(unit.handle.name)
                if mapping is None or mapping.handle.segments != unit.handle.segments:
                    if mapping is not None:
                        mapping.close()
                    mapping = attach(unit.handle)
                    attached[unit.handle.name] = mapping
                # The profiler's runtime switch lives in the front-end;
                # mirror it here per unit (spawned workers start disabled).
                if unit.profile:
                    _profiler.enable()
                result = execute_unit(mapping.graph, unit)
                # Process boundary: telemetry minted here travels home
                # inside the result message.
                result.telemetry = drain_envelope()
            except Exception:
                result = UnitResult(
                    unit_id=unit.unit_id, error=traceback.format_exc(limit=8)
                )
            result_queue.put(result)
    finally:
        for mapping in attached.values():
            try:
                mapping.close()
            except Exception:
                pass


def _thread_worker_main(task_queue, result_queue,
                        resolve_graph: Callable[[SharedGraphHandle], CSRGraph]) -> None:
    """Thread-mode worker: graphs come straight from the owner's store."""
    while True:
        unit = task_queue.get()
        if unit is None:
            break
        try:
            result = execute_unit(resolve_graph(unit.handle), unit)
        except Exception:
            result = UnitResult(
                unit_id=unit.unit_id, error=traceback.format_exc(limit=8)
            )
        result_queue.put(result)


class WorkerPool:
    """Fixed-size pool executing :class:`WorkUnit`s, any of three modes."""

    def __init__(
        self,
        num_workers: int = 2,
        *,
        mode: str = "process",
        resolve_graph: Optional[Callable[[SharedGraphHandle], CSRGraph]] = None,
        mp_context: str = "spawn",
    ):
        if mode == "inline":
            mode, num_workers = "thread", 1
        if mode not in ("process", "thread"):
            raise ValueError(f"unknown worker mode {mode!r}")
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if mode == "thread" and resolve_graph is None:
            raise ValueError("thread mode needs a resolve_graph callable")
        self.mode = mode
        self.num_workers = num_workers
        self._workers: List = []
        self._closed = False
        if mode == "process":
            ctx = multiprocessing.get_context(mp_context)
            self._tasks = ctx.Queue()
            self._results = ctx.Queue()
            for _ in range(num_workers):
                proc = ctx.Process(
                    target=_process_worker_main,
                    args=(self._tasks, self._results),
                    daemon=True,
                )
                proc.start()
                self._workers.append(proc)
        else:
            self._tasks = queue.Queue()
            self._results = queue.Queue()
            for _ in range(num_workers):
                thread = threading.Thread(
                    target=_thread_worker_main,
                    args=(self._tasks, self._results, resolve_graph),
                    daemon=True,
                )
                thread.start()
                self._workers.append(thread)

    # ------------------------------------------------------------------ #
    def submit(self, unit: WorkUnit) -> None:
        """Queue a unit for execution."""
        if self._closed:
            raise RuntimeError("worker pool is closed")
        self._tasks.put(unit)

    def next_result(self, timeout: Optional[float] = None) -> UnitResult:
        """Block for the next finished unit (raises ``queue.Empty`` on timeout)."""
        return self._results.get(timeout=timeout)

    def any_workers_alive(self) -> bool:
        """Whether at least one worker is still running (a fully dead pool --
        typically a spawn failure -- means every queued unit hangs forever)."""
        if self._closed:
            return False
        return any(worker.is_alive() for worker in self._workers)

    def dead_worker_pids(self) -> List[int]:
        """Pids of process workers that are no longer alive.

        Combined with the workers' claim messages this identifies exactly
        which in-flight units died with their worker.  Thread workers cannot
        die silently (their loop catches exceptions), so thread pools always
        return an empty list.
        """
        if self._closed or self.mode != "process":
            return []
        return [
            worker.pid for worker in self._workers
            if worker.pid is not None and not worker.is_alive()
        ]

    def shutdown(self, join_timeout: float = 5.0) -> None:
        """Stop all workers (drains nothing: call after the queue is idle)."""
        if self._closed:
            return
        self._closed = True
        for _ in self._workers:
            self._tasks.put(None)
        for worker in self._workers:
            worker.join(timeout=join_timeout)
        if self.mode == "process":
            for worker in self._workers:
                if worker.is_alive():  # pragma: no cover - stuck worker
                    worker.terminate()
            self._tasks.close()
            self._results.close()
            # Queue feeder threads must wind down before interpreter exit.
            self._tasks.join_thread()
            self._results.join_thread()
        self._workers = []
