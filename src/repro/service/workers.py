"""Worker pool: each worker drives coalesced engine batches over shared graphs.

A :class:`WorkUnit` is one dispatchable chunk of the front-end's batching
decision: a graph handle plus one *class* of compatible requests (same
algorithm, config and program constructor arguments).  Workers execute the
whole class as a single coalesced engine batch
(:func:`repro.engine.hetero.run_coalesced`) when the program allows it, or
one standalone run per request otherwise, and ship back per-request payloads
of plain arrays (one :class:`~repro.api.results.SampleColumns` each).

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
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.api.config import SamplingConfig
from repro.api.instance import make_instances
from repro.api.results import SampleColumns
from repro.api.sampler import GraphSampler
from repro.engine.hetero import run_coalesced
from repro.graph.csr import CSRGraph
from repro.compiled.compiler import kernel_cache_stats
from repro.compiled.structures import structure_cache_stats
from repro.oom.scheduler import OutOfMemoryConfig, OutOfMemorySampler
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
    #: unit.  ``route`` / ``oom_config`` / ``cluster_shards`` above are its
    #: worker-facing projection; directly constructed units (tests) may
    #: omit it.
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


def _payload(unit: WorkUnit, spec: RequestSpec, result, route: str,
             coalesced_with: int, cache_before: Tuple[int, ...],
             extra: Dict[str, float]) -> RequestPayload:
    """One finished run as a payload, with the stats every route reports.

    Both caches live in the worker process; the front-end only ever sees
    the per-payload deltas since ``cache_before``.
    """
    stats: Dict[str, object] = {
        "sampled_edges": float(result.total_sampled_edges),
        "kernel_time_s": float(result.kernel_time()),
        **extra,
    }
    for key, after, before in zip(CACHE_DELTA_KEYS, _cache_counters(),
                                  cache_before):
        stats[key] = float(after - before)
    if unit.plan is not None:
        stats["step_tier"] = unit.plan.step_tier
    return RequestPayload(
        request_id=spec.request_id,
        samples=result.samples,
        iteration_counts=list(result.iteration_counts),
        route=route,
        coalesced_with=coalesced_with,
        stats=stats,
    )


def _run_each(unit: WorkUnit, route: str,
              run: Callable[[RequestSpec], Tuple[object, Dict[str, float]]],
              ) -> UnitResult:
    """One standalone run per request; a failure fails only its request.

    ``run(spec)`` returns the route's ``SampleResult`` plus its
    route-specific stats.
    """
    payloads: List[RequestPayload] = []
    for spec in unit.requests:
        try:
            # Snapshot before the run constructs anything: building a
            # sampler is what resolves the compiled tier's cached structures.
            cache_before = _cache_counters()
            result, extra = run(spec)
            payloads.append(
                _payload(unit, spec, result, route, 1, cache_before, extra)
            )
        except Exception:
            payloads.append(RequestPayload(
                request_id=spec.request_id, route=route,
                error=traceback.format_exc(limit=8),
            ))
    return UnitResult(unit_id=unit.unit_id, payloads=payloads)


def execute_unit(graph: CSRGraph, unit: WorkUnit) -> UnitResult:
    """Run one work unit against an already-attached graph.

    The unit's :class:`ExecutionPlan` (when the front-end attached one) is
    authoritative for the route and partition layout; the flat
    ``route`` / ``oom_config`` / ``cluster_shards`` fields are its
    projection and the fallback for directly constructed units.  Each
    branch below delegates to a facade that itself plans + executes on the
    shared executor, so the worker never re-implements a run loop.

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
    from repro.algorithms.registry import get_algorithm

    info = get_algorithm(unit.algorithm)
    kwargs = dict(unit.program_kwargs)
    payloads: List[RequestPayload] = []
    route = unit.route
    oom_config = unit.oom_config
    cluster_shards = unit.cluster_shards
    if unit.plan is not None:
        route = unit.plan.route
        if route == "coalesced":
            route = "in_memory"
        layout = unit.plan.layout
        if layout.oom is not None:
            oom_config = layout.oom
        if route == "sharded":
            cluster_shards = layout.num_partitions

    if route == "sharded":
        # Oversized graphs served by the sharded tier: one in-process
        # cluster run per request (bit-identical for any shard count, so
        # the sizing decision never changes results -- see
        # docs/distributed.md).
        from repro.distributed import ShardedSamplingCluster

        if not cluster_shards:
            # The front-end froze the shard count at admission; a missing
            # value must not silently run partitions over the budget.
            return UnitResult(
                unit_id=unit.unit_id,
                error="sharded unit carries no cluster_shards",
            )

        def run_sharded(spec):
            ran = ShardedSamplingCluster(
                graph, unit.algorithm, unit.config,
                num_shards=int(cluster_shards), program_kwargs=kwargs,
                transport="in_process",
            ).run(list(spec.seeds), num_instances=spec.num_instances)
            return ran.result, {
                "makespan": float(ran.makespan()),
                "num_shards": float(ran.num_shards),
                "migrations": float(ran.migrations),
            }

        return _run_each(unit, "sharded", run_sharded)

    if route == "out_of_memory":
        # Oversized graphs run the partition-scheduled sampler, one request
        # per run (bit-identical to a standalone OutOfMemorySampler by
        # construction); a fresh program per request keeps stateful hooks
        # standalone-equivalent.
        def run_oom(spec):
            ran = OutOfMemorySampler(
                graph, info.program_factory(**kwargs), unit.config,
                oom_config, algorithm=unit.algorithm,
            ).run(list(spec.seeds), num_instances=spec.num_instances)
            return ran.sample, {"makespan": float(ran.makespan)}

        return _run_each(unit, "out_of_memory", run_oom)

    probe = info.program_factory(**kwargs)
    fallback: Dict[str, float] = {}
    if probe.supports_coalescing and len(unit.requests) > 1:
        try:
            members = [
                make_instances(
                    list(spec.seeds), num_instances=spec.num_instances
                )
                for spec in unit.requests
            ]
            cache_before = _cache_counters()
            results = run_coalesced(graph, probe, unit.config, members,
                                    algorithm=unit.algorithm)
            # One kernel/structure lookup served the fused batch; every
            # member reports the shared delta.
            return UnitResult(unit_id=unit.unit_id, payloads=[
                _payload(unit, spec, result, "in_memory",
                         len(unit.requests), cache_before, {})
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

    def run_solo(spec):
        ran = GraphSampler(
            graph, info.program_factory(**kwargs), unit.config,
            algorithm=unit.algorithm,
        ).run(list(spec.seeds), num_instances=spec.num_instances)
        return ran, fallback

    return _run_each(unit, "in_memory", run_solo)


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
