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
(:func:`execute_unit`) and the same hand-out: each worker holds at most one
unit, on a channel no other worker reads (a pipe per process, an inbox per
thread), so a killed worker loses only that unit and wedges no other:

* ``"process"`` -- real OS processes (spawn), each attaching the store's
  shared-memory segments; the production shape.
* ``"thread"``  -- threads mapping the owner's views directly; no process
  startup cost, useful for benchmarks of coalescing itself and on small
  boxes.
* ``"inline"``  -- alias for one thread; deterministic single-consumer mode
  used by tests.
"""

from __future__ import annotations

import collections
import contextlib
import multiprocessing
import os
import queue
import threading
import traceback
import warnings
from dataclasses import dataclass, field
from multiprocessing import connection
from multiprocessing.reduction import ForkingPickler
from typing import Callable, Deque, Dict, List, Optional, Tuple

import numpy as np

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
    "WorkerLost",
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
    #: One unsigned array, in the narrowest dtype that holds the counts.
    iteration_counts: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.int64))
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
    # Never negative and mostly 1-3: one buffer of the narrowest unsigned
    # dtype pickles to a byte a count, a list of ints to two or more.
    counts = np.asarray(result.iteration_counts, dtype=np.int64)
    return RequestPayload(
        request_id=spec.request_id,
        samples=result.samples,
        iteration_counts=counts.astype(np.min_scalar_type(counts.max(initial=0))),
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
def _serve(receive: Callable, send: Callable,
           graph_of: Callable[[WorkUnit], CSRGraph]) -> None:
    """A worker's loop, either mode: one unit at a time until the sentinel."""
    while True:
        unit = receive()
        if unit is None:
            return
        try:
            result = execute_unit(graph_of(unit), unit)
        except Exception:
            result = UnitResult(
                unit_id=unit.unit_id, error=traceback.format_exc(limit=8)
            )
        send(result)


def _process_worker_main(conn) -> None:
    """Process-mode worker: attaches shared graphs lazily and serves its
    own pipe until the sentinel or the pool's end closes."""
    reset_child()
    attached: Dict[str, object] = {}

    def graph_of(unit: WorkUnit) -> CSRGraph:
        # Cache by name, validated by segment identity: releasing a graph
        # and publishing a different one under the same name must not
        # serve the stale mapping.
        mapping = attached.get(unit.handle.name)
        if mapping is None or mapping.handle.segments != unit.handle.segments:
            if mapping is not None:
                mapping.close()
            mapping = attached[unit.handle.name] = attach(unit.handle)
        # The profiler's runtime switch lives in the front-end; mirror it
        # here per unit (spawned workers start disabled).
        if unit.profile:
            _profiler.enable()
        return mapping.graph

    def send(result: UnitResult) -> None:
        result.telemetry = drain_envelope()  # minted here, shipped home
        conn.send(result)

    try:
        _serve(conn.recv, send, graph_of)
    except (EOFError, OSError):
        pass  # the pool is gone
    finally:
        for mapping in attached.values():
            with contextlib.suppress(Exception):
                mapping.close()


@dataclass(frozen=True)
class WorkerLost:
    """Units lost with a dead process worker: the one it held, or (``pid``
    0) the pending ones once no worker is left to run them."""

    pid: int
    unit_ids: Tuple[int, ...]


@dataclass
class _Slot:
    """One worker as the pool sees it: its channel and the unit it holds."""

    pid: int
    #: Process mode: the pool's end of the worker's pipe; thread mode: the
    #: worker's inbox.
    channel: object
    worker: object = None  # the Process or Thread
    #: ``(unit, encoded unit)`` on the worker's channel, or ``None``.
    held: Optional[Tuple[WorkUnit, object]] = None
    alive: bool = True


class WorkerPool:
    """Fixed-size pool executing :class:`WorkUnit`s, any of three modes.

    A worker holds at most one unit; the rest wait in one pending deque.  A
    process worker owns a duplex pipe (child end closed here: EOF means it
    died, after any result it shipped); a thread worker owns an inbox and
    posts its results, unpickled, to one in-process queue.

    A dead worker loses the unit it held only if it read it: one it died
    without reading goes back to the front of the deque for a survivor.
    Its end of the pipe is an ``AF_UNIX`` socket, and closing one with
    unread data makes the pool's next read fail with ``ECONNRESET`` instead
    of a clean EOF; a send after the worker closed fails with ``EPIPE``.
    """

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
        #: Called as ``on_handoff(unit, worker_pid)`` once a unit is on its
        #: worker's channel (the service records ``worker_claim`` here).
        self.on_handoff: Callable[[WorkUnit, int], None] = lambda unit, pid: None
        self._lock = threading.Lock()
        self._slots: List[_Slot] = []
        #: ``(unit, encoded unit)`` waiting for a free worker, oldest first.
        self._pending: Deque[Tuple[WorkUnit, object]] = collections.deque()
        if mode == "process":
            ctx = multiprocessing.get_context(mp_context)
            # ``_send(slot.channel, data)``: one encoded unit or the sentinel.
            self._encode = ForkingPickler.dumps
            self._send = connection.Connection.send_bytes
            for _ in range(num_workers):
                conn, child = ctx.Pipe()
                proc = ctx.Process(target=_process_worker_main, args=(child,),
                                   daemon=True)
                proc.start()
                child.close()
                self._slots.append(_Slot(proc.pid, conn, proc))
        else:
            self._encode, self._send = (lambda unit: unit), queue.Queue.put
            self._results: "queue.Queue" = queue.Queue()
            for _ in range(num_workers):
                slot = _Slot(os.getpid(), queue.Queue())
                slot.worker = threading.Thread(target=_serve, daemon=True, args=(
                    slot.channel.get,
                    lambda result, s=slot: self._results.put((s, result)),
                    lambda unit: resolve_graph(unit.handle),
                ))
                slot.worker.start()
                self._slots.append(slot)

    # ------------------------------------------------------------------ #
    def submit(self, unit: WorkUnit) -> None:
        """Hand a unit to an idle worker, or queue it for the next free one."""
        if not self._slots:
            raise RuntimeError("worker pool is closed")
        encoded = self._encode(unit)
        with self._lock:
            self._pending.append((unit, encoded))
        self._hand_out()

    def next_result(self, timeout: Optional[float] = None):
        """Block for the next :class:`UnitResult` or :class:`WorkerLost`
        (raises ``queue.Empty`` on timeout, ``EOFError`` once shut down)."""
        if not self._slots:
            raise EOFError("worker pool is closed")
        if self.mode == "thread":
            slot, result = self._results.get(timeout=timeout)
            self._free(slot)
            return result
        with self._lock:
            if self._pending and not any(s.alive for s in self._slots):
                lost = tuple(unit.unit_id for unit, _ in self._pending)
                self._pending.clear()
                return WorkerLost(0, lost)
            slots = {s.channel: s for s in self._slots if s.alive}
        ready = connection.wait(list(slots), timeout)
        if not ready:
            raise queue.Empty
        slot = slots[ready[0]]
        try:
            data = slot.channel.recv_bytes()
        except (EOFError, OSError) as exc:
            # The pipe stays open until shutdown: a hand-out racing this
            # death may still be writing to it.
            lost = self._died(slot, unread=isinstance(exc, ConnectionResetError))
            self._hand_out()
            return WorkerLost(slot.pid, lost)
        # The worker waits on its next unit, not on this unpickle.
        self._free(slot)
        return ForkingPickler.loads(data)

    def census(self) -> Dict[str, object]:
        """Live workers, dead worker pids, and ``unit id -> worker pid`` of
        every unit a worker holds (ids as strings, JSON-ready)."""
        with self._lock:
            return {
                "alive": sum(s.alive for s in self._slots),
                "dead_pids": [s.pid for s in self._slots if not s.alive],
                "claimed_units": {str(s.held[0].unit_id): s.pid
                                  for s in self._slots if s.held is not None},
            }

    def _hand_out(self) -> None:
        """Hand pending units to idle live workers, oldest first."""
        while True:
            with self._lock:
                slot = next((s for s in self._slots
                             if s.alive and s.held is None), None)
                if slot is None or not self._pending:
                    return
                slot.held = unit, encoded = self._pending.popleft()
            try:
                self._send(slot.channel, encoded)
            except OSError:  # died idle, its EOF not yet read
                self._died(slot, unread=True)
                continue
            self.on_handoff(unit, slot.pid)

    def _died(self, slot: _Slot, unread: bool) -> Tuple[int, ...]:
        """Mark ``slot`` dead: its unit goes back to the front of the deque
        if ``unread``, else it is lost (the ids returned)."""
        with self._lock:
            held, slot.held, slot.alive = slot.held, None, False
            if held is not None and unread:
                self._pending.appendleft(held)
                held = None
        return () if held is None else (held[0].unit_id,)

    def _free(self, slot: _Slot) -> None:
        with self._lock:
            slot.held = None
        self._hand_out()

    def shutdown(self, join_timeout: float = 5.0) -> None:
        """Stop all workers (drains nothing: call after the pool is idle)."""
        sentinel = self._encode(None)
        for slot in self._slots:
            with contextlib.suppress(OSError):  # already dead
                self._send(slot.channel, sentinel)
        for slot in self._slots:
            slot.worker.join(timeout=join_timeout)
            if self.mode == "process":
                if slot.worker.is_alive():  # pragma: no cover - stuck worker
                    slot.worker.terminate()
                slot.channel.close()
        self._slots = []
