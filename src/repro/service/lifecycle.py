"""One owner per lifecycle in the sampling service (private to the package).

:class:`~repro.service.server.SamplingService` composes three tables.  Each
is the only writer of its state, takes only its own lock, calls no other
table, and counts its transitions in the service's metrics registry (which
:class:`~repro.service.server.ServiceStats` reads back), so the invariants
are methods here, not conventions at call sites:

* :class:`RequestTable`, ``open -> resolve``: a future resolves exactly
  once; ``replan`` never sees a request between the intake gate and pending.
* :class:`UnitTable`, ``dispatch -> finish | reap | expire``: every exit
  pops the unit, so one thread handles its end whoever else notices.
* :class:`EpochTable`, ``admit -> pin/unpin -> retire -> release``: a
  retiring epoch refuses pins and is released exactly when unpinned.

Nothing here starts a thread or touches a worker; docs/service.md has the
transition tables, ``tests/service/test_lifecycle.py`` model-checks them.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, InvalidStateError
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.api.requests import SampleRequest
from repro.planner.plan import ExecutionPlan, PartitionLayout
from repro.telemetry.metrics import MetricsRegistry


@dataclass
class RequestRecord:
    request: SampleRequest
    future: Future
    enqueued_at: float
    #: Graph epoch the request is bound to (resolved at submission).
    epoch: int = 0
    #: Plan summary of the dispatched unit (attached to the response).
    plan: Optional[Dict[str, object]] = None
    #: Telemetry: trace id minted at submission (None = tracing off) and
    #: the request's root span id, closed at completion.
    trace_id: Optional[str] = None
    root_span_id: Optional[str] = None
    #: Wall-clock submit time (span time base) and dispatch times.
    submitted_wall: float = 0.0
    dispatched_wall: float = 0.0
    dispatched_perf: float = 0.0


class RequestTable:
    """Pending requests, their futures, and the intake gate."""

    def __init__(self, metrics: MetricsRegistry, pause_timeout_s: float = 60.0):
        self._metrics = metrics
        self._lock = threading.Lock()
        self._pending: Dict[int, RequestRecord] = {}
        #: Cleared while a replan drains; ``_intake_open`` counts submits
        #: past the gate but not yet pending (or refused), so the drain can
        #: wait that race window out.
        self._intake_gate = threading.Event()
        self._intake_gate.set()
        self._intake_open = 0
        self.pause_timeout_s = float(pause_timeout_s)

    def __len__(self) -> int:
        with self._lock:
            return len(self._pending)

    def records(self) -> List[RequestRecord]:
        with self._lock:
            return list(self._pending.values())

    def get(self, request_id: int) -> Optional[RequestRecord]:
        with self._lock:
            return self._pending.get(request_id)

    def enter_intake(self) -> bool:
        """Pass the gate and count in; ``False`` = still paused at timeout."""
        while True:
            if not self._intake_gate.wait(timeout=self.pause_timeout_s):
                return False
            with self._lock:
                # Re-check under the lock: a pause may have landed between
                # the wait and here; only count in while the gate is open.
                if self._intake_gate.is_set():
                    self._intake_open += 1
                    return True

    def leave_intake(self) -> None:
        with self._lock:
            self._intake_open -= 1

    @contextmanager
    def intake_paused(self) -> Iterator[None]:
        self._intake_gate.clear()
        try:
            yield
        finally:
            self._intake_gate.set()

    def wait_idle(self, graph: str, timeout: float) -> bool:
        """Wait until no request on ``graph`` is pending or mid-intake."""
        deadline = time.perf_counter() + timeout
        while True:
            with self._lock:
                busy = self._intake_open > 0 or any(
                    r.request.graph == graph for r in self._pending.values()
                )
            if not busy:
                return True
            if time.perf_counter() > deadline:
                return False
            time.sleep(0.002)

    def open(self, record: RequestRecord) -> None:
        """The request is pending until :meth:`resolve`."""
        request = record.request
        with self._lock:
            self._pending[request.request_id] = record
            self._metrics.counter("requests_submitted").inc()
            self._metrics.counter("tenant_requests", tenant=request.tenant).inc()

    def resolve(self, request_id: int, *, result=None,
                exception=None) -> Optional[RequestRecord]:
        """Resolve a pending request; ``None`` if it already was."""
        with self._lock:
            record = self._pending.pop(request_id, None)
            if record is None:
                return None
            if exception is not None:
                self._metrics.counter("requests_failed").inc()
            else:
                self._metrics.counter("requests_completed").inc()
                self._metrics.counter(
                    "tenant_completed", tenant=record.request.tenant
                ).inc()
        try:
            if exception is not None:
                record.future.set_exception(exception)
            else:
                record.future.set_result(result)
        except InvalidStateError:
            # Cancelled by the caller (an asyncio client that timed out
            # cancels the bridged future): the answer has nowhere to land,
            # which must not crash the collector thread.
            pass
        return record


@dataclass
class Unit:
    unit_id: int
    request_ids: List[int]
    #: Trace ids of the member requests, head first (empty = tracing off).
    trace_ids: List[str]
    dispatched_at: float

    @property
    def head_trace_id(self) -> Optional[str]:
        return self.trace_ids[0] if self.trace_ids else None


class UnitTable:
    """Dispatched, unanswered work units."""

    def __init__(self, metrics: MetricsRegistry):
        self._metrics = metrics
        self._lock = threading.Lock()
        self._inflight: Dict[int, Unit] = {}

    def __len__(self) -> int:
        with self._lock:
            return len(self._inflight)

    def dispatch(self, unit: Unit, route: str) -> None:
        members = len(unit.request_ids)
        with self._lock:
            self._inflight[unit.unit_id] = unit
            self._metrics.counter("units_dispatched").inc()
            self._metrics.counter("route_requests", route=route).inc(members)
            if members > 1:
                self._metrics.counter("coalesced_requests").inc(members)

    def finish(self, unit_id: int) -> Optional[Unit]:
        """The unit was answered; ``None`` if it already ended."""
        with self._lock:
            return self._inflight.pop(unit_id, None)

    def reap(self, unit_ids: Iterable[int]) -> List[Unit]:
        """End the units the pool reports lost with a dead worker, in the
        reported order; ids that already ended are skipped."""
        with self._lock:
            units = [self._inflight.pop(i, None) for i in unit_ids]
        return [unit for unit in units if unit is not None]

    def expire(self, cutoff: float) -> List[Unit]:
        """End the units dispatched before ``cutoff`` (``perf_counter``)."""
        with self._lock:
            units = [u for u in self._inflight.values()
                     if u.dispatched_at < cutoff]
            for unit in units:
                del self._inflight[unit.unit_id]
        return units


@dataclass
class Epoch:
    #: The admission plan, frozen under the budget in force at admission.
    route: str
    layout: PartitionLayout
    #: Class-level plans, keyed ``(algorithm, config, program kwargs)``.
    plans: Dict[Tuple, ExecutionPlan] = field(default_factory=dict)
    #: Unresolved requests bound to the epoch.
    active: int = 0
    retiring: bool = False


#: A released epoch: ``(graph name, epoch, the retired graph view or None)``.
Released = Tuple[str, int, object]


class EpochTable:
    """Admitted ``(graph, epoch)`` records over a shared-memory store."""

    def __init__(self, store, metrics: MetricsRegistry):
        self._store = store
        self._metrics = metrics
        self._lock = threading.Lock()
        self._epochs: Dict[Tuple[str, int], Epoch] = {}

    def admit(self, name: str, epoch: int, route: str,
              layout: PartitionLayout) -> None:
        """Record an admission plan.  Re-admitting in place (``replan``)
        keeps the pins and drops the previous admission's class plans."""
        with self._lock:
            record = self._epochs.get((name, epoch))
            if record is None:
                self._epochs[(name, epoch)] = Epoch(route, layout)
            else:
                record.route, record.layout = route, layout
                record.plans.clear()

    def get(self, name: str, epoch: Optional[int] = None) -> Epoch:
        """The record of an admitted epoch (latest by default)."""
        if epoch is None:
            epoch = self._store.latest_epoch(name)
        with self._lock:
            return self._epochs[(name, epoch)]

    def retiring(self) -> List[str]:
        with self._lock:
            return sorted(
                f"{name}@{epoch}"
                for (name, epoch), record in self._epochs.items()
                if record.retiring
            )

    def pin(self, name: str, epoch: Optional[int] = None) -> int:
        """Bind one request to an epoch (``None`` = latest now), in one
        critical section with retire/release: a concurrent ``update_graph``
        can never release the epoch out from under the request."""
        with self._lock:
            if epoch is None:
                epoch = self._store.latest_epoch(name)
            record = self._epochs.get((name, int(epoch)))
            if record is None:
                raise KeyError(f"graph {name!r} has no serving epoch {epoch}")
            if record.retiring:
                raise KeyError(
                    f"graph {name!r} epoch {epoch} is retiring; "
                    "pin a current epoch or submit unpinned"
                )
            record.active += 1
            return int(epoch)

    def unpin(self, name: str, epoch: int) -> Optional[Released]:
        """Drop one reference; returns the release it triggered, if any."""
        with self._lock:
            record = self._epochs[(name, epoch)]
            record.active -= 1
            if record.retiring and record.active == 0:
                return self._release(name, epoch)
        return None

    def retire(self, name: str, *, keep: int) -> List[Released]:
        """Mark every epoch of ``name`` but ``keep`` retiring; returns the
        ones released on the spot (the rest release at their last unpin)."""
        released = []
        with self._lock:
            for epoch in self._store.epochs(name):
                if epoch == keep:
                    continue
                record = self._epochs.get((name, epoch))
                if record is not None and record.active > 0:
                    record.retiring = True
                else:
                    released.append(self._release(name, epoch))
        return released

    def _release(self, name: str, epoch: int) -> Released:
        # Under the lock: a concurrent pin must observe either a pinnable
        # epoch or a KeyError, never the gap between retiring and unlinking.
        self._epochs.pop((name, epoch), None)
        try:
            graph = self._store.graph(name, epoch)
        except KeyError:  # pragma: no cover - released behind our back
            graph = None
        self._store.release(name, epoch)
        self._metrics.counter("epoch_retirements").inc()
        return name, epoch, graph

    def class_plan(self, name: str, epoch: int, key: Tuple,
                   build: Callable[[Epoch], ExecutionPlan]) -> ExecutionPlan:
        """The epoch's cached class plan under ``key``; built outside the
        lock on first use, dropped with the epoch or its re-admission."""
        with self._lock:
            record = self._epochs[(name, epoch)]
            cached = record.plans.get(key)
        if cached is None:
            cached = build(record)
            with self._lock:
                record.plans[key] = cached
        return cached
