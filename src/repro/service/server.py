"""The sampling service front-end: queueing, coalescing, routing, demux.

:class:`SamplingService` owns a :class:`~repro.service.store.
SharedGraphStore` and a :class:`~repro.service.workers.WorkerPool`.  Requests
enter through :meth:`submit` (returning a ``concurrent.futures.Future``); a
dispatcher thread collects everything that arrives within the *batching
window*, groups compatible requests -- equal
:meth:`~repro.api.requests.SampleRequest.class_key` -- into
:class:`~repro.service.workers.WorkUnit`s, and a collector thread
demultiplexes worker results back onto the per-request futures.

Admission / routing is delegated to the unified planner
(:mod:`repro.planner`): :func:`~repro.planner.planner.plan_admission` decides
each published graph epoch's route and partition layout at load time (the
route table *is* a table of plans), and full
:class:`~repro.planner.plan.ExecutionPlan`\\ s are built lazily and cached
per ``(graph, epoch, algorithm, config)``, then specialised per dispatched
unit by :func:`~repro.planner.planner.scale_plan` (fusion grouping,
predicted cost); the worker executes that unit plan as shipped.  A class
is split into one-request units exactly when its unit plan is not
``"coalesced"``.  The unit plan's metadata rides
on every answer as ``SampleResponse.plan`` (including the
:meth:`~repro.planner.plan.ExecutionPlan.explain` dry-run text).  Changing
``memory_budget_bytes`` (or ``cluster_shards``) never resizes an admitted
graph out from under its frozen sizing -- call :meth:`SamplingService.replan`
to drain a graph's requests and re-admit it under the settings in force.

Determinism contract: a request's samples are bit-identical to a standalone
sampler run with the same seeds and config, no matter what it was coalesced
with (see ``docs/service.md`` and :mod:`repro.engine.hetero`).
"""

from __future__ import annotations

import collections
import itertools
import os
import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import replace
from typing import Deque, Dict, List, Optional, Tuple

from repro.api.instance import make_instances
from repro.api.requests import SampleRequest, SampleResponse
from repro.graph.csr import CSRGraph
from repro.oom.scheduler import OutOfMemoryConfig
from repro.planner.errors import SeedValidationError
from repro.planner.plan import ExecutionPlan
from repro.planner.planner import (
    PlanRequest,
    plan,
    plan_admission,
    scale_plan,
)
from repro.service.cache import CachedResult
from repro.service.gateway import Gateway, GatewayConfig, build_response
from repro.service.lifecycle import (
    Epoch,
    EpochTable,
    RequestRecord,
    RequestTable,
    Unit,
    UnitTable,
)
from repro.service.qos import AdmissionRejected, TenantQuota
from repro.service.store import SharedGraphStore
from repro.service.workers import (
    CACHE_DELTA_KEYS,
    RequestSpec,
    UnitResult,
    WorkUnit,
    WorkerLost,
    WorkerPool,
)
from repro.telemetry import ingest_envelope, profiler as _profiler, trace as _trace
from repro.telemetry.health import HealthMonitor, LatencyObjective
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.recorder import FlightRecorder

__all__ = ["ServiceError", "ServiceStats", "SamplingService"]


class ServiceError(RuntimeError):
    """A request failed inside the service (the worker traceback is attached).

    ``transient`` marks failures the request itself is blameless for -- its
    worker crashed or its unit went unanswered -- where resubmitting the
    same request is safe and (by determinism) yields the answer the lost
    run would have produced.  The clients' ``retries=`` machinery keys off
    this flag.
    """

    def __init__(self, message: str, *, transient: bool = False):
        super().__init__(message)
        self.transient = transient


class ServiceStats:
    """Read-only view of the service's counters plus telemetry-derived rates.

    The numbers live in the service's metrics registry (written by the
    lifecycle tables and the gateway at their transitions); this class
    stores none of its own.  Readable two ways for compatibility: as the
    attribute it always was (``service.stats.units_dispatched``) and as a
    callable (``service.stats()`` -- alias of :meth:`snapshot`) returning
    the flat dict with per-route latency percentiles, queue-wait, fusion
    rate and kernel-cache hit rate mixed in.
    """

    #: attribute -> (registry counter, labels).  Shed requests were refused
    #: at the door and never count as submitted; cache hits count submitted
    #: + completed but never dispatched; coalesced = shared a unit.
    _COUNTERS: Dict[str, Tuple[str, Dict[str, str]]] = {
        "requests_submitted": ("requests_submitted", {}),
        "requests_completed": ("requests_completed", {}),
        "requests_failed": ("requests_failed", {}),
        "requests_shed": ("requests_shed", {}),
        "cache_hits": ("cache_hits", {}),
        "units_dispatched": ("units_dispatched", {}),
        "coalesced_requests": ("coalesced_requests", {}),
        "oom_requests": ("route_requests", {"route": "out_of_memory"}),
        "sharded_requests": ("route_requests", {"route": "sharded"}),
    }

    def __init__(self, registry: MetricsRegistry, gateway: "Gateway"):
        self._registry = registry
        self._gateway = gateway

    def __getattr__(self, name: str) -> int:
        try:
            metric, labels = self._COUNTERS[name]
        except KeyError:
            raise AttributeError(name) from None
        return self._registry.counter(metric, **labels).value

    def snapshot(self) -> Dict[str, object]:
        """Flat copy for printing, enriched from the registry."""
        out: Dict[str, object] = {
            name: getattr(self, name) for name in self._COUNTERS
        }
        completed = out["requests_completed"]
        attempted = out["requests_submitted"] + out["requests_shed"]
        if attempted:
            out["shed_rate"] = out["requests_shed"] / attempted
        if out["units_dispatched"]:
            # Cache hits completed without ever dispatching a unit.
            out["mean_unit_size"] = (
                completed + out["requests_failed"] - out["cache_hits"]
            ) / out["units_dispatched"]
        if completed:
            out["fusion_rate"] = out["coalesced_requests"] / completed
        gw = self._gateway.stats()
        cache_stats = gw.get("cache")
        if cache_stats is not None:
            out["result_cache"] = cache_stats
            out["cache_hit_rate"] = cache_stats["hit_rate"]
        if "tenants" in gw:
            out["tenants"] = gw["tenants"]
        registry = self._registry
        for cache in ("kernel_cache", "structure_cache"):
            hits = registry.counter(cache + "_hits").value
            misses = registry.counter(cache + "_misses").value
            if hits + misses:
                out[cache + "_hit_rate"] = hits / (hits + misses)
        step_tiers: Dict[str, Dict[str, int]] = {}
        for labels, counter in registry.find_counters("step_tier_requests"):
            algorithm = labels.get("algorithm", "?")
            step_tiers.setdefault(algorithm, {})[
                labels.get("step_tier", "?")
            ] = counter.value
        if step_tiers:
            out["step_tier_by_algorithm"] = step_tiers
        out["walker_migrations"] = registry.counter("walker_migrations").value
        out["epoch_retirements"] = registry.counter("epoch_retirements").value
        latency_by_route: Dict[str, Dict[str, float]] = {}
        for labels, histogram in registry.find_histograms("request_latency_s"):
            latency_by_route[labels.get("route", "?")] = histogram.summary()
        if latency_by_route:
            out["latency_by_route"] = latency_by_route
        for name, key in (("queue_wait_s", "queue_wait"),
                          ("execute_s", "execute")):
            found = registry.find_histograms(name)
            if found:
                out[key] = found[0][1].summary()
        return out

    def __call__(self) -> Dict[str, object]:
        return self.snapshot()


class SamplingService:
    """In-process sampling service with shared-memory workers: the root
    that wires store, pool, gateway and the three lifecycle tables
    (:mod:`repro.service.lifecycle` owns request / unit / epoch state)."""

    def __init__(
        self,
        *,
        num_workers: int = 2,
        mode: str = "process",
        batch_window_s: float = 0.002,
        max_batch_requests: int = 64,
        memory_budget_bytes: Optional[int] = 256 * 1024 * 1024,
        oom_config: Optional[OutOfMemoryConfig] = None,
        cluster_shards: int = 0,
        store: Optional[SharedGraphStore] = None,
        unit_timeout_s: Optional[float] = 600.0,
        cache_bytes: Optional[int] = 64 * 1024 * 1024,
        default_quota: Optional[TenantQuota] = None,
        quotas: Optional[Dict[str, TenantQuota]] = None,
        max_pending: Optional[int] = None,
        intake_pause_timeout_s: float = 60.0,
        recorder_capacity: int = 2048,
        diagnostics_dir: Optional[str] = None,
        objectives: Optional[Dict[str, LatencyObjective]] = None,
    ):
        """``batch_window_s=0`` with ``max_batch_requests=1`` disables
        coalescing entirely (every request runs alone) -- the benchmark's
        baseline configuration.

        ``cluster_shards > 0`` serves over-budget graphs from a sharded
        sampling cluster instead of the serial out-of-memory path; the
        actual shard count per graph is at least ``ceil(nbytes / budget)``
        so every shard's partition fits the budget.  ``0`` (default) keeps
        the out-of-memory route.

        ``unit_timeout_s`` bounds how long a dispatched unit may stay
        unanswered before its requests fail.  A worker that dies is seen at
        once (EOF on its pipe fails the unit it held); this is the backstop
        for a worker that hangs without dying.  ``None`` disables it.

        Gateway switches (see ``docs/service.md``): ``cache_bytes`` budgets
        the deterministic result cache (``None``/``0`` disables it);
        ``quotas`` / ``default_quota`` are per-tenant
        :class:`~repro.service.qos.TenantQuota` token buckets charged with
        each request's planner-predicted cost (both ``None`` = admission
        control off); ``max_pending`` is a service-wide pending ceiling.
        ``intake_pause_timeout_s`` bounds how long :meth:`submit` waits
        while :meth:`replan` has intake paused before failing transient.

        Diagnostics (see ``docs/telemetry.md``): ``recorder_capacity``
        sizes the flight recorder's event ring; ``diagnostics_dir`` is
        where crash/timeout snapshots are auto-dumped (``None`` disables
        the dump, :meth:`diagnose` still works); ``objectives`` overrides
        the per-route latency SLOs of :meth:`health`.
        """
        if max_batch_requests < 1:
            raise ValueError("max_batch_requests must be >= 1")
        if cluster_shards < 0:
            raise ValueError("cluster_shards must be >= 0 (0 disables sharding)")
        self.store = store if store is not None else SharedGraphStore()
        self._owns_store = store is None
        self.batch_window_s = float(batch_window_s)
        self.max_batch_requests = int(max_batch_requests)
        self.memory_budget_bytes = memory_budget_bytes
        self._oom_config = oom_config
        self.cluster_shards = int(cluster_shards)
        #: Serialises update_graph per service: concurrent updates of one
        #: name must not interleave their publish/retire steps.
        self._update_lock = threading.Lock()
        self._pool = WorkerPool(
            num_workers, mode=mode,
            resolve_graph=lambda handle: self.store.graph(
                handle.name, handle.epoch
            ),
        )
        self._pool.on_handoff = lambda unit, pid: self.recorder.record(
            "worker_claim", unit_id=unit.unit_id, worker_pid=pid,
            trace_id=unit.trace_ctx[0] if unit.trace_ctx else None,
        )
        #: Priority-lane dispatch queue: entries are ``(-priority, seq,
        #: record-or-None)`` so higher priorities drain first, FIFO within
        #: a lane, and the shutdown sentinel (``+inf``) sorts last.
        self._queue: queue.PriorityQueue = queue.PriorityQueue()
        self._queue_seq = itertools.count()
        self.unit_timeout_s = unit_timeout_s
        self._unit_ids = itertools.count()
        #: Service-local metrics registry (latencies, queue waits, cache
        #: hit counters ...); dump with :meth:`metrics_text`.
        self.metrics = MetricsRegistry()
        self._requests = RequestTable(self.metrics, intake_pause_timeout_s)
        self._units = UnitTable(self.metrics)
        self._epochs = EpochTable(self.store, self.metrics)
        #: Flight recorder: bounded ring of operational events feeding
        #: :meth:`diagnose` and the crash/timeout auto-dump.
        self.recorder = FlightRecorder(capacity=recorder_capacity)
        #: Rolling-window SLO accounting behind :meth:`health`.
        self.health_monitor = HealthMonitor(self.metrics, objectives=objectives)
        self.diagnostics_dir = diagnostics_dir
        self._dump_seq = itertools.count()
        #: Cache evictions already turned into recorder events.
        self._evictions_seen = 0
        #: Periodic load samples from the monitor thread: ``(wall ts,
        #: track name, {series: value})`` tuples ready for
        #: :func:`repro.telemetry.export.chrome_counter_events`.
        self._load_samples: Deque[tuple] = collections.deque(maxlen=4096)
        #: The multi-tenant front door: deterministic result cache plus
        #: cost-based per-tenant admission control (docs/service.md).
        self.gateway = Gateway(
            GatewayConfig(
                cache_bytes=cache_bytes or None,
                default_quota=default_quota,
                quotas=dict(quotas or {}),
                max_pending=max_pending,
            ),
            self.metrics,
        )
        self.stats = ServiceStats(self.metrics, self.gateway)
        self._shutdown = threading.Event()
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="sampling-dispatch", daemon=True
        )
        self._collector = threading.Thread(
            target=self._collect_loop, name="sampling-collect", daemon=True
        )
        # The monitor takes load samples and expires units past
        # unit_timeout_s; it reads no worker channel.
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="sampling-monitor", daemon=True
        )
        self._dispatcher.start()
        self._collector.start()
        self._monitor.start()

    # ------------------------------------------------------------------ #
    # Graph admission
    # ------------------------------------------------------------------ #
    def load_graph(self, name: str, graph: Optional[CSRGraph] = None,
                   *, path=None) -> str:
        """Publish a graph (object or NPZ path) and decide its route.

        Returns ``"in_memory"``, ``"sharded"`` or ``"out_of_memory"``.
        """
        if (graph is None) == (path is None):
            raise ValueError("pass exactly one of graph= or path=")
        if path is not None:
            handle = self.store.load_npz_file(name, path)
        else:
            handle = self.store.put(name, graph)
        return self._admit(handle)

    def update_graph(self, name: str, graph=None, *,
                     add_edges=None, add_weights=None,
                     remove_edges=None, retire_vertices=None) -> int:
        """Publish a new epoch of a loaded graph; returns the epoch number.

        Pass either ``graph`` (a :class:`CSRGraph` or
        :class:`~repro.graph.delta.DeltaGraph`, snapshotted canonically) or
        any combination of ``add_edges`` / ``remove_edges`` /
        ``retire_vertices``, which are applied to the current latest epoch
        through a :class:`~repro.graph.delta.DeltaGraph` overlay and
        compacted.  The previous epoch keeps serving the requests already
        bound to it and is refcount-released once they drain; requests
        submitted after this call (without an explicit pin) run on the new
        epoch.  Admission (in-memory vs out-of-memory) is re-evaluated for
        the new epoch's footprint.
        """
        from repro.graph.delta import DeltaGraph, as_csr

        mutations = (add_edges, remove_edges, retire_vertices)
        if (graph is None) == all(m is None for m in mutations):
            raise ValueError("pass exactly one of graph= or mutation kwargs")
        # One update at a time: interleaved publish/retire steps of two
        # concurrent updates would leave the intermediate epoch unretired
        # (and its segments leaked) forever.
        with self._update_lock:
            if graph is not None:
                new_graph = as_csr(graph)
            else:
                delta = DeltaGraph(self.store.graph(name))
                if add_edges is not None:
                    delta.add_edges(add_edges, add_weights)
                if remove_edges is not None:
                    delta.remove_edges(remove_edges)
                for vertex in (retire_vertices or ()):
                    delta.retire_vertex(int(vertex))
                new_graph = delta.to_csr()
            handle = self.store.publish(name, new_graph)
            self._admit(handle)
            released = self._epochs.retire(name, keep=handle.epoch)
        for release in released:
            self._epoch_released(*release)
        return handle.epoch

    def _admit(self, handle) -> str:
        """Plan and record the admission of one published graph epoch.

        The route table is a table of admission plans: ``(route, layout)``
        frozen under the budget in force *now*, so later budget changes
        never resize an admitted graph's shards or partitions out from
        under its documented sizing (use :meth:`replan` to re-admit).
        """
        route, layout = plan_admission(
            num_vertices=handle.num_vertices,
            num_edges=handle.num_edges,
            nbytes=handle.nbytes,
            memory_budget_bytes=self.memory_budget_bytes,
            cluster_shards=self.cluster_shards,
            oom_config=self._oom_config,
        )
        self._epochs.admit(handle.name, handle.epoch, route, layout)
        self.recorder.record(
            "epoch_publish", graph=handle.name, epoch=handle.epoch,
            route=route, nbytes=handle.nbytes,
        )
        return route

    def route_of(self, name: str, epoch: Optional[int] = None) -> str:
        """The admission decision for a loaded graph (latest epoch default)."""
        return self._epochs.get(name, epoch).route

    def graph_epoch(self, name: str) -> int:
        """The latest published epoch of a loaded graph."""
        return self.store.latest_epoch(name)

    def replan(self, name: str, *, timeout: float = 30.0) -> str:
        """Drain a graph's outstanding requests and re-admit it.

        Changing :attr:`memory_budget_bytes` (or :attr:`cluster_shards`)
        after admission deliberately leaves already-admitted graphs on
        their frozen plans; ``replan`` applies the settings in force now:
        it waits for every in-flight request on ``name`` to resolve, then
        re-runs admission for the latest epoch and invalidates the cached
        class plans.  Returns the new route.

        Raises :class:`TimeoutError` if the graph's requests do not drain
        within ``timeout`` seconds (the admission is left unchanged).

        Intake is paused for the whole drain + re-admit window: without
        that, sustained traffic could keep the busy-check from ever seeing
        an idle instant (starving the replan until its timeout), and a
        request admitted between the final busy-check and the re-admission
        could be dispatched against the stale route's cached class plan.
        Paused submitters block on the intake gate (bounded by the
        service's ``intake_pause_timeout_s``, after which they fail with a
        *transient* :class:`ServiceError` the clients' retry path resubmits).
        """
        if name not in self.store.names():
            raise KeyError(f"graph {name!r} is not loaded")
        with self._update_lock, self._requests.intake_paused():
            if not self._requests.wait_idle(name, timeout):
                raise TimeoutError(
                    f"replan({name!r}): requests still in flight "
                    f"after {timeout}s"
                )
            handle = self.store.handle(name, self.store.latest_epoch(name))
            self.recorder.record("replan_drain", graph=name)
            route = self._admit(handle)
            # Cached results carry the plan/route they ran under; a
            # re-admission makes them stale metadata-wise even though the
            # sampled bits would be identical.  Drop them.
            self.gateway.invalidate_epoch(name, handle.epoch)
            return route

    # ------------------------------------------------------------------ #
    # Plan cache: one class-level plan per (graph, epoch, algorithm, config)
    # ------------------------------------------------------------------ #
    def _class_plan(self, request: SampleRequest, epoch: int) -> ExecutionPlan:
        """The cached :class:`ExecutionPlan` of one request class."""

        def build(admitted: Epoch) -> ExecutionPlan:
            handle = self.store.handle(request.graph, epoch)
            base = plan(PlanRequest(
                config=request.resolve_config(),
                algorithm=request.algorithm,
                num_instances=1,
                memory_budget_bytes=self.memory_budget_bytes,
                oom_config=admitted.layout.oom,
                force_route=admitted.route,
                graph_num_vertices=handle.num_vertices,
                graph_num_edges=handle.num_edges,
                graph_nbytes=handle.nbytes,
            ))
            # The admission-time layout is authoritative (frozen sizing).
            return replace(base, layout=admitted.layout)

        return self._epochs.class_plan(
            request.graph, epoch, request.class_key()[2:], build
        )

    # ------------------------------------------------------------------ #
    # Request intake
    # ------------------------------------------------------------------ #
    def submit(self, request: SampleRequest) -> Future:
        """Queue a request; the future resolves to a :class:`SampleResponse`.

        The gateway runs first, before any compute: a deterministic-cache
        hit resolves the future right here (bit-identical to a fresh run,
        ``stats["cache_hit"]=True``, no dispatcher work); an over-quota
        tenant -- or a full service -- is shed with a synchronous
        :class:`~repro.service.qos.AdmissionRejected` carrying a
        ``retry_after_s`` hint.  Admitted requests queue in their
        ``priority`` lane.
        """
        if self._shutdown.is_set():
            raise RuntimeError("service is shut down")
        if request.graph not in self.store.names():
            raise KeyError(f"graph {request.graph!r} is not loaded")
        if not self._requests.enter_intake():
            raise ServiceError(
                "intake paused (replan in progress); resubmit shortly",
                transient=True,
            )
        try:
            return self._submit_admitted(request)
        finally:
            self._requests.leave_intake()

    def _submit_admitted(self, request: SampleRequest) -> Future:
        # An explicit pin must name a still-serving epoch; None binds to
        # latest-now.  The reference is given back by _unpin on every exit.
        epoch = self._epochs.pin(request.graph, request.epoch)
        record = RequestRecord(request, Future(), time.perf_counter(), epoch=epoch)
        if _trace.enabled():
            # One trace per request; the root span opens here and is closed
            # (recorded) by the collector when the answer lands.
            record.trace_id = _trace.new_trace_id()
            record.root_span_id = _trace.new_span_id()
            record.submitted_wall = time.time()
        try:
            # Plan-time seed validation, uniform across entry points: the
            # same SeedValidationError a standalone sampler would raise.
            try:
                make_instances(
                    request.seeds, num_instances=request.num_instances
                ).validate(
                    self.store.handle(request.graph, epoch).num_vertices,
                    reject_duplicates=not request.resolve_config().with_replacement,
                )
            except SeedValidationError as exc:
                raise SeedValidationError(
                    f"request {request.request_id}: {exc}"
                ) from None
            # Fail fast, synchronously: bad config overrides raise inside
            # resolve_config, unhashable program kwargs inside the key's hash.
            hash(request.class_key())
            # Gateway, stage 1: the deterministic result cache.  Hits are
            # bit-identical by construction and cost (nearly) nothing, so
            # they are answered before -- and without -- quota accounting.
            cached = self.gateway.lookup(request, epoch)
            # Gateway, stage 2: cost-based admission.  The planner's
            # calibrated estimate for this request class is charged against
            # the tenant's token bucket; an over-quota tenant is shed right
            # here, before any compute is spent.
            if cached is None and self.gateway.admission_active:
                unit_plan = scale_plan(self._class_plan(request, epoch),
                                       [request.instance_count()])
                self.gateway.admit(
                    request,
                    unit_plan.calibrated_time_s or unit_plan.predicted_time_s,
                    len(self._requests),
                )
        except AdmissionRejected:
            self._event("shed", record)
            self._unpin(record)
            raise
        except Exception:
            self._unpin(record)
            raise
        self._requests.open(record)
        if cached is not None:
            # Never dispatched, but resolved the way every request is.
            self._event("cache_hit", record)
            cached.stats.update(self._close_request(record, "cache"))
            self._resolve(request.request_id, result=cached)
        else:
            self._event("admit", record, priority=request.priority)
            self._enqueue(record, request.priority)
        return record.future

    def _event(self, kind: str, record: RequestRecord, **fields) -> None:
        """Flight-recorder event about one request."""
        self.recorder.record(
            kind, trace_id=record.trace_id,
            request_id=record.request.request_id,
            tenant=record.request.tenant, **fields,
        )

    def _enqueue(self, record: Optional[RequestRecord],
                 priority: float = 0.0) -> None:
        """Queue in priority lanes (higher first, FIFO within a lane)."""
        self._queue.put((-float(priority), next(self._queue_seq), record))

    def _close_request(self, record: RequestRecord,
                       route: str) -> Dict[str, object]:
        """The latency stats stamped on every answer; observes them and
        closes the request's spans (opened at submission) on the way."""
        latency = time.perf_counter() - record.enqueued_at
        stats: Dict[str, object] = {"latency_s": latency}
        self.metrics.histogram("request_latency_s", route=route).observe(latency)
        if record.dispatched_perf:
            # Submit -> dispatch wait (coalescing window + queueing),
            # separated from the execute wall so window latency is
            # visible per response.
            queue_wait = record.dispatched_perf - record.enqueued_at
            stats["queue_wait_s"] = queue_wait
            stats["execute_s"] = latency - queue_wait
            self.metrics.histogram("queue_wait_s").observe(queue_wait)
            self.metrics.histogram("execute_s").observe(latency - queue_wait)
        if record.trace_id is not None:
            stats["trace_id"] = record.trace_id
            if record.dispatched_perf:
                _trace.record_span(
                    "queue_wait",
                    trace_id=record.trace_id,
                    parent_id=record.root_span_id,
                    start_s=record.submitted_wall,
                    end_s=record.dispatched_wall,
                )
            _trace.record_span(
                "request",
                trace_id=record.trace_id,
                span_id=record.root_span_id,
                parent_id=None,
                start_s=record.submitted_wall,
                end_s=time.time(),
                request_id=record.request.request_id,
                graph=record.request.graph,
                algorithm=record.request.algorithm,
                route=route,
            )
        return stats

    # ------------------------------------------------------------------ #
    # Dispatcher: window batching + class grouping
    # ------------------------------------------------------------------ #
    def _dispatch_loop(self) -> None:
        while True:
            try:
                _, _, first = self._queue.get(timeout=0.05)
            except queue.Empty:
                if self._shutdown.is_set():
                    return
                continue
            if first is None:
                return
            batch = [first]
            deadline = time.perf_counter() + self.batch_window_s
            while len(batch) < self.max_batch_requests:
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    break
                try:
                    _, _, item = self._queue.get(timeout=remaining)
                except queue.Empty:
                    break
                if item is None:
                    self._safe_dispatch(batch)
                    return
                batch.append(item)
            self._safe_dispatch(batch)

    def _safe_dispatch(self, batch: List[RequestRecord]) -> None:
        """Dispatch a batch; a failure fails the batch, never the thread."""
        try:
            self._dispatch_batch(batch)
        except Exception as exc:
            for record in batch:
                self._fail(record.request.request_id, f"dispatch failed: {exc!r}")

    def _dispatch_batch(self, batch: List[RequestRecord]) -> None:
        classes: Dict[Tuple, List[RequestRecord]] = {}
        for record in batch:
            # The resolved epoch joins the coalescing key: two requests that
            # straddle an update_graph call must not share an engine batch.
            key = (record.request.class_key(), record.epoch)
            classes.setdefault(key, []).append(record)
        for group in classes.values():
            class_plan = self._class_plan(group[0].request, group[0].epoch)
            unit_plan = scale_plan(
                class_plan, [r.request.instance_count() for r in group]
            )
            if len(group) == 1 or unit_plan.route == "coalesced":
                self._dispatch_unit(group, unit_plan)
                continue
            # The plan did not fuse the class (stateful hooks, or an
            # over-budget route): one unit per request keeps them spread
            # across workers instead of serialised on one (and keeps the
            # coalescing stats honest).
            for record in group:
                self._dispatch_unit([record], scale_plan(
                    class_plan, [record.request.instance_count()]
                ))

    def _dispatch_unit(
        self, members: List[RequestRecord], unit_plan: ExecutionPlan
    ) -> None:
        head = members[0].request
        epoch = members[0].epoch
        # The worker-facing tier name: a fused unit is served in memory.
        route = "in_memory" if unit_plan.route == "coalesced" else unit_plan.route
        # A fused unit runs once, so its worker spans join the HEAD
        # request's trace; sibling members keep their own trace ids but
        # only record service-side spans (see docs/telemetry.md).
        trace_ctx = (
            (members[0].trace_id, members[0].root_span_id)
            if members[0].trace_id is not None
            else None
        )
        unit = WorkUnit(
            unit_id=next(self._unit_ids),
            handle=self.store.handle(head.graph, epoch),
            algorithm=head.algorithm,
            config=head.resolve_config(),
            program_kwargs=tuple(sorted(head.program_kwargs.items())),
            requests=tuple(
                RequestSpec(
                    request_id=p.request.request_id,
                    seeds=p.request.seeds,
                    num_instances=p.request.num_instances,
                )
                for p in members
            ),
            route=route,
            oom_config=unit_plan.layout.oom,
            cluster_shards=(
                unit_plan.layout.num_partitions if route == "sharded" else None
            ),
            plan=unit_plan,
            trace_ctx=trace_ctx,
            # Thread/inline workers accumulate straight into this process's
            # profiler; only process workers need the per-unit mirror+ship.
            profile=(self._pool.mode == "process" and _profiler.enabled()),
        )
        plan_summary = unit_plan.summary()
        dispatched_perf = time.perf_counter()
        dispatched_wall = time.time()
        for p in members:
            p.plan = plan_summary
            p.dispatched_perf = dispatched_perf
            p.dispatched_wall = dispatched_wall
        self._units.dispatch(
            Unit(
                unit_id=unit.unit_id,
                request_ids=[p.request.request_id for p in members],
                trace_ids=[p.trace_id for p in members
                           if p.trace_id is not None],
                dispatched_at=dispatched_perf,
            ),
            route,
        )
        try:
            self._pool.submit(unit)
        except Exception:
            # Never handed out (an unpicklable unit): no answer will come.
            self._units.finish(unit.unit_id)
            raise

    # ------------------------------------------------------------------ #
    # Collector: demultiplex worker results onto futures
    # ------------------------------------------------------------------ #
    def _collect_loop(self) -> None:
        while True:
            try:
                message = self._pool.next_result(timeout=0.05)
            except queue.Empty:
                if self._shutdown.is_set() and not len(self._units):
                    return
                continue
            except (EOFError, OSError):  # the pool was shut down
                return
            if isinstance(message, WorkerLost):
                for unit in self._units.reap(message.unit_ids):
                    self._fail_unit(unit, "worker_crash", "worker process died",
                                    worker_pid=message.pid)
            else:
                self._finish_unit(message)

    def _monitor_loop(self) -> None:
        while not self._shutdown.is_set():
            time.sleep(0.1)
            self._sample_load()
            if self.unit_timeout_s is None:
                continue
            # The backstop for a worker that hangs without dying.
            cutoff = time.perf_counter() - self.unit_timeout_s
            for unit in self._units.expire(cutoff):
                self._fail_unit(
                    unit, "unit_timeout",
                    f"unit unanswered after {self.unit_timeout_s}s",
                    timeout_s=self.unit_timeout_s,
                )

    def _sample_load(self) -> None:
        """One periodic load sample (monitor thread): queue + cache + units."""
        now = time.time()
        census = self._census()
        self._load_samples.append((now, "service_load", {
            "pending": float(census["pending"]),
            "inflight_units": float(census["inflight"]),
        }))
        if census["cache_bytes"] is not None:
            self._load_samples.append((now, "result_cache_bytes", {
                "bytes": float(census["cache_bytes"]),
            }))

    def load_samples(self) -> List[Tuple[float, str, Dict[str, float]]]:
        """The monitor thread's periodic load samples, oldest first.

        Each is ``(wall ts, track name, {series: value})`` -- exactly the
        shape :func:`repro.telemetry.export.chrome_counter_events` turns
        into ``ph:"C"`` counter tracks alongside a trace dump.
        """
        return list(self._load_samples)

    def _fail_unit(self, unit: Unit, reason: str, error: str, **fields) -> None:
        """One fail path for every lost unit: event, post-mortem (first, so
        the snapshot still shows the victims pending), then fail its
        requests -- transient: they were not at fault, a resubmit is safe."""
        self.recorder.record(reason, trace_id=unit.head_trace_id,
                             unit_id=unit.unit_id, **fields)
        self._dump_diagnostics(reason, unit, error)
        for request_id in unit.request_ids:
            self._fail(request_id, error, transient=True)

    def _finish_unit(self, result: UnitResult) -> None:
        # Telemetry minted in a process worker rides home on the result.
        ingest_envelope(result.telemetry)
        unit = self._units.finish(result.unit_id)
        if unit is None:  # already ended as lost; its requests have failed
            return
        if result.error is not None:
            for request_id in unit.request_ids:
                self._fail(request_id, result.error)
            return
        for payload in result.payloads:
            record = self._requests.get(payload.request_id)
            if record is None:
                continue
            if payload.error is not None:
                self._fail(payload.request_id, payload.error)
                continue
            self._resolve(
                payload.request_id, result=self._respond(record, payload)
            )
        for request_id in set(unit.request_ids).difference(
                payload.request_id for payload in result.payloads):
            self._fail(request_id, "worker returned no payload")

    def _respond(self, record: RequestRecord, payload) -> SampleResponse:
        """Build one request's response; observe its metrics; cache it."""
        request = record.request
        extra = self._close_request(record, payload.route)
        stats = payload.stats
        for key in CACHE_DELTA_KEYS:
            if key in stats:
                self.metrics.counter(key).inc(int(stats[key]))
        step_tier = stats.get("step_tier")
        if step_tier is not None:
            # Per-algorithm tier coverage: how much traffic actually ran
            # compiled vs interpreted (snapshot() pivots these counters).
            self.metrics.counter(
                "step_tier_requests",
                algorithm=request.algorithm,
                step_tier=step_tier,
            ).inc()
        migrations = stats.get("migrations")
        if migrations:
            self.metrics.counter("walker_migrations").inc(int(migrations))
            self.recorder.record(
                "shard_migration", trace_id=record.trace_id,
                request_id=payload.request_id,
                migrations=int(migrations),
                num_shards=int(stats.get("num_shards", 0)),
            )
        # Populate the deterministic result cache with the worker-side
        # payload (stats without the per-request latency annotations),
        # so an identical future request is answered bit-identically
        # without dispatching.
        ran = CachedResult(
            samples=payload.samples,
            iteration_counts=payload.iteration_counts.tolist(),
            route=payload.route,
            coalesced_with=payload.coalesced_with,
            stats=stats,
            plan=record.plan,
        )
        self.gateway.store(request, record.epoch, ran)
        self._note_cache_evictions()
        return build_response(request, record.epoch, ran, cache_hit=False,
                              **extra)

    def _resolve(self, request_id: int, *, result=None, exception=None) -> None:
        """Resolve a pending request (exactly once) and unpin its epoch."""
        record = self._requests.resolve(
            request_id, result=result, exception=exception
        )
        if record is not None:
            self._unpin(record)

    def _fail(self, request_id: int, message: str, *, transient: bool = False) -> None:
        self._resolve(
            request_id, exception=ServiceError(message, transient=transient)
        )

    # ------------------------------------------------------------------ #
    # Epoch lifecycle: retiring epochs release once their requests drain
    # ------------------------------------------------------------------ #
    def _unpin(self, record: RequestRecord) -> None:
        """One request is done with its epoch; reap the epoch if drained."""
        released = self._epochs.unpin(record.request.graph, record.epoch)
        if released is not None:
            self._epoch_released(*released)

    def _epoch_released(self, name: str, epoch: int, retired_graph) -> None:
        """What follows an epoch's release, outside the table's lock."""
        # Evict the retired epoch's compiled structures: thread/inline
        # workers sample through the owner's graph view, so the structure
        # cache would otherwise keep the stale epoch's alias/prefix arrays
        # alive until a GC pass (process workers evict via the weakref
        # finalizer when their attached mapping closes).
        if retired_graph is not None:
            from repro.compiled import evict_graph

            evict_graph(retired_graph)
        # Retirement is the cache's invalidation signal: evict exactly this
        # epoch's cached results (newer/pinned epochs' entries stay).
        self.gateway.invalidate_epoch(name, epoch)
        self.recorder.record("epoch_retire", graph=name, epoch=epoch)
        self._note_cache_evictions()

    # ------------------------------------------------------------------ #
    # Telemetry and diagnostics
    # ------------------------------------------------------------------ #
    def metrics_text(self) -> str:
        """Prometheus-style text dump of the service's metrics registry.

        Point-in-time operational gauges (queue depth, in-flight units,
        live workers, recorder occupancy, store bytes) and the SLO burn
        rates are refreshed right before rendering, so a scrape always
        sees current values.
        """
        census = self._census()
        gauge = self.metrics.gauge
        gauge("queue_depth").set(census["pending"])
        gauge("inflight_units").set(census["inflight"])
        gauge("workers_alive").set(census["workers"]["alive"])
        gauge("recorder_events").set(len(self.recorder))
        gauge("recorder_dropped").set(self.recorder.dropped)
        gauge("store_bytes").set(census["store_bytes"])
        if census["cache_bytes"] is not None:
            gauge("result_cache_bytes").set(census["cache_bytes"])
        # evaluate() refreshes the slo_* burn/violation gauges and
        # health_status as a side effect of the verdict.
        self.health()
        return self.metrics.render_prometheus()

    def _note_cache_evictions(self) -> None:
        """Turn new result-cache evictions/invalidations into events."""
        cache = self.gateway.cache
        if cache is None:
            return
        stats = cache.stats()
        total = int(stats["evictions"]) + int(stats["invalidations"])
        if total > self._evictions_seen:
            self.recorder.record(
                "cache_evict", evicted=total - self._evictions_seen,
                entries=int(stats["entries"]),
                current_bytes=int(stats["current_bytes"]),
            )
            self._evictions_seen = total

    def _census(self) -> Dict[str, object]:
        """Point-in-time occupancy: the one place every report reads it."""
        graphs: Dict[str, Dict[str, int]] = {}
        for name in self.store.names():
            epochs = graphs[name] = {}
            for epoch in self.store.epochs(name):
                try:
                    epochs[str(epoch)] = int(self.store.handle(name, epoch).nbytes)
                except KeyError:  # released between epochs() and here
                    continue
        cache = self.gateway.cache
        inflight = len(self._units)
        workers = self._pool.census()
        return {
            "pending": len(self._requests),
            "inflight": inflight,
            "graphs": graphs,
            "store_bytes": sum(sum(e.values()) for e in graphs.values()),
            "cache_bytes": (
                cache.stats()["current_bytes"] if cache is not None else None
            ),
            "workers": {
                "mode": self._pool.mode,
                "num_workers": self._pool.num_workers,
                **workers,
                "inflight_units": inflight,
                "utilization": (len(workers["claimed_units"])
                                / self._pool.num_workers),
            },
        }

    def diagnose(self, last: int = 64) -> Dict[str, object]:
        """JSON-ready snapshot of what the service is doing right now.

        The post-mortem view: the flight recorder's last ``last`` events,
        per-priority-lane queue depths, worker liveness/utilization,
        shared-memory store and result-cache occupancy, and per-tenant
        quota bucket levels.  Safe to call from any thread at any time.
        """
        lanes: Dict[str, int] = {}
        with self._queue.mutex:
            for neg_priority, _, item in list(self._queue.queue):
                if item is None:
                    continue
                lane = f"{-neg_priority:g}"
                lanes[lane] = lanes.get(lane, 0) + 1
        census = self._census()
        gateway_stats = self.gateway.stats()
        return {
            "generated_at": time.time(),
            "events": self.recorder.snapshot(last),
            "events_dropped": self.recorder.dropped,
            "event_counts": self.recorder.counts(),
            "queue": {"pending_requests": census["pending"], "lanes": lanes},
            "workers": census["workers"],
            "store": {"graphs": census["graphs"],
                      "total_bytes": census["store_bytes"],
                      "retiring": self._epochs.retiring()},
            "result_cache": gateway_stats.get("cache"),
            "tenants": gateway_stats.get("tenants", {}),
            "stats": self.stats.snapshot(),
        }

    def health(self) -> Dict[str, object]:
        """Current service health: ``ok`` / ``degraded`` / ``unhealthy``.

        Per-route SLO burn rates from the latency histograms plus hard
        operational signals (worker liveness, pending-queue saturation);
        every non-ok verdict carries machine-readable ``reasons``.
        """
        census = self._census()
        signals: Dict[str, object] = {
            "workers_alive": census["workers"]["alive"],
            "num_workers": census["workers"]["num_workers"],
            "queue_depth": census["pending"],
        }
        if self.gateway.config.max_pending is not None:
            signals["max_pending"] = self.gateway.config.max_pending
        return self.health_monitor.evaluate(signals)

    def _dump_diagnostics(self, reason: str, unit: Unit, error: str) -> None:
        """Auto-dump a diagnose() snapshot on a crash/timeout; best-effort."""
        if self.diagnostics_dir is None:
            return
        path = os.path.join(
            self.diagnostics_dir, f"diagnostics-{reason}-unit{unit.unit_id}-"
            f"{next(self._dump_seq)}.json",
        )
        try:
            self.recorder.record(
                "snapshot_dump", trace_id=unit.head_trace_id,
                unit_id=unit.unit_id, reason=reason, path=path,
            )
            self.recorder.dump(path, extra={
                "failure": {
                    "reason": reason,
                    "unit_id": unit.unit_id,
                    "error": error,
                    "trace_ids": unit.trace_ids,
                },
                "service": self.diagnose(),
            })
        except Exception:  # diagnostics must not kill the collector
            pass

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def drain(self, timeout: float = 30.0) -> bool:
        """Wait until every submitted request has resolved."""
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            if not len(self._units) and not len(self._requests):
                return True
            time.sleep(0.002)
        return False

    def shutdown(self, *, drain_timeout: float = 30.0) -> None:
        """Drain, stop the threads, stop the workers, unlink the store."""
        if self._shutdown.is_set():
            return
        self.drain(drain_timeout)
        self._shutdown.set()
        # Sentinel at -inf priority: sorts after all real work, drains last.
        self._enqueue(None, float("-inf"))
        self._dispatcher.join(timeout=5.0)
        self._collector.join(timeout=5.0)
        self._monitor.join(timeout=5.0)
        for record in self._requests.records():  # drain timeout path
            self._fail(record.request.request_id, "service shut down")
        self._pool.shutdown()
        if self._owns_store:
            self.store.close()

    def __enter__(self) -> "SamplingService":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
