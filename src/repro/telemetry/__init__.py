"""Unified telemetry: structured tracing, metrics and plan-cost feedback.

One zero-dependency subsystem observes every layer of the stack:

* :mod:`repro.telemetry.trace` -- lightweight spans with a trace id minted
  per request and propagated through :class:`~repro.service.workers.WorkUnit`
  into process workers and across cluster shards on the walkers they
  migrate (once per :class:`~repro.compiled.walk_kernel.WalkerBatch` on
  walk-kernel shards, per :class:`~repro.distributed.router.WalkerEnvelope`
  otherwise), so one sampling request yields a single coherent span tree
  covering admission -> plan -> dispatch -> per-depth engine (or
  compiled-kernel) steps -> migration epochs -> reassembly;
* :mod:`repro.telemetry.metrics` -- a process-local registry of counters and
  fixed-bucket histograms (no locks on the hot path, mergeable across
  workers) behind the service's per-route latency / queue-wait / fusion-rate
  / kernel-cache statistics and a Prometheus-style text dump;
* :mod:`repro.telemetry.export` -- JSON and Chrome ``trace_event`` exporters
  (viewable in ``chrome://tracing`` / Perfetto) plus span-tree helpers;
* :mod:`repro.telemetry.feedback` -- every executed plan records predicted
  vs actual cost, so :func:`repro.planner.calibration.fit_from_telemetry`
  can refresh the host calibration from live traffic;
* :mod:`repro.telemetry.profiler` -- continuous phase-level profiler
  (gather / bias / select / update / migrate / reassemble) keyed by
  (route, algorithm, step_tier) with per-depth totals and a
  collapsed-stack flamegraph exporter (``python -m
  repro.telemetry.profiler dump``);
* :mod:`repro.telemetry.recorder` -- flight recorder: a bounded lock-free
  ring of trace-id-correlated operational events behind
  ``SamplingService.diagnose()`` and crash auto-dumps;
* :mod:`repro.telemetry.health` -- rolling-window per-route latency
  objectives with error-budget burn rates behind
  ``SamplingService.health()``.

Spans, feedback and profile minted in a child process (a service worker, a
cluster shard) travel home in one envelope: :func:`reset_child` at the
child's start, :func:`drain_envelope` when it answers,
:func:`ingest_envelope` in the parent.

**Overhead contract.**  Telemetry is disabled by default and the disabled
mode costs near zero: every instrumented hot path is guarded by a no-op
span / a single boolean check, and ``benchmarks/bench_telemetry_overhead.py``
pins the total disabled-mode instrumentation cost of a run below 3% of its
wall time.  Enabling telemetry never changes sampling results -- spans and
metrics observe the RNG-independent control flow only (asserted for all
13 algorithms x 4 routes by the ``telemetry=on`` and ``profiler=on`` cells
of ``tests/integration/test_bitcompat_matrix.py``).

Enable with :func:`enable` (or ``REPRO_TELEMETRY=1``), disable with
:func:`disable`.
"""

from typing import Optional, Tuple

from repro.telemetry.trace import (
    Span,
    SpanRecord,
    TraceContext,
    activated,
    active,
    clear,
    current,
    disable,
    drain,
    enable,
    enabled,
    ingest,
    new_span_id,
    new_trace_id,
    record_span,
    span,
    spans,
    spans_for,
)
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.export import (
    chrome_counter_events,
    chrome_trace_events,
    format_tree,
    is_connected,
    span_tree,
    write_chrome_trace,
    write_json,
)
from repro.telemetry.feedback import FEEDBACK, PlanFeedbackSink
from repro.telemetry.health import HealthMonitor, LatencyObjective
from repro.telemetry.recorder import FlightRecorder, RecorderEvent
from repro.telemetry import profiler


def reset_child(*, profile: bool = False) -> None:
    """Start a child process with empty buffers.

    A forked child inherits the parent's span/feedback buffers and profiler
    accumulators; those records belong to the parent and must not ship home
    again.  The profiler's runtime switch does not survive a spawn, so the
    parent passes its state as ``profile``.
    """
    clear()
    FEEDBACK.clear()
    profiler.clear()
    if profile:
        profiler.enable()


def drain_envelope() -> Optional[Tuple[list, list, dict]]:
    """Remove and return everything buffered in this process as ``(spans,
    feedback, profile)``; ``None`` when there is nothing to ship."""
    envelope = (drain(), FEEDBACK.drain(), profiler.drain())
    return envelope if any(envelope) else None


def ingest_envelope(envelope: Optional[Tuple[list, list, dict]]) -> None:
    """Fold a child's envelope into this process's buffers."""
    if envelope is not None:
        spans_, feedback, profile = envelope
        ingest(spans_)
        FEEDBACK.ingest(feedback)
        profiler.ingest(profile)


__all__ = [
    "Counter",
    "FEEDBACK",
    "FlightRecorder",
    "Gauge",
    "HealthMonitor",
    "Histogram",
    "LatencyObjective",
    "MetricsRegistry",
    "PlanFeedbackSink",
    "RecorderEvent",
    "profiler",
    "Span",
    "SpanRecord",
    "TraceContext",
    "activated",
    "active",
    "chrome_counter_events",
    "chrome_trace_events",
    "clear",
    "current",
    "disable",
    "drain",
    "drain_envelope",
    "enable",
    "enabled",
    "format_tree",
    "ingest",
    "ingest_envelope",
    "is_connected",
    "new_span_id",
    "new_trace_id",
    "record_span",
    "reset_child",
    "span",
    "span_tree",
    "spans",
    "spans_for",
    "write_chrome_trace",
    "write_json",
]
