"""The service's multi-tenant front door: result cache + admission control.

``Gateway`` sits between ``SamplingService.submit`` and the dispatcher and
decides, *before any compute is spent*, one of three fates for a request:

1. **Cache hit** -- the deterministic result cache (:mod:`repro.service.
   cache`) already holds a bit-identical answer for the request's
   ``(graph, epoch, algorithm, config, program kwargs, seeds, instances)``
   key: build the :class:`~repro.api.requests.SampleResponse` right here and
   never touch the dispatcher.  Hits are free, so they bypass quota
   accounting too.
2. **Shed** -- the tenant's token bucket (:mod:`repro.service.qos`) cannot
   cover the planner's predicted cost, or the service-wide pending ceiling
   is reached: raise :class:`~repro.service.qos.AdmissionRejected` with a
   retry-after hint.
3. **Admit** -- charge the tenant's bucket and let the request queue in its
   priority lane.

Per-tenant counters (``tenant_requests`` / ``tenant_completed`` /
``tenant_shed`` / ``tenant_cache_hits``, labelled by tenant) land in the
service's metrics registry, so they show up in ``stats()`` and the
Prometheus dump alongside the cache hit-rate and shed-rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.api.requests import SampleRequest, SampleResponse
from repro.service.cache import CachedResult, SampleCache, cache_key
from repro.service.qos import (
    AdmissionController,
    AdmissionRejected,
    TenantQuota,
)
from repro.telemetry.metrics import MetricsRegistry

__all__ = ["GatewayConfig", "Gateway"]

#: Retry-after hint for service-wide overload sheds: the queue drains
#: continuously, so a short fixed backoff beats pricing an unknowable wait.
_OVERLOAD_RETRY_AFTER_S = 0.1


@dataclass(frozen=True)
class GatewayConfig:
    """Front-door switches, all independently optional.

    ``cache_bytes=None`` disables the result cache; ``default_quota=None``
    leaves unlisted tenants unlimited; ``max_pending=None`` disables the
    service-wide pending-request ceiling.
    """

    cache_bytes: Optional[int] = 64 * 1024 * 1024
    default_quota: Optional[TenantQuota] = None
    quotas: Dict[str, TenantQuota] = field(default_factory=dict)
    max_pending: Optional[int] = None


def build_response(request: SampleRequest, epoch: int, entry: CachedResult,
                   **stats: object) -> SampleResponse:
    """One request's answer from a run's payload, fresh or cached: the
    entry verbatim plus the per-request ``stats`` annotations."""
    return SampleResponse(
        request_id=request.request_id,
        graph=request.graph,
        algorithm=request.algorithm,
        samples=entry.samples,
        iteration_counts=list(entry.iteration_counts),
        route=entry.route,
        epoch=epoch,
        coalesced_with=entry.coalesced_with,
        stats={**entry.stats, "tenant": request.tenant,
               "priority": request.priority, **stats},
        plan=entry.plan,
    )


class Gateway:
    """Cache + admission control in front of the dispatch queue."""

    def __init__(self, config: GatewayConfig, metrics: MetricsRegistry,
                 **admission_kwargs):
        self.config = config
        self.metrics = metrics
        self.cache: Optional[SampleCache] = (
            SampleCache(config.cache_bytes)
            if config.cache_bytes else None
        )
        self.admission = AdmissionController(
            default_quota=config.default_quota,
            quotas=config.quotas,
            **admission_kwargs,
        )

    # ------------------------------------------------------------------ #
    # Admission
    # ------------------------------------------------------------------ #
    @property
    def admission_active(self) -> bool:
        """Whether any quota or ceiling makes cost prediction worthwhile."""
        return (
            self.config.max_pending is not None
            or self.admission.default_quota is not None
            or bool(self.admission._quotas)
        )

    def admit(self, request: SampleRequest, predicted_cost_s: float,
              pending_count: int) -> None:
        """Shed-or-admit; raises :class:`AdmissionRejected` on shed.

        Charges the tenant's bucket with the planner's calibrated cost
        estimate.  The service-wide ``max_pending`` ceiling is checked
        first: global overload sheds regardless of tenant budgets.
        """
        ceiling = self.config.max_pending
        try:
            if ceiling is not None and pending_count >= ceiling:
                raise AdmissionRejected(
                    f"service overloaded: {pending_count} requests pending "
                    f"(ceiling {ceiling}); retry shortly",
                    tenant=request.tenant,
                    retry_after_s=_OVERLOAD_RETRY_AFTER_S,
                    predicted_cost_s=predicted_cost_s,
                    reason="service_overloaded",
                )
            self.admission.admit(request.tenant, predicted_cost_s)
        except AdmissionRejected:
            self.metrics.counter("requests_shed").inc()
            self.metrics.counter("tenant_shed", tenant=request.tenant).inc()
            raise

    # ------------------------------------------------------------------ #
    # Result cache
    # ------------------------------------------------------------------ #
    def lookup(self, request: SampleRequest, epoch: int) -> Optional[SampleResponse]:
        """A bit-identical cached answer, or ``None``.

        The returned response carries the cached run's samples, iteration
        counts, route, plan and cost totals verbatim, with
        ``stats["cache_hit"] = True``; the caller stamps latency.
        """
        if self.cache is None:
            return None
        entry = self.cache.get(cache_key(request, epoch))
        if entry is None:
            self.metrics.counter("cache_misses").inc()
            return None
        self.metrics.counter("cache_hits").inc()
        self.metrics.counter("tenant_cache_hits", tenant=request.tenant).inc()
        return build_response(request, epoch, entry, cache_hit=True)

    def store(self, request: SampleRequest, epoch: int,
              result: CachedResult) -> None:
        """Cache one completed request's payload under its determinism key."""
        if self.cache is not None:
            self.cache.put(cache_key(request, epoch), result)

    def invalidate_epoch(self, graph: str, epoch: int) -> int:
        """Epoch retired: evict exactly its entries (0 when cache is off)."""
        if self.cache is None:
            return 0
        return self.cache.invalidate_epoch(graph, epoch)

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def tenant_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-tenant counter rollup from the bound metrics registry."""
        tenants: Dict[str, Dict[str, int]] = {}
        for metric, key in (
            ("tenant_requests", "submitted"),
            ("tenant_completed", "completed"),
            ("tenant_shed", "shed"),
            ("tenant_cache_hits", "cache_hits"),
        ):
            for labels, counter in self.metrics.find_counters(metric):
                tenant = labels.get("tenant", "?")
                tenants.setdefault(tenant, {})[key] = counter.value
        return tenants

    def stats(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "cache_enabled": self.cache is not None,
            "max_pending": self.config.max_pending,
        }
        if self.cache is not None:
            out["cache"] = self.cache.stats()
        tenants = self.tenant_stats()
        if tenants:
            out["tenants"] = tenants
        return out
