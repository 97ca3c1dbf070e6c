"""Admission control: token buckets, per-tenant sheds, overload ceiling,
priority lanes, client retry-after handling."""

import asyncio
import itertools
import queue
from types import SimpleNamespace

import pytest

from repro.graph import ring_graph
from repro.service import (
    AdmissionController,
    AdmissionRejected,
    SamplingClient,
    SamplingService,
    TenantQuota,
    TokenBucket,
)
from repro.service.lifecycle import RequestRecord


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


@pytest.fixture
def manual_clock(monkeypatch):
    """A manual admission clock that the clients' backoff sleeps advance.

    Retry-after hints are milliseconds; on the wall clock a slow first
    request alone can refill the bucket before the next one is submitted.
    """
    from repro.service import client as client_module

    clock = FakeClock()

    async def backoff(seconds):
        clock.advance(seconds)

    monkeypatch.setattr(client_module, "time",
                        SimpleNamespace(sleep=clock.advance))
    monkeypatch.setattr(client_module, "asyncio", SimpleNamespace(
        sleep=backoff, wait_for=asyncio.wait_for,
        wrap_future=asyncio.wrap_future,
    ))
    return clock


class TestTokenBucket:
    def test_starts_full_and_spends(self):
        bucket = TokenBucket(TenantQuota(rate=1.0, burst=4.0), now=0.0)
        assert bucket.try_spend(3.0, now=0.0) == 0.0
        assert bucket.level == pytest.approx(1.0)

    def test_prices_the_wait_when_short(self):
        bucket = TokenBucket(TenantQuota(rate=2.0, burst=4.0), now=0.0)
        bucket.try_spend(4.0, now=0.0)
        wait = bucket.try_spend(3.0, now=0.0)
        assert wait == pytest.approx(1.5)  # 3 cost-s missing at 2/s
        # After exactly that wait the spend admits.
        assert bucket.try_spend(3.0, now=wait) == 0.0

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(TenantQuota(rate=10.0, burst=2.0), now=0.0)
        bucket.try_spend(2.0, now=0.0)
        bucket.try_spend(0.0, now=100.0)  # huge idle gap
        assert bucket.level <= 2.0

    def test_oversized_request_admits_on_full_bucket(self):
        # Cost > burst: the charge clamps to capacity, so a full bucket
        # admits (and fully drains) instead of starving the request forever.
        bucket = TokenBucket(TenantQuota(rate=1.0, burst=2.0), now=0.0)
        assert bucket.try_spend(50.0, now=0.0) == 0.0
        assert bucket.level == pytest.approx(0.0)
        wait = bucket.try_spend(50.0, now=0.0)
        assert wait == pytest.approx(2.0)  # one full refill, not 50s


class TestAdmissionController:
    def test_unlimited_without_quota(self):
        ctl = AdmissionController()
        ctl.admit("anyone", 1e9)  # never raises
        assert ctl.headroom("anyone") == float("inf")

    def test_default_quota_applies_to_unlisted_tenants(self):
        clock = FakeClock()
        ctl = AdmissionController(
            default_quota=TenantQuota(rate=1.0, burst=1.0), clock=clock
        )
        ctl.admit("t", 1.0)
        with pytest.raises(AdmissionRejected) as info:
            ctl.admit("t", 1.0)
        assert info.value.tenant == "t"
        assert info.value.reason == "tenant_quota"
        assert info.value.retry_after_s == pytest.approx(1.0)
        clock.advance(1.0)
        ctl.admit("t", 1.0)  # refilled

    def test_explicit_quota_overrides_default(self):
        clock = FakeClock()
        ctl = AdmissionController(
            default_quota=TenantQuota(rate=1.0, burst=1.0),
            quotas={"vip": TenantQuota(rate=100.0, burst=100.0)},
            clock=clock,
        )
        for _ in range(5):
            ctl.admit("vip", 10.0)  # plenty of headroom

    def test_set_quota_resets_bucket(self):
        clock = FakeClock()
        ctl = AdmissionController(clock=clock)
        ctl.set_quota("t", TenantQuota(rate=1.0, burst=2.0))
        ctl.admit("t", 2.0)
        ctl.set_quota("t", TenantQuota(rate=1.0, burst=5.0))
        ctl.admit("t", 5.0)  # fresh full bucket under the new quota
        ctl.set_quota("t", None)
        ctl.admit("t", 1e9)  # unlimited again

    def test_headroom_tracks_spend_and_refill(self):
        clock = FakeClock()
        ctl = AdmissionController(
            quotas={"t": TenantQuota(rate=1.0, burst=4.0)}, clock=clock
        )
        assert ctl.headroom("t") == pytest.approx(4.0)
        ctl.admit("t", 3.0)
        assert ctl.headroom("t") == pytest.approx(1.0)
        clock.advance(2.0)
        assert ctl.headroom("t") == pytest.approx(3.0)

    def test_quota_validation(self):
        with pytest.raises(ValueError):
            TenantQuota(rate=0.0, burst=1.0)
        with pytest.raises(ValueError):
            TenantQuota(rate=1.0, burst=0.0)


@pytest.fixture()
def graph():
    return ring_graph(32)


def make_service(graph, **kwargs):
    kwargs.setdefault("num_workers", 1)
    kwargs.setdefault("mode", "thread")
    kwargs.setdefault("batch_window_s", 0.0)
    kwargs.setdefault("max_batch_requests", 1)
    kwargs.setdefault("memory_budget_bytes", None)
    svc = SamplingService(**kwargs)
    svc.load_graph("g", graph)
    return svc


class TestServiceAdmission:
    def test_over_quota_tenant_sheds_before_compute(self, graph):
        # A bucket this small admits exactly one request (charge clamps to
        # burst on the full bucket) and then prices a long wait.
        svc = make_service(
            graph, quotas={"greedy": TenantQuota(rate=1e-9, burst=1e-9)}
        )
        try:
            client = SamplingClient(svc)
            first = client.sample("g", "deepwalk", [1], depth=3, seed=1,
                                  tenant="greedy", timeout=30)
            assert first.ok
            units = svc.stats.units_dispatched
            with pytest.raises(AdmissionRejected) as info:
                client.sample("g", "deepwalk", [2], depth=3, seed=1,
                              tenant="greedy", timeout=30)
            err = info.value
            assert err.tenant == "greedy"
            assert err.reason == "tenant_quota"
            assert err.retry_after_s > 0.0
            assert err.predicted_cost_s > 0.0
            # Shed at the door: nothing was dispatched, nothing left pending.
            assert svc.stats.units_dispatched == units
            assert len(svc._requests) == 0
            assert svc.stats.requests_shed == 1
            # Unlisted tenants are unlimited and unaffected.
            ok = client.sample("g", "deepwalk", [3], depth=3, seed=1,
                               tenant="polite", timeout=30)
            assert ok.ok
            snap = svc.stats()
            assert snap["requests_shed"] == 1
            assert 0.0 < snap["shed_rate"] < 1.0
            assert snap["tenants"]["greedy"]["shed"] == 1
            assert snap["tenants"]["polite"]["completed"] == 1
            assert 'tenant="greedy"' in svc.metrics_text()
        finally:
            svc.shutdown()

    def test_cache_hit_bypasses_quota(self, graph):
        svc = make_service(
            graph, quotas={"t": TenantQuota(rate=1e-9, burst=1e-9)}
        )
        try:
            client = SamplingClient(svc)
            client.sample("g", "deepwalk", [1], depth=3, seed=1, tenant="t",
                          timeout=30)
            # The bucket is empty, but the identical request is a cache hit
            # and hits are free: served, not shed.
            again = client.sample("g", "deepwalk", [1], depth=3, seed=1,
                                  tenant="t", timeout=30)
            assert again.stats["cache_hit"] is True
        finally:
            svc.shutdown()

    def test_max_pending_ceiling_sheds_with_overload_reason(self, graph):
        svc = make_service(graph, max_pending=0)
        try:
            client = SamplingClient(svc)
            with pytest.raises(AdmissionRejected) as info:
                client.sample("g", "deepwalk", [1], depth=3, seed=1,
                              timeout=30)
            assert info.value.reason == "service_overloaded"
            assert info.value.retry_after_s > 0.0
        finally:
            svc.shutdown()

    def test_client_retry_honours_retry_after(self, graph, manual_clock):
        # burst/rate = 10ms: the shed's retry_after hint is short enough
        # that one retry (which sleeps it out) succeeds.
        svc = make_service(
            graph, quotas={"t": TenantQuota(rate=1e-4, burst=1e-6)}
        )
        svc.gateway.admission._clock = manual_clock
        try:
            client = SamplingClient(svc)
            client.sample("g", "deepwalk", [1], depth=3, seed=1, tenant="t",
                          timeout=30)
            retried = client.sample("g", "deepwalk", [2], depth=3, seed=1,
                                    tenant="t", retries=2, timeout=30)
            assert retried.ok
            assert retried.stats["attempts"] >= 2
            # Without retries the shed surfaces.
            with pytest.raises(AdmissionRejected):
                client.sample("g", "deepwalk", [4], depth=3, seed=1,
                              tenant="t", timeout=30)
        finally:
            svc.shutdown()

    def test_async_client_retry_honours_retry_after(self, graph,
                                                    manual_clock):
        from repro.service import AsyncSamplingClient

        svc = make_service(
            graph, quotas={"t": TenantQuota(rate=1e-4, burst=1e-6)}
        )
        svc.gateway.admission._clock = manual_clock

        async def scenario():
            client = AsyncSamplingClient(svc)
            await client.sample("g", "deepwalk", [1], depth=3, seed=1,
                                tenant="t", timeout=30)
            retried = await client.sample("g", "deepwalk", [2], depth=3,
                                          seed=1, tenant="t", retries=2,
                                          timeout=30)
            assert retried.ok
            with pytest.raises(AdmissionRejected):
                await client.sample("g", "deepwalk", [4], depth=3, seed=1,
                                    tenant="t", timeout=30)

        try:
            asyncio.run(scenario())
        finally:
            svc.shutdown()

    def test_no_quota_no_planning_overhead(self, graph):
        svc = make_service(graph)
        try:
            assert not svc.gateway.admission_active
            client = SamplingClient(svc)
            assert client.sample("g", "deepwalk", [1], depth=3, seed=1,
                                 timeout=30).ok
        finally:
            svc.shutdown()

    def test_tenant_and_priority_on_fresh_responses(self, graph):
        svc = make_service(graph)
        try:
            client = SamplingClient(svc)
            response = client.sample("g", "deepwalk", [1], depth=3, seed=1,
                                     tenant="alpha", priority=7, timeout=30)
            assert response.stats["tenant"] == "alpha"
            assert response.stats["priority"] == 7
            assert response.stats["cache_hit"] is False
        finally:
            svc.shutdown()


class TestPriorityLanes:
    def test_queue_orders_by_priority_then_fifo(self):
        # The dispatch queue's exact tuple scheme: higher priority first,
        # FIFO within a lane, sentinel (None at -inf) last, and RequestRecord
        # objects never compared (seq always breaks ties).
        q = queue.PriorityQueue()
        seq = itertools.count()

        def put(pending, priority):
            q.put((-float(priority), next(seq), pending))

        a = RequestRecord(request=None, future=None, enqueued_at=0.0)
        b = RequestRecord(request=None, future=None, enqueued_at=0.0)
        c = RequestRecord(request=None, future=None, enqueued_at=0.0)
        d = RequestRecord(request=None, future=None, enqueued_at=0.0)
        put(a, 0)
        put(b, 5)
        put(c, 5)
        put(d, -1)
        put(None, float("-inf"))
        drained = [q.get_nowait()[2] for _ in range(5)]
        assert drained == [b, c, a, d, None]

    def test_priority_validation(self):
        from repro.api.requests import SampleRequest

        request = SampleRequest(graph="g", algorithm="deepwalk", seeds=(1,),
                                priority="3")
        assert request.priority == 3
        with pytest.raises(ValueError):
            SampleRequest(graph="g", algorithm="deepwalk", seeds=(1,),
                          tenant="")
