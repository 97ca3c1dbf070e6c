"""The gateway's deterministic result cache: bit-identical hits, LRU byte
budget, epoch-retirement invalidation, pinned-epoch isolation."""

import numpy as np
import pytest

from repro.api.requests import SampleRequest
from repro.api.results import SampleColumns
from repro.graph import ring_graph
from repro.graph.generators import powerlaw_graph
from repro.service import SampleCache, SamplingClient, SamplingService
from repro.service.cache import CachedResult, cache_key


@pytest.fixture(scope="module")
def graph():
    return powerlaw_graph(300, 6.0, seed=5)


@pytest.fixture()
def service(graph):
    svc = SamplingService(num_workers=1, mode="thread", batch_window_s=0.0,
                          max_batch_requests=1, memory_budget_bytes=None)
    svc.load_graph("g", graph)
    yield svc
    svc.shutdown()


def assert_bit_identical(a, b):
    assert a.num_instances == b.num_instances
    assert a.iteration_counts == b.iteration_counts
    for sa, sb in zip(a.samples, b.samples):
        assert sa.instance_id == sb.instance_id
        assert np.array_equal(sa.seeds, sb.seeds)
        assert np.array_equal(sa.edges, sb.edges)


class TestCacheHits:
    def test_repeat_request_hits_without_dispatch(self, service):
        client = SamplingClient(service)
        first = client.sample("g", "deepwalk", [1, 2, 3], depth=4, seed=7,
                              timeout=30)
        assert first.stats["cache_hit"] is False
        units = service.stats.units_dispatched
        second = client.sample("g", "deepwalk", [1, 2, 3], depth=4, seed=7,
                               timeout=30)
        assert second.stats["cache_hit"] is True
        # No dispatcher work: the unit count did not move.
        assert service.stats.units_dispatched == units
        assert service.stats.cache_hits == 1
        assert_bit_identical(first, second)
        # The hit keeps the fresh run's plan/route metadata.
        assert second.route == first.route
        assert second.plan == first.plan

    def test_non_coalescable_algorithm_hits_too(self, service):
        client = SamplingClient(service)
        kwargs = dict(depth=3, seed=11, timeout=30)
        first = client.sample("g", "forest_fire_sampling", [4, 5], **kwargs)
        second = client.sample("g", "forest_fire_sampling", [4, 5], **kwargs)
        assert second.stats["cache_hit"] is True
        assert_bit_identical(first, second)

    def test_different_seeds_or_config_miss(self, service):
        client = SamplingClient(service)
        client.sample("g", "deepwalk", [1], depth=4, seed=1, timeout=30)
        other_seeds = client.sample("g", "deepwalk", [2], depth=4, seed=1,
                                    timeout=30)
        other_config = client.sample("g", "deepwalk", [1], depth=5, seed=1,
                                     timeout=30)
        assert other_seeds.stats["cache_hit"] is False
        assert other_config.stats["cache_hit"] is False

    def test_hit_serves_other_tenants(self, service):
        client = SamplingClient(service)
        client.sample("g", "deepwalk", [9], depth=4, seed=2, tenant="alpha",
                      timeout=30)
        hit = client.sample("g", "deepwalk", [9], depth=4, seed=2,
                            tenant="beta", timeout=30)
        assert hit.stats["cache_hit"] is True
        assert hit.stats["tenant"] == "beta"

    def test_mutating_a_response_does_not_poison_the_cache(self, service):
        client = SamplingClient(service)
        first = client.sample("g", "deepwalk", [1, 2, 3], depth=4, seed=9,
                              timeout=30)
        victim = next(i for i, s in enumerate(first.samples)
                      if s.edges.size > 0)
        first.samples[victim].edges[:] = -1
        second = client.sample("g", "deepwalk", [1, 2, 3], depth=4, seed=9,
                               timeout=30)
        assert second.stats["cache_hit"] is True
        assert not np.array_equal(first.samples[victim].edges,
                                  second.samples[victim].edges)

    def test_stats_expose_hit_rate(self, service):
        client = SamplingClient(service)
        client.sample("g", "deepwalk", [6], depth=4, seed=4, timeout=30)
        client.sample("g", "deepwalk", [6], depth=4, seed=4, timeout=30)
        snap = service.stats()
        assert snap["cache_hits"] == 1
        assert snap["result_cache"]["hits"] == 1
        assert 0.0 < snap["cache_hit_rate"] <= 1.0
        text = service.metrics_text()
        assert "cache_hits" in text

    def test_cache_disabled(self, graph):
        svc = SamplingService(num_workers=1, mode="thread", cache_bytes=None,
                              memory_budget_bytes=None)
        try:
            svc.load_graph("g", graph)
            client = SamplingClient(svc)
            client.sample("g", "deepwalk", [1], depth=3, seed=1, timeout=30)
            again = client.sample("g", "deepwalk", [1], depth=3, seed=1,
                                  timeout=30)
            assert again.stats["cache_hit"] is False
            assert svc.gateway.cache is None
        finally:
            svc.shutdown()


class TestEpochInteraction:
    def _service(self):
        return SamplingService(num_workers=1, mode="thread",
                               batch_window_s=0.0, max_batch_requests=1,
                               memory_budget_bytes=None)

    def test_retirement_evicts_exactly_the_retired_epoch(self):
        svc = self._service()
        try:
            svc.load_graph("g", ring_graph(24))
            svc.load_graph("h", ring_graph(16))
            client = SamplingClient(svc)
            client.sample("g", "deepwalk", [0], depth=3, seed=1, timeout=30)
            client.sample("h", "deepwalk", [0], depth=3, seed=1, timeout=30)
            assert len(svc.gateway.cache) == 2
            # Publishing epoch 1 retires epoch 0 (no pinned requests): its
            # cache entries go with it; graph "h" is untouched.
            svc.update_graph("g", add_edges=[(0, 12), (12, 0)])
            assert svc.drain(10.0)
            keys = svc.gateway.cache.keys()
            assert all(not (k[0] == "g" and k[1] == 0) for k in keys)
            assert any(k[0] == "h" for k in keys)
            # The new epoch starts cold, then caches under its own key.
            fresh = client.sample("g", "deepwalk", [0], depth=3, seed=1,
                                  timeout=30)
            assert fresh.stats["cache_hit"] is False
            assert fresh.epoch == 1
        finally:
            svc.shutdown()

    def test_pinned_request_never_sees_newer_epochs_entry(self):
        svc = self._service()
        try:
            svc.load_graph("g", ring_graph(24))
            client = SamplingClient(svc)
            kwargs = dict(depth=3, seed=1, timeout=30)
            pinned = client.sample("g", "deepwalk", [0], epoch=0, **kwargs)
            # Keep epoch 0 alive across the update by holding a pinned
            # in-flight request? Not needed: sample both epochs before any
            # retirement happens by pinning explicitly.
            latest = client.sample("g", "deepwalk", [0], **kwargs)
            # Same request against the same epoch: hit.
            assert latest.stats["cache_hit"] is True
            assert pinned.epoch == latest.epoch == 0
            svc.update_graph("g", add_edges=[(0, 12), (12, 0)])
            new = client.sample("g", "deepwalk", [0], **kwargs)
            # Epoch 1's answer is computed fresh, not served from epoch 0's
            # (evicted) entry -- and differs where the graph differs.
            assert new.stats["cache_hit"] is False
            assert new.epoch == 1
        finally:
            svc.shutdown()

    def test_replan_invalidates_cached_results(self):
        svc = self._service()
        try:
            svc.load_graph("g", ring_graph(24))
            client = SamplingClient(svc)
            client.sample("g", "deepwalk", [0], depth=3, seed=1, timeout=30)
            assert len(svc.gateway.cache) == 1
            svc.memory_budget_bytes = 64
            assert svc.replan("g") == "out_of_memory"
            redone = client.sample("g", "deepwalk", [0], depth=3, seed=1,
                                   timeout=30)
            assert redone.stats["cache_hit"] is False
            assert redone.route == "out_of_memory"
        finally:
            svc.shutdown()


class TestSampleCacheUnit:
    def _entry(self, n=8):
        return CachedResult(
            samples=SampleColumns(
                np.zeros(1, dtype=np.int64),
                np.array([0, 2], dtype=np.int64),
                np.arange(2, dtype=np.int64),
                np.array([0, n], dtype=np.int64),
                np.arange(2 * n, dtype=np.int64).reshape(n, 2),
            ),
            iteration_counts=[n],
            route="in_memory",
            coalesced_with=1,
            stats={"sampled_edges": float(n)},
        )

    def test_lru_eviction_respects_byte_budget(self):
        entry = self._entry()
        cache = SampleCache(max_bytes=3 * entry.nbytes)
        for i in range(4):
            cache.put(("g", 0, "a", i), self._entry())
        assert len(cache) == 3
        assert cache.current_bytes <= cache.max_bytes
        # Key 1 survives; key 0 (oldest) was evicted.
        assert cache.get(("g", 0, "a", 0)) is None
        assert cache.get(("g", 0, "a", 1)) is not None
        stats = cache.stats()
        assert stats["evictions"] == 1
        assert stats["entries"] == 3

    def test_get_refreshes_recency(self):
        entry = self._entry()
        cache = SampleCache(max_bytes=2 * entry.nbytes)
        cache.put(("k", 1), self._entry())
        cache.put(("k", 2), self._entry())
        cache.get(("k", 1))  # now most recent
        cache.put(("k", 3), self._entry())  # evicts ("k", 2)
        assert cache.get(("k", 2)) is None
        assert cache.get(("k", 1)) is not None

    def test_oversized_entry_is_not_cached(self):
        entry = self._entry(n=64)
        cache = SampleCache(max_bytes=entry.nbytes - 1)
        cache.put(("big",), entry)
        assert len(cache) == 0

    def test_defensive_copies_both_directions(self):
        cache = SampleCache(max_bytes=1 << 20)
        entry = self._entry()
        cache.put(("k",), entry)
        entry.samples[0].edges[:] = -5  # writer mutates after put
        out = cache.get(("k",))
        assert not np.array_equal(out.samples[0].edges, entry.samples[0].edges)
        out.samples[0].edges[:] = -9  # reader mutates after get
        assert not np.array_equal(cache.get(("k",)).samples[0].edges,
                                  out.samples[0].edges)

    def test_invalidate_epoch_is_surgical(self):
        cache = SampleCache(max_bytes=1 << 20)
        cache.put(("g", 0, "a"), self._entry())
        cache.put(("g", 1, "a"), self._entry())
        cache.put(("h", 0, "a"), self._entry())
        assert cache.invalidate_epoch("g", 0) == 1
        assert sorted(k[:2] for k in cache.keys()) == [("g", 1), ("h", 0)]
        assert cache.stats()["invalidations"] == 1

    def test_clear_resets_contents_and_accounting(self):
        cache = SampleCache(max_bytes=1 << 20)
        cache.put(("k",), self._entry())
        cache.clear()
        assert len(cache) == 0
        assert cache.current_bytes == 0
        assert cache.get(("k",)) is None

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            SampleCache(max_bytes=0)


class TestCacheKey:
    def test_identity_fields_excluded(self):
        a = SampleRequest(graph="g", algorithm="deepwalk", seeds=(1, 2),
                          tenant="alpha", priority=3)
        b = SampleRequest(graph="g", algorithm="deepwalk", seeds=(1, 2),
                          tenant="beta", priority=0)
        assert cache_key(a, 0) == cache_key(b, 0)
        assert cache_key(a, 0) != cache_key(a, 1)

    def test_config_and_kwargs_included(self):
        a = SampleRequest(graph="g", algorithm="deepwalk", seeds=(1,),
                          config_overrides={"depth": 4})
        b = SampleRequest(graph="g", algorithm="deepwalk", seeds=(1,),
                          config_overrides={"depth": 5})
        assert cache_key(a, 0) != cache_key(b, 0)
