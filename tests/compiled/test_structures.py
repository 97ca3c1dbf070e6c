"""Structure-cache lifecycle: hits, eviction, and incremental patching."""

import numpy as np
import pytest

from repro.compiled import (
    bind_structures,
    clear_structure_cache,
    evict_graph,
    get_structures,
    structure_cache_stats,
    update_structures,
)
from repro.graph.delta import DeltaGraph
from repro.graph.generators import powerlaw_graph


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_structure_cache()
    yield
    clear_structure_cache()


@pytest.fixture
def graph():
    return powerlaw_graph(200, 5.0, seed=3)


class TestCacheLifecycle:
    def test_second_fetch_hits(self, graph):
        first = get_structures(graph, "weight_or_degree")
        second = get_structures(graph, "weight_or_degree")
        assert first is second
        stats = structure_cache_stats()
        assert (stats["entries"], stats["hits"], stats["misses"]) == (1, 1, 1)

    def test_kinds_build_independently_on_one_entry(self, graph):
        entry = get_structures(graph, "weight_or_degree")
        assert get_structures(graph, "node2vec") is entry
        assert entry.has("weight_or_degree") and entry.has("node2vec")
        stats = structure_cache_stats()
        assert (stats["entries"], stats["builds"]) == (1, 2)

    def test_epoch_retirement_evicts(self, graph):
        get_structures(graph, "weight_or_degree")
        assert evict_graph(graph)
        stats = structure_cache_stats()
        assert (stats["entries"], stats["evictions"]) == (0, 1)
        # A second eviction of the same graph is a no-op.
        assert not evict_graph(graph)
        # The next fetch rebuilds from scratch.
        get_structures(graph, "weight_or_degree")
        assert structure_cache_stats()["misses"] == 2

    def test_garbage_collected_graph_evicts(self):
        import gc

        graph = powerlaw_graph(64, 4.0, seed=9)
        get_structures(graph, "weight_or_degree")
        assert structure_cache_stats()["entries"] == 1
        del graph
        gc.collect()
        assert structure_cache_stats()["entries"] == 0


class TestIncrementalUpdates:
    def test_delta_publish_patches_instead_of_rebuilding(self, graph):
        get_structures(graph, "weight_or_degree")
        delta = DeltaGraph(graph)
        bind_structures(delta)
        delta.add_edge(0, 5)
        delta.add_edge(5, 0)
        delta.compact()
        new_graph = delta.base

        stats = structure_cache_stats()
        assert stats["updates"] == 1
        # The patch rebuilt only the touched rows (plus their in-neighbor
        # rows for the degree bias), never the whole graph.
        assert 0 < stats["rows_rebuilt"] < graph.num_vertices
        # The patched entry serves the new graph as a hit ...
        patched = get_structures(new_graph, "weight_or_degree")
        assert structure_cache_stats()["hits"] == stats["hits"] + 1
        patched_bias = patched.flat_bias.copy()
        patched_prefix = patched.ctps.prefix.copy()
        patched_totals = patched.ctps.totals.copy()
        patched_counts = patched.positive_counts.copy()
        # ... and is bitwise identical to a from-scratch build.
        assert evict_graph(new_graph)
        fresh = get_structures(new_graph, "weight_or_degree")
        assert np.array_equal(patched_bias, fresh.flat_bias)
        assert np.array_equal(patched_prefix, fresh.ctps.prefix)
        assert np.array_equal(patched_totals, fresh.ctps.totals)
        assert np.array_equal(patched_counts, fresh.positive_counts)

    @pytest.mark.parametrize("structures_first", [True, False])
    def test_both_cache_families_follow_one_graph(self, graph, structures_first):
        # The alias/ITS caches and the structure cache bind through one
        # chaining hook, so neither order drops the other's patch.
        from repro.selection import VertexITSCache, bind_caches

        get_structures(graph, "weight_or_degree")
        its = VertexITSCache.build(graph)
        delta = DeltaGraph(graph)
        if structures_first:
            bind_structures(delta)
            bind_caches(delta, its)
        else:
            bind_caches(delta, its)
            bind_structures(delta)
        delta.add_edge(0, 5)
        delta.add_edge(5, 0)
        delta.compact()

        stats = structure_cache_stats()
        assert stats["updates"] == 1
        assert 0 < stats["rows_rebuilt"] < graph.num_vertices
        assert its.last_update_size > 0

    def test_update_without_cached_entry_is_lazy(self, graph):
        delta = DeltaGraph(graph)
        delta.add_edge(1, 7)
        new_graph = delta.to_csr()
        assert update_structures(graph, new_graph, [1, 7]) == 0
        assert structure_cache_stats()["entries"] == 0

    def test_node2vec_keys_follow_the_update(self, graph):
        entry = get_structures(graph, "node2vec")
        old_keys = entry.sorted_edge_keys
        delta = DeltaGraph(graph)
        bind_structures(delta)
        delta.add_edge(2, 9)
        delta.compact()
        new_entry = get_structures(delta.base, "node2vec")
        assert new_entry.has("node2vec")
        assert new_entry.sorted_edge_keys.size == old_keys.size + 1


class TestNode2VecTableReuse:
    def test_second_run_reuses_prefix_rows(self, graph):
        from repro.algorithms.node2vec import Node2Vec
        from repro.api.sampler import GraphSampler

        config = Node2Vec.default_config(seed=4)
        seeds = list(range(0, graph.num_vertices, 20))
        first = GraphSampler(graph, Node2Vec(), config)
        assert first.plan(seeds).step_tier == "compiled"
        first.run(seeds)
        after_first = structure_cache_stats()
        assert after_first["table_misses"] > 0
        # A second request over the same graph answers its transitions from
        # the cached per-edge prefix rows instead of re-scanning.
        GraphSampler(graph, Node2Vec(), config).run(seeds)
        after_second = structure_cache_stats()
        assert after_second["table_hits"] > after_first["table_hits"]


class TestServiceEpochRetirement:
    def test_retiring_epoch_evicts_structures(self):
        from repro.service import SamplingClient, SamplingService

        graph = powerlaw_graph(80, 4.0, seed=6)
        svc = SamplingService(
            num_workers=1, mode="thread",
            batch_window_s=0.0, max_batch_requests=1,
        )
        try:
            svc.load_graph("g", graph)
            client = SamplingClient(svc)
            client.sample("g", "biased_random_walk", [0, 1], depth=4,
                          seed=2, timeout=30)
            assert structure_cache_stats()["entries"] >= 1
            before = structure_cache_stats()["evictions"]
            svc.update_graph("g", add_edges=[(0, 7), (7, 0)])
            svc.drain(10.0)
            # Epoch 0 retires once its requests drain; its structures go
            # with it (thread workers share this process's cache).
            assert structure_cache_stats()["evictions"] > before
        finally:
            svc.shutdown()
