"""Structure-cache lifecycle: hits, lazy builds and eviction."""

import numpy as np
import pytest

from repro.compiled import (
    clear_structure_cache,
    evict_graph,
    get_structures,
    structure_cache_stats,
)
from repro.graph import from_edge_list
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


class TestPublishedSnapshots:
    """A DeltaGraph publish is a new snapshot with its own lazy entry."""

    def test_snapshot_builds_nothing_until_first_use(self, graph):
        get_structures(graph, "weight_or_degree")
        delta = DeltaGraph(graph)
        delta.add_edge(1, 7)
        delta.to_csr()
        stats = structure_cache_stats()
        assert (stats["entries"], stats["builds"]) == (1, 1)

    def test_snapshot_misses_and_builds_its_own_entry(self, graph):
        old = get_structures(graph, "weight_or_degree")
        delta = DeltaGraph(graph)
        delta.add_edge(0, 5)
        delta.add_edge(5, 0)
        new_graph = delta.to_csr()
        new = get_structures(new_graph, "weight_or_degree")
        assert new is not old
        stats = structure_cache_stats()
        assert (stats["entries"], stats["misses"], stats["builds"]) == (2, 2, 2)
        assert new.ctps.prefix.size == old.ctps.prefix.size + 2

    def test_old_entry_is_untouched_by_a_publish(self, graph):
        old = get_structures(graph, "weight_or_degree")
        bias = old.flat_bias.copy()
        prefix = old.ctps.prefix.copy()
        counts = old.positive_counts.copy()
        delta = DeltaGraph(graph)
        delta.add_edge(0, 5)
        delta.retire_vertex(9)
        get_structures(delta.to_csr(), "weight_or_degree")
        assert get_structures(graph, "weight_or_degree") is old
        assert np.array_equal(old.flat_bias, bias)
        assert np.array_equal(old.ctps.prefix, prefix)
        assert np.array_equal(old.positive_counts, counts)

    def test_snapshot_structures_equal_a_rebuild(self, graph):
        delta = DeltaGraph(graph)
        delta.add_edge(0, 5)
        delta.add_edge(5, 0)
        new_graph = delta.to_csr()
        first = get_structures(new_graph, "weight_or_degree")
        bias = first.flat_bias.copy()
        prefix = first.ctps.prefix.copy()
        totals = first.ctps.totals.copy()
        counts = first.positive_counts.copy()
        assert evict_graph(new_graph)
        rebuilt = get_structures(new_graph, "weight_or_degree")
        assert rebuilt is not first
        assert np.array_equal(rebuilt.flat_bias, bias)
        assert np.array_equal(rebuilt.ctps.prefix, prefix)
        assert np.array_equal(rebuilt.ctps.totals, totals)
        assert np.array_equal(rebuilt.positive_counts, counts)

    def test_vertex_losing_all_edges_has_no_positive_pool(self):
        from repro.graph import from_edge_list

        graph = from_edge_list([(0, 1), (1, 0)], num_vertices=2,
                               weights=[1.0, 2.0])
        delta = DeltaGraph(graph)
        delta.remove_edge(0, 1)
        entry = get_structures(delta.to_csr(), "weight_or_degree")
        assert np.array_equal(entry.positive_counts, [0, 1])
        assert np.array_equal(entry.ctps.totals, [0.0, 2.0])

    def test_unknown_kind_is_rejected(self, graph):
        with pytest.raises(ValueError):
            get_structures(graph, "alias")
        assert structure_cache_stats()["entries"] == 0


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

    def test_resets_never_corrupt_samples(self, graph, monkeypatch):
        """A table too small for one request's rows resets mid-run; every
        kernel still reads only rows it resolved after the reset."""
        from repro.algorithms.node2vec import Node2Vec
        from repro.api.sampler import GraphSampler

        entry = get_structures(graph, "weight_or_degree")
        entry.node2vec_table(0.5, 2.0).max_floats = 400
        config = Node2Vec.default_config(seed=4, depth=10)
        seeds = list(range(graph.num_vertices))
        compiled = GraphSampler(graph, Node2Vec(p=0.5, q=2.0), config)
        assert compiled.plan(seeds).step_tier == "compiled"
        runs = [compiled.run(seeds) for _ in range(3)]
        assert structure_cache_stats()["table_resets"] > 0
        monkeypatch.setenv("REPRO_COMPILED", "0")
        interpreted = GraphSampler(graph, Node2Vec(p=0.5, q=2.0), config)
        for run in runs:
            reference = interpreted.run(seeds)
            for a, b in zip(run.samples, reference.samples):
                assert np.array_equal(a.edges, b.edges)
            assert run.iteration_counts == reference.iteration_counts
            assert run.cost.as_dict() == reference.cost.as_dict()


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
            assert structure_cache_stats()["entries"] == 1
            before = structure_cache_stats()
            svc.update_graph("g", add_edges=[(0, 7), (7, 0)])
            svc.drain(10.0)
            # Epoch 0 retires once its requests drain; its structures go
            # with it (thread workers share this process's cache).
            retired = structure_cache_stats()
            assert retired["evictions"] == before["evictions"] + 1
            assert retired["entries"] == 0
            # A publish is a fresh snapshot: the new epoch's first biased
            # walk misses and builds its structures from scratch.
            response = client.sample("g", "biased_random_walk", [0, 1],
                                     depth=4, seed=2, timeout=30)
            assert response.epoch == 1
            after = structure_cache_stats()
            assert after["misses"] == retired["misses"] + 1
            assert after["builds"] == retired["builds"] + 1
            assert after["hits"] == retired["hits"]
            assert after["entries"] == 1
        finally:
            svc.shutdown()


class TestStructureBitCompat:
    """A compacted graph's arrays and cached structures equal a fresh CSR's."""

    @staticmethod
    def _assert_weight_or_degree_equal(a_graph, b_graph):
        a = get_structures(a_graph, "weight_or_degree")
        b = get_structures(b_graph, "weight_or_degree")
        assert a is not b
        assert np.array_equal(a.flat_bias, b.flat_bias)
        assert np.array_equal(a.ctps.prefix, b.ctps.prefix)
        assert np.array_equal(a.ctps.totals, b.ctps.totals)
        assert np.array_equal(a.positive_counts, b.positive_counts)

    def test_compacted_arrays_equal_fresh_build(self, mutated_pair):
        delta, fresh = mutated_pair
        assert np.array_equal(delta.base.row_ptr, fresh.row_ptr)
        assert np.array_equal(delta.base.col_idx, fresh.col_idx)
        assert np.array_equal(delta.base.weights, fresh.weights)

    def test_weight_structures_equal_fresh_build(self, mutated_pair):
        delta, fresh = mutated_pair
        self._assert_weight_or_degree_equal(delta.base, fresh)

    def test_degree_structures_equal_fresh_build(self):
        # Degree bias reads the in-neighbor's degree, so a mutation moves
        # rows the overlay never touched directly.
        base = powerlaw_graph(120, 4.0, exponent=2.1, seed=5)
        delta = DeltaGraph(base)
        rng = np.random.default_rng(8)
        for _ in range(30):
            delta.add_edge(int(rng.integers(120)), int(rng.integers(120)))
        delta.retire_vertex(11)
        delta.compact()
        assert not delta.base.is_weighted
        edges = [(v, int(d)) for v in range(delta.num_vertices)
                 for d in delta.neighbors(v)]
        fresh = from_edge_list(edges, num_vertices=delta.num_vertices)
        self._assert_weight_or_degree_equal(delta.base, fresh)

    def test_knightking_on_compacted_graph_matches_fresh(self, mutated_pair):
        from repro.baselines.knightking import KnightKingEngine

        delta, fresh = mutated_pair
        seeds = [0, 3, 17, 42, 77, 101]
        a = KnightKingEngine(delta.base, biased=True, seed=11)
        b = KnightKingEngine(fresh, biased=True, seed=11)
        walks_a = a.run_walks(seeds, walk_length=8)
        walks_b = b.run_walks(seeds, walk_length=8)
        for wa, wb in zip(walks_a.walks, walks_b.walks):
            assert np.array_equal(wa, wb)
        assert walks_a.cost.as_dict() == walks_b.cost.as_dict()
        assert (a.preprocessing_cost.as_dict()
                == b.preprocessing_cost.as_dict())
