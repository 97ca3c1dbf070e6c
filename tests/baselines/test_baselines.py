"""Tests for the KnightKing / GraphSAINT baselines."""

import hashlib

import numpy as np
import pytest

from repro.baselines.graphsaint import GraphSAINTSampler
from repro.baselines.knightking import KnightKingEngine
from repro.gpusim.costmodel import CostModel
from repro.gpusim.device import POWER9_SPEC
from repro.graph import from_edge_list
from repro.selection import build_alias_table


class TestKnightKing:
    def test_walks_are_valid_paths(self, small_weighted_graph):
        engine = KnightKingEngine(small_weighted_graph, biased=True, seed=0)
        result = engine.run_walks(list(range(10)), walk_length=8)
        assert len(result.walks) == 10
        for walk in result.walks:
            assert walk[0] in range(10)
            for a, b in zip(walk, walk[1:]):
                assert small_weighted_graph.has_edge(int(a), int(b))

    def test_unbiased_mode_on_unweighted_graph(self, small_powerlaw_graph):
        engine = KnightKingEngine(small_powerlaw_graph, biased=True, seed=0)
        assert engine.biased is False  # silently degrades without weights
        result = engine.run_walks([0, 1, 2], walk_length=5)
        assert result.total_sampled_edges > 0

    def test_seps_and_times_positive(self, small_weighted_graph):
        engine = KnightKingEngine(small_weighted_graph, biased=True, seed=1)
        result = engine.run_walks(list(range(20)), walk_length=10, num_walkers=40)
        assert result.kernel_time() > 0
        assert result.preprocessing_time() > 0
        assert result.seps() > 0
        assert result.total_sampled_edges <= 40 * 10

    def test_walker_expansion(self, small_weighted_graph):
        engine = KnightKingEngine(small_weighted_graph, seed=2)
        result = engine.run_walks([0, 1], walk_length=3, num_walkers=7)
        assert len(result.walks) == 7

    def test_invalid_arguments(self, small_weighted_graph):
        engine = KnightKingEngine(small_weighted_graph, seed=3)
        with pytest.raises(ValueError):
            engine.run_walks([], walk_length=5)
        with pytest.raises(ValueError):
            engine.run_walks([0], walk_length=0)
        with pytest.raises(ValueError):
            engine.run_walks([10**7], walk_length=5)

    def test_biased_walk_distribution(self, toy_graph):
        """With one overwhelming edge weight, the walker should take it."""
        weights = np.ones(toy_graph.num_edges)
        start, end = toy_graph.edge_range(8)
        weights[start] = 1e6
        g = toy_graph.with_weights(weights)
        target = int(g.col_idx[start])
        engine = KnightKingEngine(g, biased=True, seed=4)
        result = engine.run_walks([8] * 100, walk_length=1)
        first_steps = [int(w[1]) for w in result.walks if len(w) > 1]
        assert np.mean([s == target for s in first_steps]) > 0.95

    def test_alias_tables_match_fresh_builds(self):
        rng = np.random.default_rng(7)
        edges, weights = [], []
        for v in range(40):
            for dst in rng.integers(0, 40, size=int(rng.integers(0, 6))):
                edges.append((v, int(dst)))
                # Row 3 keeps its edges but carries no positive weight.
                weights.append(0.0 if v == 3 else float(rng.uniform(0.1, 3.0)))
        graph = from_edge_list(edges, num_vertices=40, weights=weights)
        engine = KnightKingEngine(graph, biased=True, seed=0)
        assert len(engine.alias_tables) == graph.num_vertices
        expected_cost = CostModel()
        for v, table in enumerate(engine.alias_tables):
            row = graph.neighbor_weights(v)
            if not np.any(row > 0):
                assert table is None
                continue
            fresh = build_alias_table(row, expected_cost)
            assert np.array_equal(table.prob, fresh.prob)
            assert np.array_equal(table.alias, fresh.alias)
        assert engine.alias_tables[3] is None
        assert any(graph.degree(v) == 0 for v in range(40))
        # Preprocessing charges exactly one build per table, in vertex order.
        assert engine.preprocessing_cost.as_dict() == expected_cost.as_dict()

    def test_walk_stops_at_vertex_without_positive_weight(self):
        graph = from_edge_list([(0, 1), (1, 2), (2, 0)], num_vertices=3,
                               weights=[1.0, 0.0, 1.0])
        engine = KnightKingEngine(graph, biased=True, seed=0)
        assert engine.alias_tables[1] is None
        result = engine.run_walks([0, 1], walk_length=5)
        assert np.array_equal(result.walks[0], [0, 1])
        assert np.array_equal(result.walks[1], [1])

    def test_mutated_graph_gets_its_own_tables(self):
        from repro.graph.delta import DeltaGraph

        graph = from_edge_list([(0, 1), (1, 0), (2, 0)], num_vertices=3,
                               weights=[1.0, 2.0, 3.0])
        engine = KnightKingEngine(graph, biased=True, seed=0)
        old_table = engine.alias_tables[0]
        delta = DeltaGraph(graph)
        delta.add_edge(0, 2, 3.0)
        fresh = KnightKingEngine(delta.to_csr(), biased=True, seed=0)
        assert engine.alias_tables[0] is old_table
        assert old_table.prob.size == 1
        expected = build_alias_table(np.array([1.0, 3.0]))
        assert np.array_equal(fresh.alias_tables[0].prob, expected.prob)
        assert np.array_equal(fresh.alias_tables[0].alias, expected.alias)

    def test_unbiased_engine_builds_no_tables(self, small_weighted_graph):
        engine = KnightKingEngine(small_weighted_graph, biased=False, seed=0)
        assert engine.alias_tables == []
        assert engine.preprocessing_cost.as_dict() == CostModel().as_dict()


class TestFig09Regression:
    """KnightKing's walks, sampling cost and preprocessing cost are pinned."""

    def test_knightking_walks_and_costs_are_pinned(self):
        from repro.bench.workloads import SMALL_SCALE, get_graph

        graph = get_graph("AM", weighted=True, scale=SMALL_SCALE)
        engine = KnightKingEngine(graph, biased=True, seed=SMALL_SCALE.seed)
        result = engine.run_walks(np.arange(0, graph.num_vertices, 7), 12)
        digest = hashlib.sha256(
            b"".join(w.tobytes() for w in result.walks)
        ).hexdigest()
        assert digest == (
            "94db3f40ea9ae6724a32c471b5bdf936b84608f7c7e96ae5a589b64c12cff7ce"
        )
        cost = result.cost.as_dict()
        assert (cost["warp_steps"], cost["global_bytes"], cost["rng_draws"],
                cost["selection_attempts"], cost["sampled_edges"]) == (
            849384, 767584, 6768, 3384, 3384)
        pre = result.preprocessing_cost.as_dict()
        assert (pre["warp_steps"], pre["lane_ops"], pre["global_bytes"]) == (
            16330, 16330, 261280)

    def test_fig09_rows_are_pinned(self):
        from repro.bench import figures
        from repro.bench.workloads import SMALL_SCALE

        rows = figures.fig09_baseline_comparison(SMALL_SCALE)
        assert list(rows) == FIG09_SMALL_ROWS

    def test_fig09_walk_panel_keeps_the_papers_ratios(self):
        """C-SAW beats KnightKing on every graph and 6 GPUs beat 1 on average."""
        from repro.bench import figures
        from repro.bench.workloads import SMALL_SCALE

        walks = [r for r in figures.fig09_baseline_comparison(SMALL_SCALE)
                 if r["panel"] == "a:biased_random_walk"]
        assert len(walks) == len(SMALL_SCALE.all_graphs)
        assert all(r["speedup_1gpu"] > 1 for r in walks)
        assert (np.mean([r["speedup_6gpu"] for r in walks])
                > np.mean([r["speedup_1gpu"] for r in walks]))


FIG09_SMALL_ROWS = [
    {"panel": "a:biased_random_walk", "graph": "AM",
     "knightking_mseps": 46.66574833780148,
     "csaw_1gpu_mseps": 208.3777100678848,
     "csaw_6gpu_mseps": 231.14837686250067,
     "speedup_1gpu": 4.4653245150917025, "speedup_6gpu": 4.953276977136986},
    {"panel": "b:multidimensional_random_walk", "graph": "AM",
     "graphsaint_mseps": 80.63361374619652,
     "csaw_1gpu_mseps": 85.33960421388002,
     "speedup_1gpu": 1.0583626387190848},
    {"panel": "a:biased_random_walk", "graph": "RE",
     "knightking_mseps": 38.170681324208296,
     "csaw_1gpu_mseps": 130.11609246916973,
     "csaw_6gpu_mseps": 206.31149784051112,
     "speedup_1gpu": 3.408796698282893, "speedup_6gpu": 5.404972892366632},
    {"panel": "b:multidimensional_random_walk", "graph": "RE",
     "graphsaint_mseps": 57.55006008903333,
     "csaw_1gpu_mseps": 68.7713238861911,
     "speedup_1gpu": 1.1949826599624365},
    {"panel": "a:biased_random_walk", "graph": "WG",
     "knightking_mseps": 44.60491141649871,
     "csaw_1gpu_mseps": 197.84839866452333,
     "csaw_6gpu_mseps": 220.79851177473682,
     "speedup_1gpu": 4.435574298469341, "speedup_6gpu": 4.950094165932289},
    {"panel": "b:multidimensional_random_walk", "graph": "WG",
     "graphsaint_mseps": 80.52887480039088,
     "csaw_1gpu_mseps": 84.6710808364693,
     "speedup_1gpu": 1.0514375253143151},
    {"panel": "a:biased_random_walk", "graph": "TW",
     "knightking_mseps": 27.062347057016037,
     "csaw_1gpu_mseps": 81.78090494058098,
     "csaw_6gpu_mseps": 156.07244950004153,
     "speedup_1gpu": 3.021944281783161, "speedup_6gpu": 5.767143890780124},
    {"panel": "b:multidimensional_random_walk", "graph": "TW",
     "graphsaint_mseps": 42.24520033258522,
     "csaw_1gpu_mseps": 55.867535769277616,
     "speedup_1gpu": 1.3224587723444883},
]


class TestGraphSAINT:
    def test_sampled_edges_valid(self, small_powerlaw_graph):
        sampler = GraphSAINTSampler(small_powerlaw_graph, seed=0)
        result = sampler.run(num_instances=5, frontier_size=20, steps=15)
        assert len(result.edges_per_instance) == 5
        assert result.total_sampled_edges > 0
        for edges in result.edges_per_instance:
            for src, dst in edges:
                assert small_powerlaw_graph.has_edge(int(src), int(dst))

    def test_seed_pools_respected(self, small_powerlaw_graph):
        sampler = GraphSAINTSampler(small_powerlaw_graph, seed=1)
        result = sampler.run(num_instances=2, frontier_size=4, steps=5,
                             seeds=[7, 8, 9, 10])
        sources = set(result.edges_per_instance[0][:, 0].tolist())
        assert sources <= set(range(small_powerlaw_graph.num_vertices))

    def test_metrics_positive(self, small_powerlaw_graph):
        sampler = GraphSAINTSampler(small_powerlaw_graph, seed=2)
        result = sampler.run(num_instances=8, frontier_size=16, steps=10)
        assert result.kernel_time(POWER9_SPEC) > 0
        assert result.seps() > 0

    def test_invalid_arguments(self, small_powerlaw_graph):
        sampler = GraphSAINTSampler(small_powerlaw_graph)
        with pytest.raises(ValueError):
            sampler.run(num_instances=0, frontier_size=4, steps=4)
        with pytest.raises(ValueError):
            sampler.run(num_instances=1, frontier_size=0, steps=4)
