"""Dynamic-graph bit-compatibility (the DeltaGraph acceptance bar).

Sampling a mutated-then-compacted :class:`~repro.graph.delta.DeltaGraph`
must be bit-identical to sampling a freshly built CSR holding the same
edges: same sampled edges in the same order, same iteration counts, same
cost totals.  These tests assert that for every registered algorithm and
for the DeltaGraph handed directly to the samplers.
"""

import numpy as np
import pytest

from repro.algorithms.registry import ALGORITHM_REGISTRY
from repro.api.sampler import GraphSampler
from repro.engine.hetero import run_coalesced
from repro.api.instance import make_instances
from repro.graph import from_edge_list
from repro.graph.delta import DeltaGraph
from repro.graph.generators import powerlaw_graph
from repro.oom.scheduler import OutOfMemoryConfig, OutOfMemorySampler

from bitcompat import assert_equivalent

SEEDS = [0, 3, 17, 42, 77, 101]


@pytest.fixture(scope="module")
def mutated_pair():
    """(delta, fresh): a mutated graph and its from-scratch CSR equivalent."""
    base = powerlaw_graph(200, 5.0, exponent=2.1, seed=13)
    rng = np.random.default_rng(29)
    base = base.with_weights(rng.uniform(0.1, 2.0, size=base.num_edges))

    delta = DeltaGraph(base)
    # A representative mutation mix: inserts (some parallel), deletions,
    # new vertices and a retirement.
    for _ in range(60):
        delta.add_edge(int(rng.integers(200)), int(rng.integers(200)),
                       float(rng.uniform(0.1, 2.0)))
    removed = 0
    for v in rng.permutation(200):
        if removed >= 25:
            break
        neigh = delta.neighbors(int(v))
        if neigh.size:
            delta.remove_edge(int(v), int(neigh[removed % neigh.size]))
            removed += 1
    first_new = delta.add_vertices(3)
    delta.add_edge(first_new, 0, 1.0)
    delta.add_edge(0, first_new + 1, 0.7)
    delta.retire_vertex(150)
    delta.compact()

    # The reference graph is built from scratch out of the merged edges.
    nv = delta.num_vertices
    edges, weights = [], []
    for v in range(nv):
        for dst, w in zip(delta.neighbors(v), delta.neighbor_weights(v)):
            edges.append((v, int(dst)))
            weights.append(float(w))
    fresh = from_edge_list(edges, num_vertices=nv, weights=weights)
    return delta, fresh


class TestCompactionBitCompat:
    def test_compacted_arrays_equal_fresh_build(self, mutated_pair):
        delta, fresh = mutated_pair
        assert np.array_equal(delta.base.row_ptr, fresh.row_ptr)
        assert np.array_equal(delta.base.col_idx, fresh.col_idx)
        assert np.array_equal(delta.base.weights, fresh.weights)

    @pytest.mark.parametrize("name", sorted(ALGORITHM_REGISTRY))
    def test_every_registered_algorithm(self, mutated_pair, name):
        delta, fresh = mutated_pair
        info = ALGORITHM_REGISTRY[name]
        config = info.config_factory(seed=7)
        via_delta = GraphSampler(delta, info.program_factory(), config).run(
            SEEDS, num_instances=12
        )
        via_fresh = GraphSampler(fresh, info.program_factory(), config).run(
            SEEDS, num_instances=12
        )
        assert_equivalent(via_delta, via_fresh)

    def test_out_of_memory_sampler_accepts_delta(self, mutated_pair):
        delta, fresh = mutated_pair
        info = ALGORITHM_REGISTRY["deepwalk"]
        config = info.config_factory(seed=3, depth=6)
        oom = OutOfMemoryConfig.fully_optimized(num_partitions=3)
        a = OutOfMemorySampler(delta, info.program_factory(), config, oom).run(SEEDS)
        b = OutOfMemorySampler(fresh, info.program_factory(), config, oom).run(SEEDS)
        assert_equivalent(a.sample, b.sample)

    def test_run_coalesced_accepts_delta(self, mutated_pair):
        delta, fresh = mutated_pair
        info = ALGORITHM_REGISTRY["unbiased_neighbor_sampling"]
        config = info.config_factory(seed=5)
        members_a = [make_instances([0, 3]), make_instances([17, 42])]
        members_b = [make_instances([0, 3]), make_instances([17, 42])]
        for ra, rb in zip(
            run_coalesced(delta, info.program_factory(), config, members_a),
            run_coalesced(fresh, info.program_factory(), config, members_b),
        ):
            for sa, sb in zip(ra.samples, rb.samples):
                assert np.array_equal(sa.edges, sb.edges)


class TestStructureBitCompat:
    """A compacted graph's cached structures equal a fresh CSR's, bitwise."""

    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        from repro.compiled import clear_structure_cache

        clear_structure_cache()
        yield
        clear_structure_cache()

    @staticmethod
    def _assert_weight_or_degree_equal(a_graph, b_graph):
        from repro.compiled import get_structures

        a = get_structures(a_graph, "weight_or_degree")
        b = get_structures(b_graph, "weight_or_degree")
        assert a is not b
        assert np.array_equal(a.flat_bias, b.flat_bias)
        assert np.array_equal(a.ctps.prefix, b.ctps.prefix)
        assert np.array_equal(a.ctps.totals, b.ctps.totals)
        assert np.array_equal(a.positive_counts, b.positive_counts)

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

    def test_node2vec_keys_equal_fresh_build(self, mutated_pair):
        from repro.compiled import get_structures

        delta, fresh = mutated_pair
        a = get_structures(delta.base, "node2vec").sorted_edge_keys
        b = get_structures(fresh, "node2vec").sorted_edge_keys
        assert np.array_equal(a, b)

    def test_knightking_on_compacted_graph_matches_fresh(self, mutated_pair):
        from repro.baselines.knightking import KnightKingEngine

        delta, fresh = mutated_pair
        a = KnightKingEngine(delta.base, biased=True, seed=11)
        b = KnightKingEngine(fresh, biased=True, seed=11)
        walks_a = a.run_walks(SEEDS, walk_length=8)
        walks_b = b.run_walks(SEEDS, walk_length=8)
        for wa, wb in zip(walks_a.walks, walks_b.walks):
            assert np.array_equal(wa, wb)
        assert walks_a.cost.as_dict() == walks_b.cost.as_dict()
        assert (a.preprocessing_cost.as_dict()
                == b.preprocessing_cost.as_dict())
