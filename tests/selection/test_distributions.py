"""Statistical correctness of every selection kernel (chi-square GOF).

Each kernel draws a large, *fixed-seed* sample and a chi-square
goodness-of-fit test compares the empirical category counts against the
exact edge-weight distribution.

Rejection thresholds
--------------------

All tests assert ``p > ALPHA`` with ``ALPHA = 1e-3``: a correct kernel
fails such a test for ~1 in 1000 seeds, and because every seed here is
fixed the tests are fully deterministic -- each one was verified to pass
at its pinned seed, so any future failure means a kernel's distribution
actually changed, not statistical bad luck.  Sample sizes keep every
expected cell count well above 5 (the classical chi-square validity rule).

Without-replacement kernels are checked two ways:

* the *first* selection of every trial is exactly bias-proportional
  (multinomial over candidates);
* the *selected set* of every trial follows successive weighted sampling
  without replacement, whose exact set probabilities are enumerated over
  all ordered selections -- repeated, updated and bipartite strategies must
  all match it (Theorem 2's equivalence), whatever collision detector
  backs them.
"""

import itertools

import numpy as np
import pytest
from scipy import stats

from repro.gpusim.prng import CounterRNG
from repro.selection import (
    CTPS,
    build_alias_table,
    dartboard_sample,
    sample_with_replacement,
    select_without_replacement,
)

ALPHA = 1e-3

#: A deliberately skewed pool: the shapes rejection/bitmap kernels struggle
#: with, and small enough for exact set-probability enumeration.
BIASES = np.array([0.5, 1.0, 2.0, 4.0, 0.25])


def chisquare_pvalue(counts, probabilities):
    total = int(np.sum(counts))
    expected = np.asarray(probabilities, dtype=np.float64) * total
    assert expected.min() > 5, "sample size too small for a valid chi-square"
    return stats.chisquare(counts, expected).pvalue


def exact_set_probabilities(biases, k):
    """P(selected set) under successive weighted sampling w/o replacement."""
    probs = {}
    total = float(np.sum(biases))
    for sequence in itertools.permutations(range(len(biases)), k):
        p, remaining = 1.0, total
        for index in sequence:
            p *= biases[index] / remaining
            remaining -= biases[index]
        key = frozenset(sequence)
        probs[key] = probs.get(key, 0.0) + p
    return probs


class TestWithReplacementKernels:
    def test_its_sample_with_replacement(self):
        rng = CounterRNG(101)
        draws = sample_with_replacement(BIASES, 40_000, rng, 0)
        counts = np.bincount(draws, minlength=BIASES.size)
        assert chisquare_pvalue(counts, BIASES / BIASES.sum()) > ALPHA

    def test_ctps_search_many(self):
        ctps = CTPS.from_biases(BIASES)
        rng = CounterRNG(202)
        rs = rng.uniform(np.arange(40_000, dtype=np.int64))
        counts = np.bincount(ctps.search_many(rs), minlength=BIASES.size)
        assert chisquare_pvalue(counts, ctps.probabilities()) > ALPHA

    def test_ctps_zero_width_regions_never_hit(self):
        biases = np.array([1.0, 0.0, 2.0, 0.0, 1.0])
        ctps = CTPS.from_biases(biases)
        rng = CounterRNG(303)
        rs = rng.uniform(np.arange(30_000, dtype=np.int64))
        counts = np.bincount(ctps.search_many(rs), minlength=biases.size)
        assert counts[1] == 0 and counts[3] == 0
        positive = biases > 0
        assert chisquare_pvalue(
            counts[positive], biases[positive] / biases.sum()
        ) > ALPHA

    def test_alias_table_sample_many(self):
        table = build_alias_table(BIASES)
        rng = CounterRNG(404)
        draws = table.sample_many(40_000, rng, 0)
        counts = np.bincount(draws, minlength=BIASES.size)
        assert chisquare_pvalue(counts, BIASES / BIASES.sum()) > ALPHA
        # The reconstructed table probabilities are exact.
        np.testing.assert_allclose(table.probabilities(), BIASES / BIASES.sum())

    def test_dartboard_rejection_sampling(self):
        rng = CounterRNG(505)
        counts = np.zeros(BIASES.size, dtype=np.int64)
        for trial in range(8_000):
            index, _ = dartboard_sample(BIASES, rng, trial)
            counts[index] += 1
        assert chisquare_pvalue(counts, BIASES / BIASES.sum()) > ALPHA


#: (strategy, detector) pairs cover every collision-mitigation kernel and
#: every bitmap layout; all must produce the same selection distribution.
STRATEGY_MATRIX = [
    ("bipartite", "strided_bitmap", 606),
    ("bipartite", "bitmap", 707),
    ("repeated", "bitmap", 808),
    ("repeated", "linear", 909),
    ("updated", "strided_bitmap", 1010),
    ("updated", "linear", 1111),
]


class TestWithoutReplacementKernels:
    @pytest.mark.parametrize("strategy,detector,seed", STRATEGY_MATRIX)
    def test_first_selection_is_bias_proportional(self, strategy, detector, seed):
        rng = CounterRNG(seed)
        counts = np.zeros(BIASES.size, dtype=np.int64)
        for trial in range(8_000):
            result = select_without_replacement(
                BIASES, 3, rng, trial, strategy=strategy, detector=detector
            )
            counts[result.indices[0]] += 1
        assert chisquare_pvalue(counts, BIASES / BIASES.sum()) > ALPHA

    @pytest.mark.parametrize("strategy,detector,seed", STRATEGY_MATRIX)
    def test_selected_set_matches_exact_enumeration(self, strategy, detector, seed):
        k = 3
        exact = exact_set_probabilities(BIASES, k)
        keys = sorted(exact, key=sorted)
        rng = CounterRNG(seed + 1)
        counts = {key: 0 for key in keys}
        trials = 6_000
        for trial in range(trials):
            result = select_without_replacement(
                BIASES, k, rng, trial, strategy=strategy, detector=detector
            )
            counts[frozenset(int(i) for i in result.indices)] += 1
        observed = np.array([counts[key] for key in keys])
        probabilities = np.array([exact[key] for key in keys])
        assert chisquare_pvalue(observed, probabilities) > ALPHA

    def test_uniform_pool_full_selection_is_exhaustive(self):
        rng = CounterRNG(1212)
        biases = np.ones(4)
        for trial in range(50):
            result = select_without_replacement(
                biases, 4, rng, trial, strategy="bipartite"
            )
            assert sorted(result.indices.tolist()) == [0, 1, 2, 3]


# --------------------------------------------------------------------------- #
# Compiled-tier kernels: the same exact-enumeration bar, end to end
# --------------------------------------------------------------------------- #

#: Backends to drive the compiled engine through (the numba leg only runs
#: where numba is installed -- the CI compiled-smoke job's with-numba leg).
def _compiled_backends():
    from repro.compiled import NUMBA_AVAILABLE

    backends = ["numpy"]
    if NUMBA_AVAILABLE:
        backends.append("numba")
    return backends


class TestCompiledSelectionDistributions:
    """Distribution correctness of the compiled step engine's selections.

    The compiled tier must not just be bit-identical to the interpreted
    engine on pinned seeds -- its without-replacement and frontier-scope
    selections must themselves match the exact enumerated set
    probabilities, closing the loop against a shared bug in both tiers'
    shapes.  Every test asserts the run actually used the compiled engine.
    """

    TRIALS = 6_000

    def _weighted_star(self):
        """Hub vertex 0 with 5 weighted out-edges (BIASES), leaf sinks."""
        from repro.graph.csr import CSRGraph

        row_ptr = np.array([0, 5, 5, 5, 5, 5, 5], dtype=np.int64)
        col_idx = np.arange(1, 6, dtype=np.int64)
        return CSRGraph(row_ptr, col_idx, weights=BIASES.copy())

    @pytest.mark.parametrize("backend", _compiled_backends())
    def test_compiled_without_replacement_matches_enumeration(self, backend):
        from repro.algorithms.neighbor_sampling import BiasedNeighborSampling
        from repro.api.sampler import GraphSampler
        from repro.compiled import force_backend

        graph = self._weighted_star()
        config = BiasedNeighborSampling.default_config(
            depth=1, neighbor_size=3, seed=77
        )
        with force_backend(backend):
            sampler = GraphSampler(graph, BiasedNeighborSampling(), config)
            assert sampler.engine.kind is not None
            result = sampler.run([0], num_instances=self.TRIALS)
        k = 3
        exact = exact_set_probabilities(BIASES, k)
        keys = sorted(exact, key=sorted)
        counts = {key: 0 for key in keys}
        for sample in result.samples:
            # Hub edges go to vertices 1..5; index = destination - 1.
            chosen = frozenset(int(dst) - 1 for dst in sample.edges[:, 1])
            assert len(chosen) == k
            counts[chosen] += 1
        observed = np.array([counts[key] for key in keys])
        probabilities = np.array([exact[key] for key in keys])
        assert chisquare_pvalue(observed, probabilities) > ALPHA

    def _frontier_graph(self):
        """Candidates 0..4 with controlled degrees; leaves are sinks."""
        from repro.graph.csr import CSRGraph

        degrees = np.array([1, 2, 4, 8, 3], dtype=np.int64)
        row_ptr = np.zeros(int(degrees.sum()) + len(degrees) + 1, dtype=np.int64)
        row_ptr[1:len(degrees) + 1] = np.cumsum(degrees)
        row_ptr[len(degrees) + 1:] = degrees.sum()
        col_idx = np.arange(
            len(degrees), len(degrees) + int(degrees.sum()), dtype=np.int64
        )
        return CSRGraph(row_ptr, col_idx), degrees

    @pytest.mark.parametrize("backend", _compiled_backends())
    def test_compiled_frontier_scope_matches_enumeration(self, backend):
        from repro.algorithms.multidim_walk import MultiDimensionalRandomWalk
        from repro.api.sampler import GraphSampler
        from repro.compiled import force_backend

        graph, degrees = self._frontier_graph()
        biases = degrees.astype(np.float64) + 1.0
        k = 3
        config = MultiDimensionalRandomWalk.default_config(
            frontier_size=k, depth=1, seed=88
        )
        with force_backend(backend):
            sampler = GraphSampler(graph, MultiDimensionalRandomWalk(), config)
            assert sampler.engine.kind is not None
            result = sampler.run(
                [[0, 1, 2, 3, 4]], num_instances=self.TRIALS
            )
        exact = exact_set_probabilities(biases, k)
        keys = sorted(exact, key=sorted)
        counts = {key: 0 for key in keys}
        for sample in result.samples:
            # Every candidate has at least one neighbor, so each selected
            # frontier vertex contributes exactly one sampled edge.
            chosen = frozenset(int(src) for src in sample.edges[:, 0])
            assert len(chosen) == k
            counts[chosen] += 1
        observed = np.array([counts[key] for key in keys])
        probabilities = np.array([exact[key] for key in keys])
        assert chisquare_pvalue(observed, probabilities) > ALPHA
