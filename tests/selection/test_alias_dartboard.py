"""Tests for the alias method and dartboard (rejection) sampling."""

import numpy as np
import pytest

from repro.gpusim.costmodel import CostModel
from repro.gpusim.prng import CounterRNG
from stats_helpers import total_variation_distance
from repro.selection.alias import build_alias_table
from repro.selection.dartboard import dartboard_sample


class TestAliasTable:
    def test_probabilities_reconstructed(self):
        biases = np.array([3.0, 6.0, 2.0, 2.0, 2.0])
        table = build_alias_table(biases)
        assert np.allclose(table.probabilities(), biases / biases.sum(), atol=1e-12)

    def test_uniform_biases(self):
        table = build_alias_table(np.ones(7))
        assert np.allclose(table.prob, 1.0)
        assert np.allclose(table.probabilities(), 1 / 7)

    def test_single_candidate(self):
        table = build_alias_table(np.array([4.0]))
        assert table.sample(CounterRNG(0), 0) == 0

    def test_sampling_distribution(self):
        biases = np.array([8.0, 1.0, 1.0, 2.0])
        table = build_alias_table(biases)
        picks = table.sample_many(30000, CounterRNG(5), 0)
        empirical = np.bincount(picks, minlength=4) / 30000
        assert total_variation_distance(empirical, biases / biases.sum()) < 0.02

    def test_zero_bias_candidate_never_selected(self):
        biases = np.array([5.0, 0.0, 5.0])
        table = build_alias_table(biases)
        picks = table.sample_many(5000, CounterRNG(1), 0)
        assert 1 not in picks

    def test_sample_many_edge_cases(self):
        table = build_alias_table(np.array([1.0, 2.0]))
        assert table.sample_many(0, CounterRNG(0), 0).size == 0
        with pytest.raises(ValueError):
            table.sample_many(-1, CounterRNG(0), 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            build_alias_table(np.array([]))
        with pytest.raises(ValueError):
            build_alias_table(np.array([-1.0]))
        with pytest.raises(ValueError):
            build_alias_table(np.array([0.0, 0.0]))

    def test_construction_cost_is_linear_work(self):
        cost = CostModel()
        build_alias_table(np.ones(100), cost)
        assert cost.warp_steps >= 100  # O(n) sequential preprocessing


class TestDartboard:
    def test_selects_valid_index(self):
        index, trials = dartboard_sample(np.array([1.0, 2.0, 3.0]), CounterRNG(0), 0)
        assert 0 <= index < 3
        assert trials >= 1

    def test_distribution(self):
        biases = np.array([4.0, 1.0, 1.0])
        counts = np.zeros(3)
        rng = CounterRNG(2)
        for i in range(5000):
            idx, _ = dartboard_sample(biases, rng, i)
            counts[idx] += 1
        assert total_variation_distance(counts / counts.sum(), biases / biases.sum()) < 0.03

    def test_skewed_biases_need_more_trials(self):
        """The paper's motivation: rejection suffers on skewed distributions."""
        rng = CounterRNG(3)
        uniform_trials = sum(
            dartboard_sample(np.ones(16), rng, 0, i)[1] for i in range(300)
        )
        skewed = np.ones(16)
        skewed[0] = 200.0
        skewed_trials = sum(
            dartboard_sample(skewed, rng, 1, i)[1] for i in range(300)
        )
        assert skewed_trials > 2 * uniform_trials

    def test_zero_bias_never_selected(self):
        rng = CounterRNG(4)
        for i in range(200):
            idx, _ = dartboard_sample(np.array([0.0, 1.0]), rng, i)
            assert idx == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            dartboard_sample(np.array([]), CounterRNG(0))
        with pytest.raises(ValueError):
            dartboard_sample(np.array([0.0]), CounterRNG(0))
        with pytest.raises(ValueError):
            dartboard_sample(np.array([-1.0, 1.0]), CounterRNG(0))

    def test_cost_counts_trials(self):
        cost = CostModel()
        _, trials = dartboard_sample(np.array([1.0, 1.0]), CounterRNG(7), 0, cost=cost)
        assert cost.rng_draws == 2 * trials
        assert cost.selection_attempts == trials
