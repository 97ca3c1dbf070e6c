"""Tests for the CTPS and inverse transform sampling (Theorem 1)."""

import numpy as np
import pytest

from repro.gpusim.costmodel import CostModel
from repro.gpusim.prng import CounterRNG
from stats_helpers import chi_square_uniformity, total_variation_distance
from repro.selection.ctps import CTPS
from repro.selection.its import sample_one, sample_with_replacement


class TestCTPSConstruction:
    def test_paper_example(self):
        """The Fig. 1(b) example: biases {3, 6, 2, 2, 2} -> CTPS boundaries."""
        ctps = CTPS.from_biases(np.array([3.0, 6.0, 2.0, 2.0, 2.0]))
        assert np.allclose(ctps.boundaries, [0, 0.2, 0.6, 0.7333, 0.8667, 1.0], atol=1e-3)
        assert ctps.total_bias == pytest.approx(15.0)
        assert ctps.num_candidates == 5

    def test_probabilities_follow_theorem_1(self):
        biases = np.array([1.0, 4.0, 5.0])
        ctps = CTPS.from_biases(biases)
        assert np.allclose(ctps.probabilities(), biases / biases.sum())
        assert ctps.probability(1) == pytest.approx(0.4)

    def test_region_boundaries(self):
        ctps = CTPS.from_biases(np.array([3.0, 6.0, 2.0, 2.0, 2.0]))
        assert ctps.region(1) == (pytest.approx(0.2), pytest.approx(0.6))

    def test_single_candidate(self):
        ctps = CTPS.from_biases(np.array([7.0]))
        assert ctps.search(0.3) == 0
        assert ctps.probability(0) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            CTPS.from_biases(np.array([]))
        with pytest.raises(ValueError):
            CTPS.from_biases(np.array([-1.0, 2.0]))
        with pytest.raises(ValueError):
            CTPS.from_biases(np.array([0.0, 0.0]))
        with pytest.raises(ValueError):
            CTPS.from_biases(np.array([np.nan, 1.0]))

    def test_cost_charged(self):
        cost = CostModel()
        CTPS.from_biases(np.ones(32), cost)
        assert cost.prefix_sum_steps > 0
        assert cost.global_bytes > 0


class TestCTPSSearch:
    def test_search_paper_example(self):
        """r = 0.5 falls in v7's region (the second candidate) in Fig. 1(b)."""
        ctps = CTPS.from_biases(np.array([3.0, 6.0, 2.0, 2.0, 2.0]))
        assert ctps.search(0.5) == 1
        assert ctps.search(0.0) == 0
        assert ctps.search(0.999) == 4

    def test_search_skips_zero_width_regions(self):
        ctps = CTPS.from_biases(np.array([1.0, 0.0, 1.0]))
        for r in np.linspace(0, 0.999, 50):
            assert ctps.search(float(r)) != 1

    def test_search_many_matches_scalar(self):
        ctps = CTPS.from_biases(np.array([3.0, 6.0, 2.0, 2.0, 2.0]))
        rs = np.linspace(0, 0.999, 97)
        vectorised = ctps.search_many(rs)
        scalar = np.array([ctps.search(float(r)) for r in rs])
        assert np.array_equal(vectorised, scalar)

    def test_search_range_validation(self):
        ctps = CTPS.from_biases(np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            ctps.search(1.0)
        with pytest.raises(ValueError):
            ctps.search(-0.1)
        with pytest.raises(ValueError):
            ctps.search_many(np.array([0.5, 1.0]))

    def test_search_charges_binary_search_and_bytes(self):
        cost = CostModel()
        ctps = CTPS.from_biases(np.ones(64))
        ctps.search(0.5, cost)
        assert cost.binary_search_steps == int(np.ceil(np.log2(65)))
        assert cost.global_bytes >= cost.binary_search_steps * 8


class TestCTPSExclude:
    def test_exclude_matches_paper_update_example(self):
        """Fig. 6(b): excluding v7 gives the updated CTPS {0, .33, .56, .78, 1}."""
        ctps = CTPS.from_biases(np.array([3.0, 6.0, 2.0, 2.0, 2.0]))
        updated = ctps.exclude(np.array([1]))
        expected = np.array([0, 3, 3, 5, 7, 9]) / 9.0
        assert np.allclose(updated.boundaries, expected, atol=1e-9)
        # r = 0.58 now selects the third original candidate (v10 in the paper
        # counts candidates 1-based; index 3 is the fourth vertex v10).
        assert updated.search(0.58) == 3

    def test_exclude_never_selects_excluded(self):
        ctps = CTPS.from_biases(np.array([5.0, 1.0, 1.0, 1.0]))
        updated = ctps.exclude(np.array([0, 2]))
        selections = updated.search_many(np.linspace(0, 0.999, 200))
        assert 0 not in selections and 2 not in selections

    def test_exclude_charges_rebuild(self):
        cost = CostModel()
        ctps = CTPS.from_biases(np.ones(32))
        before = cost.prefix_sum_steps
        ctps.exclude(np.array([0]), cost)
        assert cost.prefix_sum_steps > before


class TestInverseTransformSampling:
    def test_sample_one_in_range(self):
        rng = CounterRNG(0)
        for i in range(20):
            idx = sample_one(np.array([1.0, 2.0, 3.0]), rng, i)
            assert 0 <= idx < 3

    def test_sample_with_replacement_distribution(self):
        rng = CounterRNG(1)
        biases = np.array([1.0, 2.0, 3.0, 4.0])
        picks = sample_with_replacement(biases, 20000, rng, 0)
        _, p_value = chi_square_uniformity(picks, biases / biases.sum())
        assert p_value > 0.001

    def test_zero_bias_never_selected(self):
        rng = CounterRNG(2)
        picks = sample_with_replacement(np.array([1.0, 0.0, 3.0]), 5000, rng, 0)
        assert 1 not in picks

    def test_empirical_matches_theorem_one(self):
        rng = CounterRNG(3)
        biases = np.array([10.0, 1.0, 1.0, 5.0, 3.0])
        picks = sample_with_replacement(biases, 30000, rng, 9)
        empirical = np.bincount(picks, minlength=5) / 30000
        assert total_variation_distance(empirical, biases / biases.sum()) < 0.02

    def test_zero_count(self):
        assert sample_with_replacement(np.array([1.0]), 0, CounterRNG(0), 0).size == 0

    def test_negative_count(self):
        with pytest.raises(ValueError):
            sample_with_replacement(np.array([1.0]), -1, CounterRNG(0), 0)
