"""Tests for bipartite region search and the collision-mitigation strategies.

The key correctness property (Theorem 2) is that bipartite region search
selects with exactly the distribution of updated sampling, i.e. sequential
weighted sampling without replacement, while never rebuilding the CTPS.
"""

import numpy as np
import pytest

from repro.gpusim.costmodel import CostModel
from repro.gpusim.prng import CounterRNG
from stats_helpers import total_variation_distance
from repro.selection.bipartite import bipartite_remap, bipartite_search_select
from repro.selection.bitmap import LinearSearchDetector, StridedBitmap
from repro.selection.collision import (
    CollisionStrategy,
    select_without_replacement,
)
from repro.selection.ctps import CTPS


class TestBipartiteRemap:
    def test_paper_example(self):
        """Fig. 6(c): r' = 0.58 with region (0.2, 0.6) selected remaps to 0.748."""
        remapped = bipartite_remap(0.58, (0.2, 0.6))
        assert remapped == pytest.approx(0.748, abs=1e-9)
        ctps = CTPS.from_biases(np.array([3.0, 6.0, 2.0, 2.0, 2.0]))
        # 0.748 falls in the fourth candidate's region (v10 in the paper).
        assert ctps.search(remapped) == 3

    def test_left_branch(self):
        """Small draws remap into the region left of the selected block."""
        remapped = bipartite_remap(0.1, (0.2, 0.6))
        assert remapped == pytest.approx(0.1 * (1 - 0.4), abs=1e-12)
        assert remapped < 0.2

    def test_matches_updated_ctps_boundaries(self):
        """Theorem 2: the remap reproduces the updated CTPS region boundaries."""
        biases = np.array([3.0, 6.0, 2.0, 2.0, 2.0])
        ctps = CTPS.from_biases(biases)
        selected = 1
        updated = ctps.exclude(np.array([selected]))
        region = ctps.region(selected)
        for r_prime in np.linspace(0.001, 0.998, 300):
            expected = updated.search(float(r_prime))
            got = ctps.search(min(bipartite_remap(float(r_prime), region),
                                  np.nextafter(1.0, 0.0)))
            assert got == expected

    def test_invalid_regions(self):
        with pytest.raises(ValueError):
            bipartite_remap(0.5, (0.6, 0.2))
        with pytest.raises(ValueError):
            bipartite_remap(0.5, (0.0, 1.0))


class TestBipartiteSearchSelect:
    def test_never_selects_marked(self):
        biases = np.array([5.0, 1.0, 1.0, 1.0, 1.0])
        ctps = CTPS.from_biases(biases)
        rng = CounterRNG(0)
        detector = StridedBitmap(5)
        chosen = []
        for lane in range(5):
            outcome = bipartite_search_select(ctps, detector, rng, lane)
            chosen.append(outcome.index)
        assert sorted(chosen) == [0, 1, 2, 3, 4]

    def test_sole_candidate_already_selected(self):
        ctps = CTPS.from_biases(np.array([1.0]))
        detector = StridedBitmap(1)
        detector.check_and_mark(0)
        with pytest.raises(RuntimeError):
            bipartite_search_select(ctps, detector, CounterRNG(0), 0)

    def test_iterations_counted(self):
        ctps = CTPS.from_biases(np.array([1.0, 1.0]))
        detector = StridedBitmap(2)
        outcome = bipartite_search_select(ctps, detector, CounterRNG(1), 0)
        assert outcome.iterations >= 1
        assert outcome.remaps == 0  # nothing selected yet -> no remapping


@pytest.mark.parametrize("strategy", ["repeated", "updated", "bipartite"])
class TestStrategiesAgainstReference:
    def test_selects_distinct_valid_candidates(self, strategy):
        biases = np.array([3.0, 6.0, 2.0, 2.0, 2.0])
        result = select_without_replacement(
            biases, 4, CounterRNG(3), 0, strategy=strategy, detector="linear"
        )
        assert len(set(result.indices.tolist())) == 4
        assert all(0 <= i < 5 for i in result.indices)
        assert result.iterations.shape == (4,)
        assert result.total_iterations >= 4

    def test_never_selects_zero_bias(self, strategy):
        biases = np.array([1.0, 0.0, 2.0, 0.0, 3.0])
        for trial in range(20):
            result = select_without_replacement(
                biases, 3, CounterRNG(trial), trial, strategy=strategy,
                detector="strided_bitmap",
            )
            assert 1 not in result.indices and 3 not in result.indices

    def test_distribution_of_first_pick_matches_theorem1(self, strategy):
        biases = np.array([1.0, 2.0, 3.0, 4.0])
        expected = biases / biases.sum()
        firsts = []
        for trial in range(4000):
            result = select_without_replacement(
                biases, 2, CounterRNG(trial), strategy=strategy, detector="linear"
            )
            firsts.append(result.indices[0])
        empirical = np.bincount(np.array(firsts), minlength=4) / len(firsts)
        assert total_variation_distance(empirical, expected) < 0.04

    def test_requesting_too_many_raises(self, strategy):
        with pytest.raises(ValueError):
            select_without_replacement(
                np.array([1.0, 0.0]), 2, CounterRNG(0), strategy=strategy
            )


def sequential_without_replacement(biases, count, rng):
    """The updated-sampling distribution, drawn directly: candidate ``k`` is
    picked proportionally to its bias among the not-yet-selected ones."""
    remaining = biases / biases.sum()
    picks = []
    for _ in range(count):
        pick = int(rng.choice(remaining.size, p=remaining / remaining.sum()))
        picks.append(pick)
        remaining[pick] = 0.0
    return tuple(picks)


class TestBipartiteMatchesUpdatedDistribution:
    def test_pairwise_distribution_equivalence(self):
        """The full 2-selection distribution of bipartite region search matches
        sequential weighted sampling without replacement."""
        biases = np.array([5.0, 3.0, 1.0, 1.0])
        trials = 6000
        ref_rng = np.random.default_rng(0)

        def pair_histogram(strategy):
            counts = {}
            for trial in range(trials):
                result = select_without_replacement(
                    biases, 2, CounterRNG(trial), 17, strategy=strategy, detector="linear"
                )
                key = tuple(result.indices.tolist())
                counts[key] = counts.get(key, 0) + 1
            return counts

        bipartite = pair_histogram("bipartite")
        reference = {}
        for _ in range(trials):
            picks = sequential_without_replacement(biases, 2, ref_rng)
            reference[picks] = reference.get(picks, 0) + 1

        keys = sorted(set(bipartite) | set(reference))
        b = np.array([bipartite.get(k, 0) for k in keys], dtype=float) / trials
        r = np.array([reference.get(k, 0) for k in keys], dtype=float) / trials
        assert total_variation_distance(b, r) < 0.05

    def test_bipartite_needs_fewer_iterations_than_repeated_on_skew(self):
        """The paper's Fig. 11 effect: skewed biases make repeated sampling
        retry many times while bipartite region search does not."""
        biases = np.array([100.0, 1.0, 1.0, 1.0, 1.0, 1.0])
        repeated_total, bipartite_total = 0, 0
        for trial in range(200):
            repeated = select_without_replacement(
                biases, 4, CounterRNG(trial), 1, strategy="repeated", detector="linear"
            )
            bipartite = select_without_replacement(
                biases, 4, CounterRNG(trial), 1, strategy="bipartite", detector="linear"
            )
            repeated_total += repeated.total_iterations
            bipartite_total += bipartite.total_iterations
        assert repeated_total > 2 * bipartite_total


class TestStrategyMechanics:
    def test_updated_strategy_pays_prefix_sum_rebuilds(self):
        biases = np.ones(32)
        cost_updated, cost_bipartite = CostModel(), CostModel()
        select_without_replacement(
            biases, 8, CounterRNG(0), strategy="updated", detector="linear",
            cost=cost_updated,
        )
        select_without_replacement(
            biases, 8, CounterRNG(0), strategy="bipartite", detector="linear",
            cost=cost_bipartite,
        )
        assert cost_updated.prefix_sum_steps > 3 * cost_bipartite.prefix_sum_steps

    def test_zero_count(self):
        result = select_without_replacement(np.ones(4), 0, CounterRNG(0))
        assert result.indices.size == 0
        assert result.mean_iterations == 0.0

    def test_negative_count(self):
        with pytest.raises(ValueError):
            select_without_replacement(np.ones(4), -1, CounterRNG(0))

    def test_strategy_coercion(self):
        assert CollisionStrategy.coerce("BIPARTITE") is CollisionStrategy.BIPARTITE
        assert CollisionStrategy.coerce(CollisionStrategy.UPDATED) is CollisionStrategy.UPDATED
        with pytest.raises(ValueError):
            CollisionStrategy.coerce("never_heard_of_it")

    def test_detector_instance_can_be_passed(self):
        detector = LinearSearchDetector(4)
        result = select_without_replacement(
            np.ones(4), 2, CounterRNG(5), strategy="repeated", detector=detector
        )
        assert all(detector.is_marked(int(i)) for i in result.indices)
