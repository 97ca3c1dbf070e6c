"""Tests for the metrics helpers and the benchmark harness utilities."""

import numpy as np
import pytest

from repro.bench.harness import ExperimentTable, format_table, write_csv
from repro.bench.workloads import DEFAULT_SCALE, SMALL_SCALE, get_graph
from repro.metrics.stats import (
    chi_square_uniformity,
    empirical_distribution,
    kernel_time_std,
    mean_iterations,
    search_reduction_ratio,
    total_variation_distance,
)


class TestStats:
    def test_empirical_distribution(self):
        dist = empirical_distribution(np.array([0, 0, 1, 2]), 4)
        assert np.allclose(dist, [0.5, 0.25, 0.25, 0.0])
        with pytest.raises(ValueError):
            empirical_distribution(np.array([5]), 3)

    def test_chi_square_accepts_matching_distribution(self):
        rng = np.random.default_rng(0)
        probs = np.array([0.1, 0.2, 0.3, 0.4])
        selections = rng.choice(4, size=20000, p=probs)
        _, p_value = chi_square_uniformity(selections, probs)
        assert p_value > 0.001

    def test_chi_square_rejects_mismatched_distribution(self):
        selections = np.zeros(1000, dtype=np.int64)
        _, p_value = chi_square_uniformity(selections, np.array([0.5, 0.5]))
        assert p_value < 1e-6

    def test_chi_square_zero_prob_violation(self):
        stat, p = chi_square_uniformity(np.array([0, 1]), np.array([0.0, 1.0]))
        assert stat == float("inf") and p == 0.0

    def test_total_variation(self):
        assert total_variation_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0
        assert total_variation_distance(np.array([0.5, 0.5]), np.array([0.5, 0.5])) == 0.0
        with pytest.raises(ValueError):
            total_variation_distance(np.ones(2), np.ones(3))

    def test_mean_iterations(self):
        assert mean_iterations([1, 2, 3]) == 2.0
        assert mean_iterations([]) == 0.0

    def test_search_reduction_ratio(self):
        assert search_reduction_ratio(30, 100) == pytest.approx(0.3)
        with pytest.raises(ValueError):
            search_reduction_ratio(1, 0)

    def test_kernel_time_std(self):
        assert kernel_time_std([1.0, 1.0, 1.0]) == pytest.approx(0.0)
        assert kernel_time_std([1.0, 3.0]) > 0
        assert kernel_time_std([]) == 0.0
        assert kernel_time_std([1.0, 3.0], normalize=False) == pytest.approx(1.0)


class TestHarness:
    def test_format_table_aligns_columns(self):
        rows = [{"graph": "AM", "seps": 12.5}, {"graph": "LJ", "seps": 3.25}]
        text = format_table(rows, title="demo")
        assert "demo" in text and "graph" in text
        assert len(text.splitlines()) == 5

    def test_format_empty(self):
        assert "(no rows)" in format_table([], title="empty")

    def test_write_csv(self, tmp_path):
        rows = [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]
        path = write_csv(rows, tmp_path / "out" / "table.csv")
        content = path.read_text(encoding="utf-8").splitlines()
        assert content[0] == "a,b"
        assert len(content) == 3

    def test_experiment_table_roundtrip(self, tmp_path):
        table = ExperimentTable("fig_test")
        table.add(graph="AM", value=1.0)
        table.extend([{"graph": "LJ", "value": 2.0}])
        assert table.column("graph") == ["AM", "LJ"]
        saved = table.save(tmp_path)
        assert saved.exists()
        assert "fig_test" in table.render()


class TestWorkloads:
    def test_scales_are_consistent(self):
        assert set(SMALL_SCALE.in_memory_graphs) <= set(SMALL_SCALE.all_graphs)
        assert set(DEFAULT_SCALE.in_memory_graphs) <= set(DEFAULT_SCALE.all_graphs)
        assert min(DEFAULT_SCALE.gpu_counts) == 1

    def test_get_graph_cached(self):
        a = get_graph("AM", scale=SMALL_SCALE)
        b = get_graph("AM", scale=SMALL_SCALE)
        assert a is b
        weighted = get_graph("AM", weighted=True, scale=SMALL_SCALE)
        assert weighted is not a and weighted.is_weighted
