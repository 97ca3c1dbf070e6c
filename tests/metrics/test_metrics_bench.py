"""Tests for the result metrics, the shared distribution checks and the
benchmark harness utilities."""

import numpy as np
import pytest

from repro.api.results import SampleColumns, SampleResult
from repro.bench.harness import ExperimentTable, format_table, write_csv
from repro.bench.workloads import DEFAULT_SCALE, SMALL_SCALE, get_graph
from repro.gpusim.costmodel import CostModel
from repro.oom.scheduler import OutOfMemoryConfig, OutOfMemoryResult
from stats_helpers import chi_square_uniformity, total_variation_distance


def _oom_result(kernel_times) -> OutOfMemoryResult:
    return OutOfMemoryResult(
        sample=SampleResult(samples=SampleColumns.empty(), cost=CostModel()),
        makespan=0.0,
        kernel_times=list(kernel_times),
        transfer_times=[],
        partition_transfers=0,
        rounds=0,
        cost=CostModel(),
        config=OutOfMemoryConfig(),
    )


class TestStats:
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
        empty = SampleColumns.empty()
        result = SampleResult(empty, CostModel(), iteration_counts=[1, 2, 3])
        assert result.mean_iterations() == 2.0
        assert SampleResult(empty, CostModel()).mean_iterations() == 0.0

    def test_kernel_time_std(self):
        # Fig. 14's metric: the coefficient of variation of kernel times.
        assert _oom_result([1.0, 1.0, 1.0]).kernel_time_std() == 0.0
        assert _oom_result([]).kernel_time_std() == 0.0
        assert _oom_result([1.0, 3.0]).kernel_time_std() == pytest.approx(0.5)


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
