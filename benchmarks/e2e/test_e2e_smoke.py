"""Self-test of the end-to-end benchmark (collected by tier-1).

Runs ``run.py --smoke`` -- thread-mode workers, a 5k-vertex graph, a dozen
operations -- for one served and one direct workload, and checks that
``BENCHMARK.json``, the workload table and the per-layer table agree.
Nothing here asserts a timing.
"""

import json
import os
import re
import subprocess
import sys

import e2e_layers
import e2e_workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(BENCH_DIR))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)


def test_benchmark_json_matches_the_contract_and_the_code():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert BENCHMARK["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    assert 1 <= len(BENCHMARK["end_to_end"]) <= 16
    assert 1 <= len(BENCHMARK["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in BENCHMARK[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in BENCHMARK["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    end_to_end = {m["name"]: m for m in BENCHMARK["end_to_end"]}
    for metric in end_to_end.values():
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert UNIT.match(metric["unit"]) and metric["better"] in ("higher", "lower")
        assert 0 < metric["bound"] <= 0.25
    assert end_to_end["setup_s"]["unit"] == "s"
    assert end_to_end["setup_s"]["better"] == "lower"

    # Every declared workload and metric is implemented, and nothing else is.
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(e2e_workloads.WORKLOADS)
    for workload in BENCHMARK["workloads"]:
        assert workload["why"] == e2e_workloads.WORKLOADS[workload["name"]].why
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(e2e_layers.PER_LAYER)
    for metric in BENCHMARK["per_layer"]:
        unit, better, moves, workloads = e2e_layers.PER_LAYER[metric["name"]]
        assert metric == {"name": metric["name"], "unit": unit, "better": better}
        assert UNIT.match(unit) and better in ("higher", "lower")
        assert moves in end_to_end
        assert workloads and set(workloads) <= set(e2e_workloads.WORKLOADS)


def test_smoke_run_reports_every_metric_and_compares_clean(tmp_path):
    out = str(tmp_path / "results")
    for workload in ("small_served", "bulk_walk"):
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--smoke",
             "--workload", workload, "--out", out],
            stdout=subprocess.PIPE, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stdout
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
    with open(os.path.join(out, "results.json")) as fh:
        runs = json.load(fh)["runs"]
    cells = [cell for run in runs for cell in run["cells"]]
    assert [(c["workload"], c["trace"]) for c in cells] == [
        ("small_served", 0), ("small_served", 1), ("bulk_walk", 0), ("bulk_walk", 1)]
    for cell in cells:
        declared = BENCHMARK["per_layer" if cell["trace"] else "end_to_end"]
        assert list(cell["metrics"]) == [m["name"] for m in declared]
        assert cell["correct"] and cell["failed"] == 0 and cell["attempted"] >= 1
        assert not cell["leaked_segments"]
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "compare.py"), out, out],
        stdout=subprocess.PIPE, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stdout  # 1 = regressed, 2 = refused
    assert "unresolved" not in proc.stdout
