"""The repo's end-to-end benchmark: one command, seven workloads.

    python3 benchmarks/e2e/run.py --workload small_served --seed 0 \\
        --seconds 10 --trace 0

``--trace 0`` is the *timed pass* (all telemetry off) and reports the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` is the separate
*traced pass* and reports the per-layer metrics.  Omit ``--workload`` /
``--trace`` to run all of them.  Each (workload, pass) prints its metrics by
name with units and, as its last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--out DIR`` appends the
full record to ``DIR/results.json`` and writes the traced spans beside it.

This process only orchestrates: every (workload, pass) and every cold start
behind ``setup_s`` runs in a fresh child interpreter (``--child``), because
the product's kernel/structure caches and ``ru_maxrss`` are process-global.
The module must stay import-safe: process workers are spawned and re-import
``__main__``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(BENCH_DIR))
SRC_DIR = os.path.join(REPO_ROOT, "src")
#: Cold starts behind ``setup_s`` (the median is reported).
SETUP_REPEATS = 3
#: One (workload, pass) with its cold starts must answer within this, or
#: its children are killed and the run fails.
CELL_TIMEOUT_S = 170


def load_benchmark() -> dict:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# --------------------------------------------------------------------------- #
# Child side: one measurement per interpreter
# --------------------------------------------------------------------------- #
def child_main(args) -> int:
    from e2e_workloads import WORKLOADS, generate_ops, sizes_for

    workload = WORKLOADS[args.workload]
    sizes = sizes_for(workload, args.seconds, args.smoke)
    if args.child == "setup" and workload.kind == "direct":
        out = direct_setup(workload, args.seed, sizes, args.graph, generate_ops)
    elif args.child == "setup":
        from e2e_harness import served_setup

        out = served_setup(workload, args.seed, sizes, args.smoke, args.graph,
                           args.repeats)
    elif args.trace:
        from e2e_layers import traced_pass

        out = traced_pass(workload, args.seed, sizes, args.smoke, args.spans)
    else:
        from e2e_harness import timed_pass

        out = timed_pass(workload, args.seed, sizes, args.smoke, args.graph)
    import importlib.util

    import numpy

    out["kind"] = workload.kind
    # The compiled backend changes with numba, so results record both.
    out["runtime"] = {
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
    }
    print(json.dumps(out))
    return 0


def direct_setup(workload, seed, sizes, graph_path, generate_ops) -> dict:
    """``import repro`` + first ``sample_graph`` on the graph, in an
    interpreter whose kernel and structure caches are cold."""
    import numpy as np

    with np.load(graph_path) as data:
        row_ptr, col_idx = data["row_ptr"], data["col_idx"]
    streams, _ = generate_ops(workload, seed, sizes, row_ptr.size - 1)
    op = streams[0][0]
    begin = time.perf_counter()
    import repro
    from repro.algorithms.registry import get_algorithm

    info = get_algorithm(op.algorithm)
    repro.sample_graph(
        repro.CSRGraph(row_ptr, col_idx), info.program_factory(),
        list(op.seeds), info.config_factory(**dict(op.overrides)),
    )
    return {"setup_s": [time.perf_counter() - begin], "leaked_segments": []}


# --------------------------------------------------------------------------- #
# Orchestrator side
# --------------------------------------------------------------------------- #
def run_child(kind: str, args, workload: str, trace: int, deadline: float,
              **extra) -> dict:
    command = [
        sys.executable, os.path.abspath(__file__), "--child", kind,
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ]
    if args.smoke:
        command.append("--smoke")
    for key, value in extra.items():
        if value is not None:
            command += [f"--{key}", str(value)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC_DIR] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.Popen(command, env=env, cwd=REPO_ROOT, text=True,
                            stdout=subprocess.PIPE)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{kind} child for {workload} timed out") from None
    finally:
        if proc.poll() is None:
            # Timed out, or this process was told to stop: SIGTERM lets the
            # child shut its service (and worker process) down first.
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"{kind} child for {workload} exited {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def run_cell(args, workload: str, trace: int, benchmark: dict) -> dict:
    """One (workload, pass): the measurement child, then -- timed pass only --
    the cold-start children that share its generated graph."""
    deadline = time.monotonic() + CELL_TIMEOUT_S
    scratch = tempfile.mkdtemp(prefix=".tmp-", dir=BENCH_DIR)
    try:
        graph = os.path.join(scratch, "graph.npz")
        spans = None
        if trace and args.out:
            os.makedirs(args.out, exist_ok=True)
            spans = os.path.join(args.out, f"spans-{workload}.json")
        begin = time.perf_counter()
        cell = run_child("cell", args, workload, trace, deadline,
                         graph=None if trace else graph, spans=spans)
        cell["phase_wall_s"]["cell_child"] = time.perf_counter() - begin
        if not trace:
            begin = time.perf_counter()
            repeats = 1 if args.smoke else SETUP_REPEATS
            # One child repeats a served cold start (each spawns a fresh
            # worker); a direct one needs a fresh interpreter per repeat.
            if cell["kind"] == "served":
                setups = [run_child("setup", args, workload, 0, deadline,
                                    graph=graph, repeats=repeats)]
            else:
                setups = [run_child("setup", args, workload, 0, deadline, graph=graph)
                          for _ in range(repeats)]
            times = [t for s in setups for t in s["setup_s"]]
            cell["setup_samples_s"] = times
            cell["metrics"]["setup_s"] = statistics.median(times)
            for setup in setups:
                cell["leaked_segments"] += setup["leaked_segments"]
            cell["phase_wall_s"]["setup"] = time.perf_counter() - begin
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return finish_cell(cell, workload, trace, benchmark)


def finish_cell(cell: dict, workload: str, trace: int, benchmark: dict) -> dict:
    """Attach units, fold the failure accounting into the contract's keys."""
    declared = benchmark["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in cell["metrics"]]
    if missing:
        raise RuntimeError(f"{workload}: metrics not reported: {missing}")
    phases = cell["phases"]
    attempted = sum(p["attempted"] for p in phases.values())
    failed = (sum(p["failed"] for p in phases.values())
              + len(cell["leaked_segments"]))
    cell.update(
        workload=workload, trace=trace,
        correct=not cell["mismatches"] and phases["verify"]["attempted"] > 0,
        attempted=attempted, failed=failed,
        failed_share=failed / attempted if attempted else 1.0,
        metrics={
            m["name"]: {"value": cell["metrics"][m["name"]], "unit": m["unit"]}
            for m in declared
        },
    )
    return cell


def environment(args) -> dict:
    def git_commit() -> str:
        try:
            return subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, text=True,
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=10,
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            return "unknown"

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "git_commit": git_commit(),
    }


def print_cell(cell: dict) -> None:
    label = "traced" if cell["trace"] else "timed"
    print(f"== {cell['workload']} ({label} pass): attempted {cell['attempted']}, "
          f"failed {cell['failed']}, correct {cell['correct']}")
    for phase, counts in cell["phases"].items():
        print(f"   phase {phase}: " + ", ".join(f"{k} {v}" for k, v in counts.items()))
    if cell.get("counts"):
        print("   counts: " + ", ".join(f"{k} {v}" for k, v in cell["counts"].items()))
    if cell.get("output_digest"):
        print(f"   output_digest {cell['output_digest']}")
    for name, metric in cell["metrics"].items():
        print(f"   {name:42s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({key: cell[key]
                      for key in ("correct", "attempted", "failed", "metrics")}),
          flush=True)


def append_results(out_dir: str, run: dict) -> None:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "results.json")
    document = {"runs": []}
    if os.path.exists(path):
        with open(path) as fh:
            document = json.load(fh)
    document["runs"].append(run)
    with open(path, "w") as fh:
        json.dump(document, fh, indent=1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="drives only the input generator")
    parser.add_argument("--seconds", type=float,
                        help="timed-window budget (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0 timed pass, 1 traced pass (default: both)")
    parser.add_argument("--out", help="directory for results.json and spans")
    parser.add_argument("--smoke", action="store_true",
                        help="self-test sizes on thread workers; not a measurement")
    parser.add_argument("--child", choices=("cell", "setup"), help=argparse.SUPPRESS)
    parser.add_argument("--graph", help=argparse.SUPPRESS)
    parser.add_argument("--spans", help=argparse.SUPPRESS)
    parser.add_argument("--repeats", type=int, default=1, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # A terminated run unwinds: services shut down, children stop, the
    # scratch directory goes.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.child:
        return child_main(args)
    if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
        print(f"no program to benchmark: {SRC_DIR}/repro is missing", file=sys.stderr)
        return 2
    benchmark = load_benchmark()
    names = [w["name"] for w in benchmark["workloads"]]
    if args.workload and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; known: {names}")
    if args.seconds is None:
        args.seconds = float(benchmark["run_seconds"])
    if args.out:
        args.out = os.path.abspath(args.out)  # children run from the repo root
    run = {"environment": environment(args), "cells": []}
    status = 0
    for workload in ([args.workload] if args.workload else names):
        for trace in ((args.trace,) if args.trace is not None else (0, 1)):
            cell = run_cell(args, workload, trace, benchmark)
            run["cells"].append(cell)
            print_cell(cell)
            if not cell["correct"]:
                status = 1
    if args.out:
        append_results(args.out, run)
    return status


if __name__ == "__main__":
    sys.exit(main())
