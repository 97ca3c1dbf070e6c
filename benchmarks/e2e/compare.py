"""Compare two sets of benchmark runs cell by cell.

    python3 benchmarks/e2e/compare.py A B

``A`` and ``B`` are ``results.json`` files written by ``run.py --out DIR``
(or the directories holding them); each may hold several runs -- ``--out``
appends.  For every workload x end-to-end metric the medians over a side's
runs are compared against the bound in ``BENCHMARK.json``:

* ``ok``          B is not worse than A by more than the bound;
* ``regressed``   it is;
* ``unresolved``  a side's own quartile spread exceeds the bound, so the
                  difference cannot be told from noise.

Deterministic outputs -- ``output_digest``, the operation / sampled-edge /
update counts, ``sim_seps`` and the simulated counts of the traced pass --
must match exactly, seed by seed (``regressed`` otherwise).  Results taken on
different hosts, interpreters, seeds or sizes are refused, not compared.
Exit status: 0 all ok, 1 any ``regressed``, 2 not comparable.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(BENCH_DIR))

#: Environment fields that must agree for a verdict to mean anything.
SAME_ENVIRONMENT = ("nproc", "python", "numpy", "numba", "seconds", "smoke")
EXACT_COUNTS = ("ops", "sampled_edges", "gateway.invalidations", "updates")
EXACT_TRACED = (
    "gateway.invalidations", "oom.rounds", "oom.partition_transfers",
    "oom.sim_makespan_s", "distributed.migrations_per_op",
    "distributed.epochs_per_op", "gpusim.sim_kernel_time_s",
)
#: How requests fuse on burst_served depends on arrival timing, and a fused
#: batch is one simulated kernel: its simulated times are steady, not exact.
FUSION_DEPENDENT = ("burst_served",)


def load_runs(path: str) -> list:
    if os.path.isdir(path):
        path = os.path.join(path, "results.json")
    with open(path) as fh:
        return json.load(fh)["runs"]


def environment_key(run: dict) -> tuple:
    env = dict(run["environment"])
    for cell in run["cells"]:
        env.update(cell.get("runtime", {}))
    return tuple(env.get(field) for field in SAME_ENVIRONMENT)


def cells_by_key(runs: list, trace: int) -> dict:
    """``{(workload, seed): cell}`` for one pass; the last run of a seed wins
    for exact checks, every run counts for medians (see ``samples``)."""
    return {
        (cell["workload"], run["environment"]["seed"]): cell
        for run in runs for cell in run["cells"] if cell["trace"] == trace
    }


def samples(runs: list, workload: str, metric: str) -> list:
    return [
        cell["metrics"][metric]["value"]
        for run in runs for cell in run["cells"]
        if cell["trace"] == 0 and cell["workload"] == workload
    ]


def spread(values: list) -> float:
    """Quartile distance as a share of the median (0 with a single run)."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def verdict(metric: dict, a: list, b: list) -> tuple:
    """``(verdict, median a, median b, worsening as a share of a)``."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse = (med_b - med_a) / med_a if med_a else 0.0
    if metric["better"] == "higher":
        worse = -worse
    if max(spread(a), spread(b)) > metric["bound"]:
        return "unresolved", med_a, med_b, worse
    return ("regressed" if worse > metric["bound"] else "ok"), med_a, med_b, worse


def compare(runs_a: list, runs_b: list, benchmark: dict, out=sys.stdout) -> int:
    env_a = {environment_key(run) for run in runs_a}
    env_b = {environment_key(run) for run in runs_b}
    seeds_a = sorted({run["environment"]["seed"] for run in runs_a})
    seeds_b = sorted({run["environment"]["seed"] for run in runs_b})
    if len(env_a | env_b) != 1 or seeds_a != seeds_b:
        print("not comparable: environments or seeds differ", file=out)
        print(f"  {SAME_ENVIRONMENT} A={sorted(env_a, key=str)} "
              f"B={sorted(env_b, key=str)}", file=out)
        print(f"  seeds A={seeds_a} B={seeds_b}", file=out)
        return 2

    regressed = 0
    workloads = [w["name"] for w in benchmark["workloads"]]
    for workload in workloads:
        for metric in benchmark["end_to_end"]:
            a = samples(runs_a, workload, metric["name"])
            b = samples(runs_b, workload, metric["name"])
            if not a or not b:
                continue
            word, med_a, med_b, worse = verdict(metric, a, b)
            regressed += word == "regressed"
            print(f"{word:10s} {workload:15s} {metric['name']:15s} "
                  f"A {med_a:12.6g} B {med_b:12.6g} {metric['unit']:12s} "
                  f"worse by {worse:+7.1%} (bound {metric['bound']:.0%}, "
                  f"n={len(a)}/{len(b)})", file=out)

    def exact(workload, seed, name, a, b):
        nonlocal regressed
        same = a == b
        regressed += not same
        print(f"{'ok' if same else 'regressed':10s} {workload:15s} {name:32s} "
              f"seed {seed}: {'identical' if same else f'A {a} != B {b}'}", file=out)

    timed_a, timed_b = cells_by_key(runs_a, 0), cells_by_key(runs_b, 0)
    for (workload, seed) in sorted(timed_a.keys() & timed_b.keys()):
        a, b = timed_a[(workload, seed)], timed_b[(workload, seed)]
        grew = b["failed_share"] > a["failed_share"]  # any increase regresses
        regressed += grew
        print(f"{'regressed' if grew else 'ok':10s} {workload:15s} "
              f"{'failed_share':32s} seed {seed}: A {a['failed_share']:.4g} "
              f"B {b['failed_share']:.4g}", file=out)
        exact(workload, seed, "output_digest", a["output_digest"], b["output_digest"])
        for name in EXACT_COUNTS:
            exact(workload, seed, name, a["counts"][name], b["counts"][name])
        if workload not in FUSION_DEPENDENT:
            exact(workload, seed, "sim_seps", a["metrics"]["sim_seps"]["value"],
                  b["metrics"]["sim_seps"]["value"])
    traced_a, traced_b = cells_by_key(runs_a, 1), cells_by_key(runs_b, 1)
    for (workload, seed) in sorted(traced_a.keys() & traced_b.keys()):
        if workload in FUSION_DEPENDENT:
            continue
        for name in EXACT_TRACED:
            exact(workload, seed, name,
                  traced_a[(workload, seed)]["metrics"][name]["value"],
                  traced_b[(workload, seed)]["metrics"][name]["value"])
    print(f"{regressed} regressed", file=out)
    return 1 if regressed else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    return compare(load_runs(argv[0]), load_runs(argv[1]), benchmark)


if __name__ == "__main__":
    sys.exit(main())
