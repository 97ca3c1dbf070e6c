"""Sampling-service throughput/latency: coalescing vs one-request-per-run.

Closed-loop clients (each thread issues its next request only after the
previous one resolves) hammer a :class:`~repro.service.server.
SamplingService` for a fixed number of requests, sweeping the client count
and worker count.  Two service configurations are compared:

* **coalesced** -- a batching window groups compatible concurrent requests
  into one multi-instance engine run;
* **solo** -- ``batch_window_s=0, max_batch_requests=1``: every request runs
  alone (the one-request-per-run baseline a naive deployment would use).

Reported per cell: requests/sec plus p50/p99 latency.  Acceptance: with >= 4
concurrent clients, coalescing must beat one-request-per-run throughput --
and at 8 clients by >= 2x.

Run standalone (wall clock, intentionally not a pytest file):

    PYTHONPATH=src python benchmarks/bench_service_throughput.py            # full
    PYTHONPATH=src python benchmarks/bench_service_throughput.py --quick    # CI smoke
"""

from __future__ import annotations

import argparse
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Tuple

import numpy as np

from repro.graph.generators import powerlaw_graph
from repro.service import SamplingClient, SamplingService

ALGORITHM = "simple_random_walk"
DEPTH = 8
INSTANCES_PER_REQUEST = 8


def run_cell(
    graph,
    *,
    num_clients: int,
    num_workers: int,
    requests_per_client: int,
    coalesce: bool,
    mode: str,
) -> Tuple[float, float, float]:
    """One configuration cell; returns (requests/sec, p50 ms, p99 ms)."""
    service = SamplingService(
        num_workers=num_workers,
        mode=mode,
        batch_window_s=0.004 if coalesce else 0.0,
        max_batch_requests=256 if coalesce else 1,
        memory_budget_bytes=None,
    )
    try:
        service.load_graph("bench", graph)
        client = SamplingClient(service)

        def warm(rank: int) -> None:
            # A distinct RNG seed per request keeps them separate units.
            client.sample("bench", ALGORITHM, [0], depth=DEPTH,
                          seed=1000 + rank, timeout=120)

        # Untimed: one concurrent request per worker, so a process worker's
        # spawn and graph attach land before the barrier, not in the window.
        with ThreadPoolExecutor(num_workers) as warmup:
            list(warmup.map(warm, range(num_workers)))
        latencies: List[List[float]] = [[] for _ in range(num_clients)]
        barrier = threading.Barrier(num_clients + 1)

        def client_loop(rank: int) -> None:
            rng = np.random.default_rng(rank)
            barrier.wait()
            for _ in range(requests_per_client):
                seeds = rng.integers(0, graph.num_vertices, INSTANCES_PER_REQUEST)
                start = time.perf_counter()
                # One shared RNG seed across clients: requests stay
                # config-compatible, so concurrent arrivals can coalesce.
                client.sample("bench", ALGORITHM, seeds.tolist(),
                              depth=DEPTH, seed=7, timeout=120)
                latencies[rank].append(time.perf_counter() - start)

        threads = [
            threading.Thread(target=client_loop, args=(rank,))
            for rank in range(num_clients)
        ]
        for thread in threads:
            thread.start()
        barrier.wait()
        started = time.perf_counter()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
    finally:
        service.shutdown()
    flat = np.asarray([l for per in latencies for l in per])
    total = num_clients * requests_per_client
    return (
        total / elapsed,
        float(np.percentile(flat, 50)) * 1e3,
        float(np.percentile(flat, 99)) * 1e3,
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="reduced sizes for CI smoke runs (relaxed assertion)")
    parser.add_argument("--mode", default="thread", choices=["thread", "process"],
                        help="worker pool mode (thread isolates the coalescing "
                             "effect; process adds IPC overhead -- each worker "
                             "is warmed by one untimed request, so its spawn "
                             "is not timed)")
    args = parser.parse_args()

    if args.quick:
        num_vertices, requests_per_client = 5_000, 8
        client_counts, worker_counts = [4, 8], [1]
    else:
        num_vertices, requests_per_client = 50_000, 25
        client_counts, worker_counts = [1, 4, 8], [1, 2]

    graph = powerlaw_graph(num_vertices, avg_degree=8, seed=1)
    print(f"graph: {graph}, {ALGORITHM} depth={DEPTH} "
          f"x{INSTANCES_PER_REQUEST} instances/request, mode={args.mode}")
    header = (f"{'clients':>7s} {'workers':>7s} | "
              f"{'solo req/s':>10s} {'p50ms':>7s} {'p99ms':>7s} | "
              f"{'coal req/s':>10s} {'p50ms':>7s} {'p99ms':>7s} | {'gain':>6s}")
    print(header)

    cell_gains: Dict[Tuple[int, int], float] = {}
    for num_workers in worker_counts:
        for num_clients in client_counts:
            solo = run_cell(
                graph, num_clients=num_clients, num_workers=num_workers,
                requests_per_client=requests_per_client, coalesce=False,
                mode=args.mode,
            )
            coal = run_cell(
                graph, num_clients=num_clients, num_workers=num_workers,
                requests_per_client=requests_per_client, coalesce=True,
                mode=args.mode,
            )
            gain = coal[0] / solo[0] if solo[0] > 0 else float("inf")
            cell_gains[(num_clients, num_workers)] = gain
            print(f"{num_clients:7d} {num_workers:7d} | "
                  f"{solo[0]:10.1f} {solo[1]:7.1f} {solo[2]:7.1f} | "
                  f"{coal[0]:10.1f} {coal[1]:7.1f} {coal[2]:7.1f} | "
                  f"{gain:5.2f}x")

    failures = []
    for (num_clients, num_workers), gain in sorted(cell_gains.items()):
        if num_clients >= 4 and gain <= 1.0:
            failures.append(
                f"{num_clients} clients / {num_workers} workers: "
                f"coalescing gain {gain:.2f}x <= 1x"
            )
    eight_client = [g for (c, _), g in cell_gains.items() if c == 8]
    if not args.quick and eight_client and max(eight_client) < 2.0:
        failures.append(
            f"8 clients: best coalescing gain {max(eight_client):.2f}x below 2x"
        )

    if failures:
        for failure in failures:
            print("FAIL:", failure)
        return 1
    print("OK: coalescing beats one-request-per-run in every >=4-client cell"
          + ("" if args.quick else "; >=2x in the best 8-client cell"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
