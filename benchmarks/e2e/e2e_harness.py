"""Runs one (workload, pass) in this interpreter and reports what it saw.

Imported only by the child processes ``run.py`` starts, one per
(workload, pass): the kernel cache, the per-(graph, epoch) structure cache
and ``ru_maxrss`` are process-global, so a shared interpreter would make
results depend on workload order.

The product is driven only through public entry points --
``SamplingClient`` / ``SamplingService`` for served workloads,
``repro.sample_graph`` for direct ones.  The timed pass runs with every
telemetry tier off; the traced pass (``e2e_layers``) switches the public
profiler on and replays requests through each layer in isolation.
"""

from __future__ import annotations

import hashlib
import resource
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import sample_graph
from repro.algorithms.registry import get_algorithm
from repro.api.requests import SampleRequest
from repro.distributed import ShardedSamplingCluster
from repro.graph import DeltaGraph
from repro.graph.io import load_npz, save_npz
from repro.oom.scheduler import OutOfMemorySampler
from repro.planner.planner import plan_admission
from repro.service import (
    AdmissionRejected,
    SamplingClient,
    SamplingService,
    leaked_segments,
)

from e2e_workloads import (
    GRAPH_NAME,
    VERIFY_EVERY,
    Op,
    Schedule,
    Sizes,
    Workload,
    generate,
    generate_ops,
)

#: Every wait on the service is bounded; a timeout is a failed operation.
WAIT_TIMEOUT_S = 120
#: ``ops_per_s`` is the median throughput of this many blocks of the window.
THROUGHPUT_BLOCKS = 5


# --------------------------------------------------------------------------- #
# Spans: the benchmark's own, recorded around its calls into the product
# --------------------------------------------------------------------------- #
class Spans:
    """In-memory span rows ``(name, start, end, parent, op)``, off by default."""

    def __init__(self) -> None:
        self.enabled = False
        self.rows: List[Tuple[str, float, float, Optional[str], Optional[str]]] = []

    def add(self, name: str, start: float, end: float,
            parent: Optional[str] = None, op: Optional[str] = None) -> None:
        if self.enabled:
            self.rows.append((name, start, end, parent, op))

    def timed(self, name: str, fn: Callable, *args, op: Optional[str] = None,
              **kwargs):
        """Call ``fn`` under a span; returns ``(result, seconds)``."""
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        end = time.perf_counter()
        self.add(name, start, end, None, op)
        return result, end - start

    def as_json(self) -> List[Dict[str, object]]:
        return [
            {"name": n, "start_s": s, "end_s": e, "parent": p, "op": o}
            for n, s, e, p, o in self.rows
        ]


# --------------------------------------------------------------------------- #
# Outcomes and digests
# --------------------------------------------------------------------------- #
def op_digest(samples, iteration_counts) -> bytes:
    """sha256 of one operation's sampled bits: per-instance edge counts,
    every edge array in instance order, and the iteration counts."""
    digest = hashlib.sha256()
    digest.update(np.array([s.num_edges for s in samples], dtype=np.int64).tobytes())
    for sample in samples:
        digest.update(np.ascontiguousarray(sample.edges, dtype=np.int64).tobytes())
    digest.update(np.asarray(iteration_counts, dtype=np.int64).tobytes())
    return digest.digest()


@dataclass
class Counts:
    attempted: int = 0
    succeeded: int = 0
    failed: int = 0
    shed: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dict(vars(self))


@dataclass
class Row:
    """One successful operation as the client saw it."""

    #: ``perf_counter`` when the answer arrived, and how long it took.
    done_at: float
    latency_s: float
    #: Simulated seconds the op is charged in ``sim_seps``: ``makespan`` on
    #: the out_of_memory / sharded routes, else ``kernel_s``.
    sim_s: float
    #: Simulated kernel seconds.  A fused batch reports its aggregate on
    #: every member, so a member is charged ``1 / coalesced_with`` of it.
    kernel_s: float
    edges: int
    digest: bytes
    #: ``SampleResponse.stats`` (served operations only).
    stats: Optional[Dict[str, object]] = None
    #: Requests that shared the op's engine batch (``coalesced_with``).
    unit_size: int = 1
    index: int = -1


@dataclass
class Window:
    """What one phase observed, per client in schedule order."""

    counts: Counts = field(default_factory=Counts)
    #: ``perf_counter`` when the clients were released, and the wall until
    #: the last one finished.
    began_at: float = 0.0
    wall_s: float = 0.0
    rows: List[List[Row]] = field(default_factory=list)
    update_s: List[float] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)

    def flat(self) -> List[Row]:
        return [row for client_rows in self.rows for row in client_rows]


# --------------------------------------------------------------------------- #
# Direct path: what a served response must be bit-identical to
# --------------------------------------------------------------------------- #
def resolve(op: Op):
    """``(program, config)`` of one operation, registry defaults + overrides."""
    info = get_algorithm(op.algorithm)
    return info.program_factory(), info.config_factory(**dict(op.overrides))


def run_direct(graph, op: Op, route: str = "in_memory", layout=None):
    """Run ``op`` through the standalone sampler of ``route``.

    Returns ``(SampleResult, simulated seconds)``.
    """
    program, config = resolve(op)
    seeds = list(op.seeds)
    if route == "out_of_memory":
        result = OutOfMemorySampler(
            graph, program, config, layout.oom, algorithm=op.algorithm
        ).run(seeds)
        return result.sample, float(result.makespan)
    if route == "sharded":
        result = ShardedSamplingCluster(
            graph, op.algorithm, config, num_shards=layout.num_partitions,
            transport="in_process",
        ).run(seeds)
        return result.result, float(result.makespan())
    result = sample_graph(graph, program, seeds, config)
    return result, float(result.kernel_time())


def admission(workload: Workload, graph):
    """The ``(route, layout)`` the service freezes for this graph.

    In-memory workloads pass no budget: their graphs are far below the
    service's default, so the decision is the same.
    """
    kwargs = workload.service_kwargs(graph.nbytes)
    return plan_admission(
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        nbytes=graph.nbytes,
        memory_budget_bytes=kwargs.get("memory_budget_bytes"),
        cluster_shards=kwargs.get("cluster_shards", 0),
    )


# --------------------------------------------------------------------------- #
# Executors: one per workload kind
# --------------------------------------------------------------------------- #
class DirectExecutor:
    """Library traffic: one ``sample_graph`` call per operation."""

    def __init__(self, graph):
        self.graph = graph
        self.service = None
        self.leaked: List[str] = []

    def run_unit(self, ops: Sequence[Op]) -> List[Row]:
        out = []
        for op in ops:
            program, config = resolve(op)
            start = time.perf_counter()
            result = sample_graph(self.graph, program, list(op.seeds), config)
            done = time.perf_counter()
            kernel_s = float(result.kernel_time())
            out.append(Row(done, done - start, kernel_s, kernel_s,
                           int(result.total_sampled_edges),
                           op_digest(result.samples, result.iteration_counts)))
        return out

    def close(self) -> None:
        pass


class ServedExecutor:
    """Served traffic: a default-configured service, one process worker."""

    def __init__(self, workload: Workload, graph, smoke: bool):
        self.workload = workload
        self.service = SamplingService(
            num_workers=1,
            mode="thread" if smoke else "process",
            **workload.service_kwargs(graph.nbytes),
        )
        self.client = SamplingClient(self.service)
        self.leaked = []
        route = self.service.load_graph(GRAPH_NAME, graph)
        if route != workload.route:
            self.close()
            raise RuntimeError(
                f"{workload.name}: admitted on {route!r}, expected {workload.route!r}"
            )

    def _row(self, done: float, latency: float, response) -> Row:
        if response.route != self.workload.route:
            raise RuntimeError(f"response route {response.route!r}")
        stats = response.stats
        kernel_s = float(stats["kernel_time_s"]) / response.coalesced_with
        return Row(done, latency, float(stats.get("makespan", kernel_s)), kernel_s,
                   int(stats["sampled_edges"]),
                   op_digest(response.samples, response.iteration_counts), stats,
                   response.coalesced_with)

    def run_unit(self, ops: Sequence[Op]) -> list:
        """One closed-loop step; rows (or the exception) per operation."""
        if len(ops) == 1:
            op = ops[0]
            start = time.perf_counter()
            response = self.client.sample(
                GRAPH_NAME, op.algorithm, op.seeds, timeout=WAIT_TIMEOUT_S,
                **dict(op.overrides),
            )
            done = time.perf_counter()
            return [self._row(done, done - start, response)]
        requests = [
            SampleRequest(graph=GRAPH_NAME, algorithm=op.algorithm, seeds=op.seeds,
                          config_overrides=dict(op.overrides))
            for op in ops
        ]
        pending = []
        for request in requests:
            start = time.perf_counter()
            pending.append((start, self.client.submit(request)))
        answers = []
        for start, future in pending:
            try:
                response = future.result(timeout=WAIT_TIMEOUT_S)
                answers.append((start, time.perf_counter(), response))
            except Exception as exc:  # one lost future must not hide the rest
                answers.append((start, start, exc))
        # Digests only after the whole burst resolved: hashing between
        # ``result()`` calls would be charged to the later futures.
        return [
            answer if isinstance(answer, Exception)
            else self._row(done, done - start, answer)
            for start, done, answer in answers
        ]

    def update(self, edges) -> None:
        self.service.update_graph(GRAPH_NAME, add_edges=edges)

    def close(self) -> None:
        prefix = self.service.store.prefix
        self.service.shutdown()
        self.leaked = leaked_segments(prefix)


def make_executor(workload: Workload, graph, smoke: bool):
    if workload.kind == "served":
        return ServedExecutor(workload, graph, smoke)
    return DirectExecutor(graph)


# --------------------------------------------------------------------------- #
# The closed loop
# --------------------------------------------------------------------------- #
def run_window(executor, workload: Workload, schedule: Schedule,
               start: int, stop: int, spans: Optional[Spans] = None) -> Window:
    """Drive operations ``[start, stop)`` of every client stream, closed loop.

    Each client thread sends its next unit (one request, or one burst) only
    after the previous one resolved.  Digests are taken between units,
    outside the latency clock but inside the window.
    """
    spans = spans if spans is not None else Spans()  # a disabled recorder
    window = Window(rows=[[] for _ in schedule.streams])
    tallies = [Counts() for _ in schedule.streams]
    barrier = threading.Barrier(len(schedule.streams) + 1)

    def publish_updates(first: int, count: int) -> None:
        for index in range(first, first + count):
            edges = schedule.updates.get(index)
            if edges is not None:
                begin = time.perf_counter()
                executor.update(edges)
                end = time.perf_counter()
                window.update_s.append(end - begin)
                spans.add("server.update_graph", begin, end)

    def client_loop(client: int) -> None:
        stream = schedule.streams[client]
        rows = window.rows[client]
        counts = tallies[client]
        barrier.wait()
        for first in range(start, stop, workload.burst):
            ops = stream[first:first + workload.burst]
            counts.attempted += len(ops)
            try:
                if client == 0:
                    publish_updates(first, len(ops))
                unit_start = time.perf_counter()
                outcomes = executor.run_unit(ops)
            except Exception as exc:
                outcomes = [exc] * len(ops)
            for offset, outcome in enumerate(outcomes):
                if isinstance(outcome, Exception):
                    counts.failed += 1
                    counts.shed += isinstance(outcome, AdmissionRejected)
                    window.errors.append(f"{type(outcome).__name__}: {outcome}"[:300])
                else:
                    counts.succeeded += 1
                    outcome.index = first + offset
                    rows.append(outcome)
                    _op_spans(spans, f"{client}:{outcome.index}", unit_start, outcome)

    threads = [
        threading.Thread(target=client_loop, args=(client,), name=f"client-{client}")
        for client in range(len(schedule.streams))
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    window.began_at = time.perf_counter()
    for thread in threads:
        thread.join()
    window.wall_s = time.perf_counter() - window.began_at
    for tally in tallies:
        for key, value in tally.as_dict().items():
            setattr(window.counts, key, getattr(window.counts, key) + value)
    return window


def _op_spans(spans: Spans, op: str, start: float, row: Row) -> None:
    """One client span per operation; the server's public per-response
    ``queue_wait_s`` / ``execute_s`` fields become its child spans."""
    spans.add("client.op", start, start + row.latency_s, None, op)
    if row.stats and "queue_wait_s" in row.stats:
        dispatched = start + float(row.stats["queue_wait_s"])
        spans.add("server.queue_wait", start, dispatched, "client.op", op)
        spans.add("server.execute", dispatched,
                  dispatched + float(row.stats["execute_s"]), "client.op", op)


# --------------------------------------------------------------------------- #
# Verification: replay through the direct path, bit-identical or failed
# --------------------------------------------------------------------------- #
def graphs_by_op(schedule: Schedule, client: int, stop: int):
    """Yield ``(op index, graph the op ran on)`` for one client's stream.

    Updates are published by client 0 before its own operation, the way
    ``update_graph`` applies them: DeltaGraph overlay, canonical compaction.
    """
    graph = schedule.graph
    for index in range(stop):
        edges = schedule.updates.get(index) if client == 0 else None
        if edges is not None:
            delta = DeltaGraph(graph)
            delta.add_edges(edges)
            graph = delta.to_csr()
        yield index, graph


def verify(workload: Workload, schedule: Schedule, window: Window,
           start: int, every: int = VERIFY_EVERY) -> Tuple[Counts, List[str]]:
    """Replay every ``every``-th operation of ``window`` through the
    standalone sampler of its route and compare digests."""
    route, layout = admission(workload, schedule.graph)
    counts = Counts()
    mismatches: List[str] = []
    for client, rows in enumerate(window.rows):
        wanted = {row.index: row.digest for row in rows
                  if (row.index - start) % every == 0}
        stop = max(wanted, default=-1) + 1
        for index, graph in graphs_by_op(schedule, client, stop):
            if index not in wanted:
                continue
            counts.attempted += 1
            op = schedule.streams[client][index]
            result, _ = run_direct(graph, op, route, layout)
            if op_digest(result.samples, result.iteration_counts) == wanted[index]:
                counts.succeeded += 1
            else:
                counts.failed += 1
                mismatches.append(f"{workload.name} client {client} op {index}")
    return counts, mismatches


# --------------------------------------------------------------------------- #
# Reporting helpers
# --------------------------------------------------------------------------- #
def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def block_throughput(window: Window, blocks: int = THROUGHPUT_BLOCKS) -> float:
    """Median completions per second over ``blocks`` consecutive, equally
    sized groups of completions: a stall that hits one group of the window
    does not move the median, where it would move ``ops / wall``."""
    done = sorted(row.done_at for row in window.flat())
    rates = []
    previous = window.began_at
    for block in range(blocks):
        group = done[len(done) * block // blocks:len(done) * (block + 1) // blocks]
        if group:
            rates.append(len(group) / (group[-1] - previous))
            previous = group[-1]
    return float(np.median(rates))


def peak_rss_mb() -> float:
    """Max of this interpreter's and its reaped children's ``ru_maxrss``."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


def output_digest(window: Window) -> str:
    """sha256 over every operation's digest in schedule order."""
    digest = hashlib.sha256()
    for rows in window.rows:
        for row in sorted(rows, key=lambda r: r.index):
            digest.update(row.digest)
    return digest.hexdigest()


# --------------------------------------------------------------------------- #
# The timed pass
# --------------------------------------------------------------------------- #
def timed_pass(workload: Workload, seed: int, sizes: Sizes, smoke: bool,
               graph_path: Optional[str]) -> Dict[str, object]:
    """End-to-end metrics: all telemetry off, fixed operation count."""
    phase_wall: Dict[str, float] = {}
    schedule = generate(workload, seed, sizes)
    phase_wall["graph_gen"] = schedule.graph_gen_s
    if graph_path:
        # Uncompressed: the direct cold-start child reads the raw arrays
        # before it may import repro.
        save_npz(schedule.graph, graph_path, compressed=False)
    total = sizes.warmup_ops + sizes.timed_ops

    begin = time.perf_counter()
    executor = make_executor(workload, schedule.graph, smoke)
    phase_wall["start"] = time.perf_counter() - begin
    try:
        warmup = run_window(executor, workload, schedule, 0, sizes.warmup_ops)
        timed = run_window(executor, workload, schedule, sizes.warmup_ops, total)
        service_stats = executor.service.stats() if executor.service else {}
    finally:
        executor.close()
    rss = peak_rss_mb()  # after shutdown(), before verification touches memory
    phase_wall["warmup"] = warmup.wall_s
    phase_wall["timed"] = timed.wall_s

    begin = time.perf_counter()
    checked, mismatches = verify(workload, schedule, timed, sizes.warmup_ops)
    phase_wall["verify"] = time.perf_counter() - begin

    rows = timed.flat()
    latencies = [row.latency_s for row in rows]
    simulated = sum(row.sim_s for row in rows)
    edges = sum(row.edges for row in rows)
    metrics = {}
    if rows:
        metrics = {
            "latency_p50_ms": percentile(latencies, 50) * 1e3,
            "ops_per_s": block_throughput(timed),
            "peak_rss_mb": rss,
            "sim_seps": edges / simulated if simulated else 0.0,
        }
    cache = service_stats.get("result_cache") or {}
    return {
        "metrics": metrics,
        "phases": {
            "warmup": warmup.counts.as_dict(),
            "timed": timed.counts.as_dict(),
            "verify": checked.as_dict(),
        },
        "leaked_segments": list(executor.leaked),
        "mismatches": mismatches,
        "errors": (warmup.errors + timed.errors)[:10],
        "counts": {
            "ops": len(rows),
            "sampled_edges": int(edges),
            "sim_time_s": simulated,
            "gateway.invalidations": int(cache.get("invalidations", 0)),
            "updates": len(timed.update_s),
        },
        "output_digest": output_digest(timed),
        "phase_wall_s": phase_wall,
    }


# --------------------------------------------------------------------------- #
# Set-up time: cold starts, measured in their own interpreters
# --------------------------------------------------------------------------- #
def served_setup(workload: Workload, seed: int, sizes: Sizes, smoke: bool,
                 graph_path: str, repeats: int) -> Dict[str, object]:
    """``SamplingService(...)`` + ``load_graph`` + first response received,
    ``repeats`` times; every repeat spawns a fresh worker process."""
    graph = load_npz(graph_path)
    streams, _ = generate_ops(workload, seed, sizes, graph.num_vertices)
    first = streams[0][:1]
    times: List[float] = []
    leaked: List[str] = []
    for _ in range(repeats):
        begin = time.perf_counter()
        executor = ServedExecutor(workload, graph, smoke)
        try:
            executor.run_unit(first)
            times.append(time.perf_counter() - begin)
        finally:
            executor.close()
        leaked.extend(executor.leaked)
    return {"setup_s": times, "leaked_segments": leaked}
