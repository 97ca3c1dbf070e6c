"""The traced pass: per-layer metrics, measured from outside the program.

Three sources, none of them new code inside ``src/``:

* the benchmark's own spans around its calls (``e2e_harness.Spans``);
* public per-response / per-service fields -- ``SampleResponse.stats``,
  ``service.stats()`` -- and the public phase profiler
  (``repro.telemetry.profiler``), switched on for the traced window only;
* *replays*: the first generated requests of the traced window are pushed
  through each layer's public function in isolation (gateway, planner,
  worker execution, pickling, store, sampler construction, the
  out-of-memory and sharded samplers).

A layer is a module of ``src/repro``.  ``PER_LAYER`` names every metric with
its unit, direction, and the end-to-end metric / workloads it is expected to
move; ``BENCHMARK.json`` lists the same names.  A metric whose layer a
workload never enters reads 0 there.
"""

from __future__ import annotations

import json
import pickle
import resource
import time
from dataclasses import replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro import GraphSampler
from repro.api.instance import make_instances
from repro.api.requests import SampleRequest
from repro.compiled.compiler import kernel_cache_stats
from repro.compiled.structures import structure_cache_stats
from repro.distributed import ShardedSamplingCluster
from repro.graph import DeltaGraph
from repro.oom.scheduler import OutOfMemorySampler
from repro.planner.planner import PlanRequest, plan, scale_plan
from repro.service import (
    CachedResult,
    Gateway,
    GatewayConfig,
    RequestSpec,
    SharedGraphStore,
    UnitResult,
    WorkUnit,
    WorkerPool,
    execute_unit,
    leaked_segments,
)
from repro.telemetry import profiler
from repro.telemetry.metrics import MetricsRegistry

from e2e_harness import (
    WAIT_TIMEOUT_S,
    Spans,
    admission,
    make_executor,
    percentile,
    resolve,
    run_direct,
    run_window,
    verify,
)
from e2e_workloads import (
    GRAPH_NAME,
    Op,
    Schedule,
    Sizes,
    Workload,
    generate,
    update_batch,
)

SERVED = ("small_served", "burst_served", "oom_served", "sharded_served",
          "cache_updates")
BULK = ("bulk_walk", "bulk_sampling")
EVERY = SERVED + BULK
ALGORITHMS = (
    "simple_random_walk", "deepwalk", "biased_random_walk", "node2vec",
    "unbiased_neighbor_sampling", "biased_neighbor_sampling", "layer_sampling",
    "forest_fire_sampling",
)

#: name -> (unit, better, end-to-end metric it should move, on which workloads)
PER_LAYER: Dict[str, tuple] = {
    "client.latency_p90_ms": ("ms", "lower", "latency_p50_ms", EVERY),
    "client.latency_p99_ms": ("ms", "lower", "latency_p50_ms",
                              ("small_served", "burst_served", "cache_updates")),
    "client.sampled_edges_per_s": ("edges/s", "higher", "ops_per_s", EVERY),
    "process.cpu_s_per_op": ("s", "lower", "ops_per_s", ("burst_served",)),
    "gateway.cache_hit_rate": ("ratio", "higher", "latency_p50_ms", ("cache_updates",)),
    "gateway.lookup_hit_us": ("us", "lower", "latency_p50_ms", ("cache_updates",)),
    "gateway.lookup_miss_us": ("us", "lower", "latency_p50_ms", ("small_served",)),
    "gateway.store_us": ("us", "lower", "latency_p50_ms", ("small_served",)),
    "gateway.invalidations": ("count", "lower", "ops_per_s", ("cache_updates",)),
    "server.queue_wait_ms_p50": ("ms", "lower", "latency_p50_ms",
                                 ("small_served", "burst_served")),
    "server.execute_ms_p50": ("ms", "lower", "latency_p50_ms",
                              ("small_served", "burst_served", "oom_served",
                               "sharded_served")),
    "server.fusion_rate": ("ratio", "higher", "ops_per_s", ("burst_served",)),
    "server.mean_unit_size": ("requests", "higher", "ops_per_s", ("burst_served",)),
    "server.units_dispatched": ("count", "lower", "ops_per_s", ("burst_served",)),
    "server.overhead_ms_p50": ("ms", "lower", "latency_p50_ms", ("small_served",)),
    "server.update_graph_ms_p50": ("ms", "lower", "ops_per_s", ("cache_updates",)),
    "workers.execute_unit_ms_p50": ("ms", "lower", "latency_p50_ms",
                                    ("small_served", "burst_served", "oom_served",
                                     "sharded_served")),
    "workers.ipc_ms_p50": ("ms", "lower", "latency_p50_ms",
                           ("burst_served", "small_served")),
    "workers.unit_pickle_bytes": ("B", "lower", "ops_per_s", ("burst_served",)),
    "workers.result_pickle_bytes": ("B", "lower", "ops_per_s", ("burst_served",)),
    "workers.pickle_roundtrip_us": ("us", "lower", "latency_p50_ms", ("burst_served",)),
    "workers.spawn_s": ("s", "lower", "setup_s", SERVED),
    "store.put_ms": ("ms", "lower", "setup_s", SERVED),
    "store.publish_ms": ("ms", "lower", "ops_per_s", ("cache_updates",)),
    "graph.delta_to_csr_ms": ("ms", "lower", "ops_per_s", ("cache_updates",)),
    "planner.plan_us": ("us", "lower", "latency_p50_ms", ("small_served",)),
    "planner.scale_plan_us": ("us", "lower", "latency_p50_ms", ("small_served",)),
    "planner.predicted_over_actual": ("ratio", "lower", "latency_p50_ms",
                                      ("small_served", "oom_served", "sharded_served")),
    "planner.compiled_share": ("ratio", "higher", "ops_per_s", BULK),
    "api.make_instances_us": ("us", "lower", "latency_p50_ms",
                              ("small_served", "bulk_walk")),
    "api.sampler_construct_us": ("us", "lower", "latency_p50_ms", ("small_served",)),
    **{f"api.run_ms_p50.{name}": ("ms", "lower", "latency_p50_ms", BULK)
       for name in ALGORITHMS},
    "engine.gather_ms": ("ms/op", "lower", "ops_per_s", ("bulk_sampling",)),
    "engine.bias_ms": ("ms/op", "lower", "ops_per_s", ("bulk_sampling",)),
    "engine.select_ms": ("ms/op", "lower", "ops_per_s", ("bulk_sampling",)),
    "engine.update_ms": ("ms/op", "lower", "ops_per_s", ("bulk_sampling",)),
    "engine.step_share": ("ratio", "lower", "ops_per_s", ("bulk_walk",)),
    "compiled.kernel_cache_hit_rate": ("ratio", "higher", "latency_p50_ms",
                                       ("bulk_walk", "cache_updates")),
    "compiled.structure_cache_hit_rate": ("ratio", "higher", "latency_p50_ms",
                                          ("bulk_walk", "cache_updates")),
    "compiled.structure_build_ms": ("ms/op", "lower", "ops_per_s",
                                    ("bulk_walk", "cache_updates")),
    "oom.run_ms_p50": ("ms", "lower", "latency_p50_ms", ("oom_served",)),
    "oom.rounds": ("count", "lower", "sim_seps", ("oom_served",)),
    "oom.partition_transfers": ("count", "lower", "sim_seps", ("oom_served",)),
    "oom.sim_makespan_s": ("sim_s", "lower", "sim_seps", ("oom_served",)),
    "distributed.run_ms_p50": ("ms", "lower", "latency_p50_ms", ("sharded_served",)),
    "distributed.construct_ms_p50": ("ms", "lower", "latency_p50_ms",
                                     ("sharded_served",)),
    "distributed.migrations_per_op": ("count", "lower", "sim_seps", ("sharded_served",)),
    "distributed.epochs_per_op": ("count", "lower", "sim_seps", ("sharded_served",)),
    "gpusim.sim_kernel_time_s": ("sim_s", "lower", "sim_seps", EVERY),
    "telemetry.trace_overhead": ("ratio", "higher", "ops_per_s", EVERY),
    "ledger.unexplained_share": ("ratio", "lower", "latency_p50_ms", SERVED),
}


def _median(values: Sequence[float]) -> float:
    return float(np.median(values)) if len(values) else 0.0


def _mean(values: Sequence[float]) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def _hit_rate(before: Dict[str, int], after: Dict[str, int]) -> float:
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    return hits / (hits + misses) if hits + misses else 0.0


def _cpu_seconds() -> float:
    """User + system CPU of this interpreter and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


# --------------------------------------------------------------------------- #
# Replays: one layer at a time, through its public function
# --------------------------------------------------------------------------- #
def replay_storage(workload: Workload, schedule: Schedule, seed: int,
                   spans: Spans, smoke: bool, out: Dict[str, float]) -> List[str]:
    """``repro.service.store`` / ``repro.graph.delta`` / worker spawn.

    Returns the shared-memory segments the store leaked (none, ideally).
    """
    graph = schedule.graph
    edges = next(iter(schedule.updates.values()), None)
    if edges is None:
        edges = one_update(seed, graph.num_vertices)
    store = SharedGraphStore()
    try:
        handle, seconds = spans.timed("store.put", store.put, GRAPH_NAME, graph)
        out["store.put_ms"] = seconds * 1e3

        def overlay():
            delta = DeltaGraph(graph)
            delta.add_edges(edges)
            return delta.to_csr()

        updated, seconds = spans.timed("graph.delta_to_csr", overlay)
        out["graph.delta_to_csr_ms"] = seconds * 1e3
        _, seconds = spans.timed("store.publish", store.publish, GRAPH_NAME, updated)
        out["store.publish_ms"] = seconds * 1e3
        if workload.kind == "served":
            op = schedule.streams[0][0]
            unit = WorkUnit(
                unit_id=0, handle=handle, algorithm=op.algorithm,
                config=resolve(op)[1], program_kwargs=(),
                requests=(RequestSpec(request_id=0, seeds=op.seeds),),
            )

            def spawn():
                pool = WorkerPool(
                    1, mode="thread" if smoke else "process",
                    resolve_graph=lambda h: store.graph(h.name, h.epoch),
                )
                try:
                    pool.submit(unit)
                    deadline = time.perf_counter() + WAIT_TIMEOUT_S
                    while True:  # claim messages precede the result
                        message = pool.next_result(
                            timeout=max(0.01, deadline - time.perf_counter()))
                        if isinstance(message, UnitResult):
                            return message
                finally:
                    pool.shutdown()

            result, seconds = spans.timed("workers.spawn", spawn)
            if result.error is not None:
                raise RuntimeError(f"spawned worker failed: {result.error}")
            out["workers.spawn_s"] = seconds
    finally:
        store.close()
    return leaked_segments(store.prefix)


def one_update(seed: int, num_vertices: int) -> np.ndarray:
    """An update batch for workloads that publish none themselves."""
    return update_batch(np.random.default_rng([seed, 64]), num_vertices, 64)


def replay_api(schedule: Schedule, ops: Sequence[Op], spans: Spans) -> Dict[str, float]:
    """``repro.api`` + ``repro.planner`` as a standalone sampler uses them:
    median seconds per step, and the share of plans on the compiled tier."""
    graph = schedule.graph
    seconds: Dict[str, List[float]] = {
        key: [] for key in ("instances", "construct", "plan", "scale")}
    compiled = []
    for i, op in enumerate(ops):
        program, config = resolve(op)
        instances, took = spans.timed(
            "api.make_instances", make_instances, list(op.seeds), op=str(i))
        seconds["instances"].append(took)
        _, took = spans.timed(
            "api.sampler_construct", GraphSampler, graph, program, config,
            algorithm=op.algorithm, op=str(i))
        seconds["construct"].append(took)
        planned, took = spans.timed("planner.plan", plan, PlanRequest(
            graph=graph, program=program, config=config, algorithm=op.algorithm,
            instances=instances, force_route="in_memory",
        ), op=str(i))
        seconds["plan"].append(took)
        _, took = spans.timed(
            "planner.scale_plan", scale_plan, planned, [len(instances)], op=str(i))
        seconds["scale"].append(took)
        compiled.append(planned.step_tier == "compiled")
    medians = {key: _median(values) for key, values in seconds.items()}
    medians["compiled_share"] = _mean(compiled)
    return medians


def replay_served(workload: Workload, schedule: Schedule, ops: Sequence[Op],
                  unit_size: int, spans: Spans, out: Dict[str, float]) -> float:
    """The served request path, layer by layer, in this process.

    Rebuilds what ``SamplingService`` does per dispatched unit -- class plan,
    unit plan, ``WorkUnit`` of ``unit_size`` requests (the median the traced
    window's responses reported) -- from the same public pieces, then times
    each piece alone.  Returns the median seconds of a direct ``sample_graph`` of
    the same requests (the "served within 2x of direct" baseline).
    """
    graph = schedule.graph
    route, layout = admission(workload, graph)
    budget = workload.service_kwargs(graph.nbytes).get("memory_budget_bytes")
    gateway = Gateway(GatewayConfig(), MetricsRegistry())
    store = SharedGraphStore()
    seconds: Dict[str, List[float]] = {key: [] for key in (
        "plan", "scale", "execute_unit", "pickle", "miss", "store", "hit",
        "direct", "oom", "cluster", "cluster_construct", "predicted")}
    sizes = {"unit": [], "result": []}
    route_counts: Dict[str, List[float]] = {key: [] for key in (
        "rounds", "transfers", "makespan", "migrations", "epochs")}
    try:
        handle = store.put(GRAPH_NAME, graph)
        for first in range(0, len(ops), unit_size):
            members = ops[first:first + unit_size]
            tag = str(first)
            requests = [
                SampleRequest(graph=GRAPH_NAME, algorithm=op.algorithm,
                              seeds=op.seeds, config_overrides=dict(op.overrides))
                for op in members
            ]
            head = requests[0]
            program, config = resolve(members[0])
            class_plan, took = spans.timed("planner.plan", plan, PlanRequest(
                config=config, algorithm=head.algorithm, num_instances=1,
                memory_budget_bytes=budget, oom_config=layout.oom,
                force_route=route, coalescable=program.supports_coalescing,
                graph_num_vertices=graph.num_vertices,
                graph_num_edges=graph.num_edges, graph_nbytes=graph.nbytes,
            ), op=tag)
            seconds["plan"].append(took)
            class_plan = replace(class_plan, layout=layout)
            unit_plan, took = spans.timed(
                "planner.scale_plan", scale_plan, class_plan,
                [r.instance_count() for r in requests], op=tag)
            seconds["scale"].append(took)
            unit = WorkUnit(
                unit_id=first, handle=handle, algorithm=head.algorithm,
                config=config, program_kwargs=(),
                requests=tuple(
                    RequestSpec(request_id=r.request_id, seeds=r.seeds)
                    for r in requests
                ),
                route=class_plan.route, oom_config=unit_plan.layout.oom,
                cluster_shards=layout.num_partitions if route == "sharded" else None,
                plan=unit_plan,
            )
            result, took = spans.timed(
                "workers.execute_unit", execute_unit, graph, unit, op=tag)
            if result.error is not None:
                raise RuntimeError(f"replayed unit failed: {result.error}")
            seconds["execute_unit"].append(took)
            seconds["predicted"].append(
                (unit_plan.calibrated_time_s or unit_plan.predicted_time_s) / took)

            def roundtrip():
                unit_blob, result_blob = pickle.dumps(unit), pickle.dumps(result)
                pickle.loads(unit_blob)
                pickle.loads(result_blob)
                return len(unit_blob), len(result_blob)

            (unit_bytes, result_bytes), took = spans.timed(
                "workers.pickle_roundtrip", roundtrip, op=tag)
            seconds["pickle"].append(took)
            sizes["unit"].append(unit_bytes)
            sizes["result"].append(result_bytes)

            for offset, (op, request, payload) in enumerate(
                    zip(members, requests, result.payloads)):
                if payload.error is not None:
                    raise RuntimeError(f"replayed request failed: {payload.error}")
                tag = str(first + offset)
                _, took = spans.timed("gateway.lookup", gateway.lookup, request, 0, op=tag)
                seconds["miss"].append(took)
                cached = CachedResult(
                    samples=payload.samples,
                    iteration_counts=list(payload.iteration_counts),
                    route=payload.route, coalesced_with=payload.coalesced_with,
                    stats=dict(payload.stats), plan=unit_plan.summary(),
                )
                _, took = spans.timed("gateway.store", gateway.store, request, 0,
                                      cached, op=tag)
                seconds["store"].append(took)
                hit, took = spans.timed("gateway.lookup", gateway.lookup, request, 0, op=tag)
                seconds["hit"].append(took)
                if hit is None:
                    raise RuntimeError("gateway replay: stored entry not found")

                _, took = spans.timed("api.run", run_direct, graph, op, op=tag)
                seconds["direct"].append(took)
                if route == "out_of_memory":
                    sampler = OutOfMemorySampler(
                        graph, resolve(op)[0], config, layout.oom,
                        algorithm=op.algorithm)
                    oom, took = spans.timed("oom.run", sampler.run, list(op.seeds), op=tag)
                    seconds["oom"].append(took)
                    route_counts["rounds"].append(oom.rounds)
                    route_counts["transfers"].append(oom.partition_transfers)
                    route_counts["makespan"].append(oom.makespan)
                elif route == "sharded":
                    cluster, took = spans.timed(
                        "distributed.construct", ShardedSamplingCluster, graph,
                        op.algorithm, config, num_shards=layout.num_partitions,
                        transport="in_process", op=tag)
                    seconds["cluster_construct"].append(took)
                    run, took = spans.timed(
                        "distributed.run", cluster.run, list(op.seeds), op=tag)
                    seconds["cluster"].append(took)
                    route_counts["migrations"].append(run.migrations)
                    route_counts["epochs"].append(run.epochs)
    finally:
        store.close()

    out["planner.plan_us"] = _median(seconds["plan"]) * 1e6
    out["planner.scale_plan_us"] = _median(seconds["scale"]) * 1e6
    out["planner.predicted_over_actual"] = _median(seconds["predicted"])
    out["workers.execute_unit_ms_p50"] = _median(seconds["execute_unit"]) * 1e3
    out["workers.pickle_roundtrip_us"] = _median(seconds["pickle"]) * 1e6
    out["workers.unit_pickle_bytes"] = _median(sizes["unit"])
    out["workers.result_pickle_bytes"] = _median(sizes["result"])
    out["gateway.lookup_miss_us"] = _median(seconds["miss"]) * 1e6
    out["gateway.store_us"] = _median(seconds["store"]) * 1e6
    out["gateway.lookup_hit_us"] = _median(seconds["hit"]) * 1e6
    out["oom.run_ms_p50"] = _median(seconds["oom"]) * 1e3
    out["oom.rounds"] = _median(route_counts["rounds"])
    out["oom.partition_transfers"] = _median(route_counts["transfers"])
    out["oom.sim_makespan_s"] = float(np.sum(route_counts["makespan"]))
    out["distributed.run_ms_p50"] = _median(seconds["cluster"]) * 1e3
    out["distributed.construct_ms_p50"] = _median(seconds["cluster_construct"]) * 1e3
    out["distributed.migrations_per_op"] = _mean(route_counts["migrations"])
    out["distributed.epochs_per_op"] = _mean(route_counts["epochs"])
    return _median(seconds["direct"])


def served_layers(workload: Workload, schedule: Schedule, rows, update_s,
                  service_stats: Dict[str, object], replay_ops: Sequence[Op],
                  spans: Spans, out: Dict[str, float]):
    """gateway / server / workers / planner metrics of a served workload.

    Returns ``(dispatched p50 latency, summed unit execute wall, seconds of
    that latency the ledger explains)``.
    """
    dispatched = [r for r in rows if r.stats and "queue_wait_s" in r.stats]
    latency = _median([r.latency_s for r in dispatched])
    queue_wait = _median([float(r.stats["queue_wait_s"]) for r in dispatched])
    # Members of a fused unit all report the unit's execute_s.
    run_wall = sum(float(r.stats["execute_s"]) / r.unit_size for r in dispatched)
    unit_size = int(_median([r.unit_size for r in dispatched])) or 1
    cache = service_stats.get("result_cache") or {}
    out["gateway.cache_hit_rate"] = float(service_stats.get("cache_hit_rate", 0.0))
    out["gateway.invalidations"] = float(cache.get("invalidations", 0))
    out["server.queue_wait_ms_p50"] = queue_wait * 1e3
    out["server.execute_ms_p50"] = _median(
        [float(r.stats["execute_s"]) for r in dispatched]) * 1e3
    out["server.fusion_rate"] = float(service_stats.get("fusion_rate", 0.0))
    out["server.mean_unit_size"] = float(service_stats.get("mean_unit_size", 0.0))
    out["server.units_dispatched"] = float(service_stats.get("units_dispatched", 0))
    out["server.update_graph_ms_p50"] = _median(update_s) * 1e3
    out["planner.compiled_share"] = _mean(
        [r.stats.get("step_tier") == "compiled" for r in dispatched])
    out["compiled.kernel_cache_hit_rate"] = float(
        service_stats.get("kernel_cache_hit_rate", 0.0))
    out["compiled.structure_cache_hit_rate"] = float(
        service_stats.get("structure_cache_hit_rate", 0.0))
    direct_s = replay_served(workload, schedule, replay_ops, unit_size, spans, out)
    out[f"api.run_ms_p50.{replay_ops[0].algorithm}"] = direct_s * 1e3
    out["server.overhead_ms_p50"] = (latency - direct_s) * 1e3
    out["workers.ipc_ms_p50"] = (
        out["server.execute_ms_p50"] - out["workers.execute_unit_ms_p50"])
    explained = queue_wait + out["workers.execute_unit_ms_p50"] / 1e3 + (
        out["planner.plan_us"] + out["planner.scale_plan_us"]
        + out["workers.pickle_roundtrip_us"] + out["gateway.store_us"]) / 1e6
    return latency, run_wall, explained


# --------------------------------------------------------------------------- #
# The traced pass
# --------------------------------------------------------------------------- #
def phase_totals() -> Dict[str, float]:
    """Profiler wall seconds per phase, all routes / algorithms / tiers."""
    totals: Dict[str, float] = {}
    for row in profiler.stats():
        totals[row["phase"]] = totals.get(row["phase"], 0.0) + float(row["total_s"])
    return totals


def traced_pass(workload: Workload, seed: int, sizes: Sizes, smoke: bool,
                spans_path: Optional[str]) -> Dict[str, object]:
    """Per-layer metrics: untraced half, traced half, then the replays."""
    phase_wall: Dict[str, float] = {}
    schedule = generate(workload, seed, sizes)
    phase_wall["graph_gen"] = schedule.graph_gen_s
    spans = Spans()
    group = workload.burst if workload.kind == "served" else len(workload.mix)
    half = sizes.warmup_ops + max(group, (sizes.timed_ops // 2) // group * group)
    total = sizes.warmup_ops + sizes.timed_ops
    served = workload.kind == "served"

    cpu_before = _cpu_seconds()
    executor = make_executor(workload, schedule.graph, smoke)
    try:
        warmup = run_window(executor, workload, schedule, 0, sizes.warmup_ops)
        untraced = run_window(executor, workload, schedule, sizes.warmup_ops, half)
        spans.enabled = True
        profiler.clear()
        profiler.enable()
        kernels_before, structures_before = kernel_cache_stats(), structure_cache_stats()
        traced = run_window(executor, workload, schedule, half, total, spans)
        kernels_after, structures_after = kernel_cache_stats(), structure_cache_stats()
        phases = phase_totals()
        service_stats = executor.service.stats() if served else {}
        if served and not schedule.updates:
            # One publish after the window (and after the counters were
            # read) so every served workload reports what an epoch costs.
            _, took = spans.timed("server.update_graph", executor.update,
                                  one_update(seed, schedule.graph.num_vertices))
            traced.update_s.append(took)
    finally:
        profiler.disable()
        executor.close()
    cpu_after = _cpu_seconds()
    phase_wall.update(warmup=warmup.wall_s, untraced=untraced.wall_s,
                      traced=traced.wall_s)

    rows = traced.flat()
    ops = max(len(rows), 1)
    out: Dict[str, float] = {name: 0.0 for name in PER_LAYER}
    latencies = [row.latency_s for row in rows]
    if rows:
        out["client.latency_p90_ms"] = percentile(latencies, 90) * 1e3
        out["client.latency_p99_ms"] = percentile(latencies, 99) * 1e3
    out["client.sampled_edges_per_s"] = sum(r.edges for r in rows) / traced.wall_s
    served_ops = sum(w.counts.succeeded for w in (warmup, untraced, traced))
    out["process.cpu_s_per_op"] = (cpu_after - cpu_before) / max(served_ops, 1)
    out["gpusim.sim_kernel_time_s"] = sum(r.kernel_s for r in rows)
    untraced_rate = untraced.counts.succeeded / untraced.wall_s
    out["telemetry.trace_overhead"] = (len(rows) / traced.wall_s) / untraced_rate
    for phase, metric in (("gather", "gather"), ("bias", "bias"),
                          ("structure_hit", "bias"), ("select", "select"),
                          ("update", "update")):
        out[f"engine.{metric}_ms"] += phases.get(phase, 0.0) / ops * 1e3
    out["compiled.structure_build_ms"] = (
        phases.get("bias_build", 0.0) + phases.get("structure_update", 0.0)
    ) / ops * 1e3

    begin = time.perf_counter()
    leaked = list(executor.leaked)
    leaked += replay_storage(workload, schedule, seed, spans, smoke, out)
    # Distinct requests only: a repeat would hit the replayed gateway.
    replay_ops = list(dict.fromkeys(schedule.streams[0][half:total]))[:sizes.replay_ops]
    api = replay_api(schedule, replay_ops, spans)
    out["api.make_instances_us"] = api["instances"] * 1e6
    out["api.sampler_construct_us"] = api["construct"] * 1e6
    if served:
        latency, run_wall, explained = served_layers(
            workload, schedule, rows, traced.update_s, service_stats,
            replay_ops, spans, out)
    else:
        latency, run_wall = _median(latencies), sum(latencies)
        stream = schedule.streams[0]
        for name in {op.algorithm for op in stream[half:total]}:
            out[f"api.run_ms_p50.{name}"] = _median(
                [r.latency_s for r in rows if stream[r.index].algorithm == name]) * 1e3
        out["planner.plan_us"] = api["plan"] * 1e6
        out["planner.scale_plan_us"] = api["scale"] * 1e6
        out["planner.compiled_share"] = api["compiled_share"]
        out["compiled.kernel_cache_hit_rate"] = _hit_rate(kernels_before, kernels_after)
        out["compiled.structure_cache_hit_rate"] = _hit_rate(
            structures_before, structures_after)
        explained = (api["instances"] + api["construct"] + api["plan"]
                     + sum(phases.values()) / ops)
    out["ledger.unexplained_share"] = 1.0 - explained / latency if latency else 0.0
    out["engine.step_share"] = sum(phases.values()) / run_wall if run_wall else 0.0
    phase_wall["replay"] = time.perf_counter() - begin

    begin = time.perf_counter()
    checked, mismatches = verify(workload, schedule, traced, half)
    phase_wall["verify"] = time.perf_counter() - begin
    if spans_path:
        with open(spans_path, "w") as fh:
            json.dump({"workload": workload.name, "seed": seed,
                       "spans": spans.as_json()}, fh)
    return {
        "metrics": out,
        "phases": {
            "warmup": warmup.counts.as_dict(),
            "untraced": untraced.counts.as_dict(),
            "traced": traced.counts.as_dict(),
            "verify": checked.as_dict(),
        },
        "leaked_segments": leaked,
        "mismatches": mismatches,
        "errors": (warmup.errors + untraced.errors + traced.errors)[:10],
        "counts": {"ops": len(rows), "replayed": len(replay_ops),
                   "spans": len(spans.rows)},
        "phase_wall_s": phase_wall,
    }
