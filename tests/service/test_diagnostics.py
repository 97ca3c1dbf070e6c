"""Operational diagnostics: diagnose(), health(), auto-dumps, profiler.

The observability tier's service-level contract: the flight recorder sees
the request lifecycle, ``diagnose()`` returns a complete JSON-ready
snapshot, ``health()`` tracks worker loss, a SIGKILLed worker leaves a
post-mortem dump on disk naming the victim trace, and the continuous
profiler's phase totals account for the execute wall of a loop-dominated
request to within 10%.
"""

import glob
import json
import os
import signal
import time

import numpy as np
import pytest

from repro import telemetry as tel
from repro.algorithms.registry import get_algorithm
from repro.api.requests import SampleRequest
from repro.api.sampler import GraphSampler
from repro.graph import ring_graph
from repro.graph.generators import powerlaw_graph
from repro.service import (
    SamplingService,
    ServiceError,
    SharedGraphStore,
    leaked_segments,
)
from repro.telemetry import profiler


@pytest.fixture()
def prof():
    """Profiler enabled with empty accumulators; fully restored afterwards."""
    was_enabled = profiler.enabled()
    profiler.clear()
    profiler.enable()
    yield profiler
    if not was_enabled:
        profiler.disable()
    profiler.clear()


@pytest.fixture()
def tracing():
    """Span tracing on (so service requests mint trace ids); restored after."""
    was_enabled = tel.enabled()
    tel.clear()
    tel.enable()
    yield tel
    if not was_enabled:
        tel.disable()
    tel.clear()


def _thread_service(**kwargs):
    kwargs.setdefault("num_workers", 1)
    kwargs.setdefault("mode", "thread")
    kwargs.setdefault("batch_window_s", 0.0)
    kwargs.setdefault("max_batch_requests", 1)
    kwargs.setdefault("memory_budget_bytes", None)
    return SamplingService(**kwargs)


def _request(seeds=(0, 1, 2, 3), **overrides):
    overrides.setdefault("depth", 4)
    overrides.setdefault("seed", 7)
    return SampleRequest(graph="g", algorithm="deepwalk", seeds=tuple(seeds),
                         config_overrides=overrides)


class TestDiagnoseThreadMode:
    def test_snapshot_structure_after_traffic(self):
        with _thread_service() as svc:
            svc.load_graph("g", ring_graph(64))
            for rank in range(3):
                svc.submit(_request(seeds=(rank, rank + 1))).result(60)
            diag = svc.diagnose()

            for key in ("generated_at", "events", "event_counts", "queue",
                        "workers", "store", "result_cache", "tenants",
                        "stats"):
                assert key in diag, key
            # The recorder saw the lifecycle: one publish, every admit.
            assert diag["event_counts"]["epoch_publish"] >= 1
            assert diag["event_counts"]["admit"] >= 3
            assert diag["events_dropped"] == 0
            # Drained service: nothing pending in any lane.
            assert diag["queue"]["pending_requests"] == 0
            assert diag["queue"]["lanes"] == {}
            workers = diag["workers"]
            assert workers["mode"] == "thread"
            assert workers["num_workers"] == 1
            assert workers["alive"] == 1
            assert workers["dead_pids"] == []
            # The published graph shows up in the store census with bytes.
            assert "g" in diag["store"]["graphs"]
            assert diag["store"]["total_bytes"] > 0
            assert diag["stats"]["requests_completed"] == 3
            # The whole snapshot is JSON-serialisable as promised.
            assert json.loads(json.dumps(diag, default=str))

    def test_cache_hit_is_recorded(self):
        with _thread_service() as svc:
            svc.load_graph("g", ring_graph(64))
            svc.submit(_request()).result(60)
            svc.submit(_request()).result(60)  # identical: served from cache
            counts = svc.recorder.counts()
            assert counts.get("cache_hit", 0) >= 1

    def test_healthy_service_reports_ok(self):
        with _thread_service() as svc:
            svc.load_graph("g", ring_graph(64))
            svc.submit(_request()).result(60)
            verdict = svc.health()
            assert verdict["status"] == "ok"
            assert verdict["reasons"] == []
            assert verdict["signals"]["workers_alive"] == 1
            assert verdict["routes"]["in_memory"]["window_violations"] == 0

    def test_utilization_counts_workers_holding_a_unit(self, watch_claims):
        with _thread_service() as svc:
            svc.load_graph("g", ring_graph(64))
            idle = svc.diagnose()["workers"]
            assert idle["utilization"] == 0.0
            assert idle["claimed_units"] == {}
            handed_to = watch_claims(svc)
            # About a second of walking pins the single worker.
            future = svc.submit(SampleRequest(
                graph="g", algorithm="simple_random_walk", seeds=(0, 1),
                config_overrides={"depth": 10_000, "seed": 1},
            ))
            pid = handed_to()
            busy = svc.diagnose()["workers"]
            assert busy["utilization"] == 1.0
            assert list(busy["claimed_units"].values()) == [pid]
            # The pool frees the worker before the answer is demultiplexed.
            assert future.result(timeout=60).ok
            done = svc.diagnose()["workers"]
            assert done["utilization"] == 0.0
            assert done["claimed_units"] == {}

    def test_monitor_thread_populates_load_samples(self):
        with _thread_service() as svc:
            svc.load_graph("g", ring_graph(64))
            svc.submit(_request()).result(60)
            deadline = time.time() + 10
            while len(svc.load_samples()) < 2 and time.time() < deadline:
                time.sleep(0.05)
            samples = svc.load_samples()
            assert len(samples) >= 2
            ts, name, series = samples[0]
            assert ts > 0
            assert name in ("service_load", "result_cache_bytes")
            assert all(isinstance(v, float) for v in series.values())

    def test_metrics_text_exposes_operational_gauges(self):
        with _thread_service() as svc:
            svc.load_graph("g", ring_graph(64))
            svc.submit(_request()).result(60)
            text = svc.metrics_text()
            assert "# TYPE repro_queue_depth gauge" in text
            assert "repro_workers_alive 1" in text
            assert "repro_health_status 0" in text
            assert "repro_recorder_events" in text
            assert "repro_store_bytes" in text
            assert 'repro_slo_burn_rate{route="in_memory"} 0' in text


class TestShardedRouteDiagnostics:
    def test_diagnose_and_health_cover_the_sharded_route(self):
        big = powerlaw_graph(3000, 8.0, seed=5)
        svc = SamplingService(
            num_workers=2, mode="thread",
            memory_budget_bytes=big.nbytes // 3, cluster_shards=3,
        )
        try:
            assert svc.load_graph("g", big) == "sharded"
            response = svc.submit(SampleRequest(
                graph="g", algorithm="deepwalk", seeds=tuple(range(10)),
                config_overrides={"depth": 4, "seed": 3},
            )).result(120)
            assert response.route == "sharded"
            diag = svc.diagnose()
            assert diag["event_counts"]["admit"] >= 1
            # Walkers crossing shard boundaries leave migration events.
            migrations = int(response.stats.get("migrations", 0))
            if migrations:
                assert diag["event_counts"]["shard_migration"] >= 1
            assert svc.health()["status"] == "ok"
            assert "sharded" in {
                r for r in svc.health()["routes"]
            } or response.stats["latency_s"] >= 0
        finally:
            svc.shutdown()


class TestProfilerAccounting:
    def test_phase_totals_account_for_execute_wall(self, prof):
        """Phase laps must explain a loop-dominated request's execute_s.

        The workload is sized so the instrumented depth loop dominates:
        a powerlaw graph where walks survive to full depth, few instances
        (per-instance assembly is unprofiled fixed cost) but many seeds
        and a deep walk.  Three attempts absorb scheduler noise.
        """
        graph = powerlaw_graph(20_000, avg_degree=8, seed=1)
        with _thread_service(cache_bytes=None) as svc:
            svc.load_graph("g", graph)
            # Warm-up: kernel specialisation compiles outside the timed run.
            svc.submit(SampleRequest(
                graph="g", algorithm="deepwalk", seeds=tuple(range(64)),
                config_overrides={"depth": 8, "seed": 1},
            )).result(60)
            best_gap = 1.0
            for attempt in range(3):
                prof.clear()
                response = svc.submit(SampleRequest(
                    graph="g", algorithm="deepwalk",
                    seeds=tuple(range(8000)), num_instances=2,
                    config_overrides={"depth": 128, "seed": attempt + 2},
                )).result(120)
                execute_s = response.stats["execute_s"]
                total = prof.total_s()
                # Laps tile sub-intervals of execution: totals never exceed
                # the wall they are carved from.
                assert total <= execute_s * 1.05
                best_gap = min(best_gap, abs(execute_s - total) / execute_s)
                if best_gap <= 0.10:
                    break
            assert best_gap <= 0.10, (
                f"profiler explains only {1 - best_gap:.0%} of execute_s"
            )
            rows = prof.stats()
            assert {r["route"] for r in rows} == {"in_memory"}
            assert "gather" in {r["phase"] for r in rows}

    def test_profiled_service_run_is_bit_identical(self, prof):
        graph = ring_graph(64)
        info = get_algorithm("deepwalk")
        reference = GraphSampler(
            graph, info.program_factory(), info.config_factory(depth=4, seed=7)
        ).run([0, 1, 2, 3])
        with _thread_service() as svc:
            svc.load_graph("g", graph)
            response = svc.submit(_request()).result(60)
        assert prof.stats(), "enabled profiler recorded nothing"
        for ref, got in zip(reference.samples, response.samples):
            assert np.array_equal(ref.edges, got.edges)
            assert np.array_equal(ref.seeds, got.seeds)

    def test_process_workers_ship_phase_stats_home(self, prof):
        store = SharedGraphStore(prefix="diagship")
        svc = SamplingService(num_workers=1, mode="process",
                              batch_window_s=0.0, max_batch_requests=1,
                              memory_budget_bytes=None, store=store)
        try:
            svc.load_graph("g", ring_graph(64))
            svc.submit(_request()).result(120)
            rows = prof.stats()
            assert rows, "worker-side phase stats were not ingested"
            assert any(r["total_s"] > 0 for r in rows)
        finally:
            svc.shutdown()
            store.close()
        assert leaked_segments("diagship") == []


class TestCrashDiagnostics:
    @pytest.mark.parametrize("dump_target", ["directory", "regular_file"])
    def test_killed_worker_leaves_a_complete_post_mortem(self, tracing,
                                                         tmp_path,
                                                         watch_claims,
                                                         dump_target):
        """SIGKILL a claimed worker: events + auto-dumped snapshot appear.

        Mirrors the crash-regression scenario with diagnostics on: the
        doomed unit's claim and crash are in the flight recorder, and the
        auto-dump on disk names the victim's trace id and embeds a full
        service snapshot taken at reap time.  A ``diagnostics_dir`` that is
        a regular file cannot take the dump: the unit still fails
        transiently, the survivor still answers and the collector lives.
        """
        prefix = "diagcrash"
        dump_dir = tmp_path
        if dump_target == "regular_file":
            dump_dir = tmp_path / "not_a_directory"
            dump_dir.write_text("occupied")
        store = SharedGraphStore(prefix=prefix)
        svc = SamplingService(num_workers=2, mode="process",
                              batch_window_s=0.0, max_batch_requests=1,
                              memory_budget_bytes=None, store=store,
                              unit_timeout_s=150.0,
                              diagnostics_dir=str(dump_dir))
        try:
            svc.load_graph("g", ring_graph(64))
            claimed_by = watch_claims(svc)
            doomed = svc.submit(SampleRequest(
                graph="g", algorithm="simple_random_walk",
                seeds=tuple(range(64)), num_instances=5000,
                config_overrides={"depth": 5000, "seed": 1},
            ))
            doomed_trace = svc._requests.records()[0].trace_id
            assert doomed_trace is not None
            victim = claimed_by()

            survivor = svc.submit(_request())
            os.kill(victim, signal.SIGKILL)

            with pytest.raises(ServiceError) as lost:
                doomed.result(timeout=120)
            assert lost.value.transient
            assert survivor.result(timeout=120).ok

            counts = svc.recorder.counts()
            assert counts.get("worker_claim", 0) >= 1
            assert counts.get("worker_crash", 0) >= 1
            assert counts.get("snapshot_dump", 0) >= 1
            crash_events = svc.recorder.events(kind="worker_crash")
            assert any(e.trace_id == doomed_trace for e in crash_events)
            if dump_target == "regular_file":
                # The dump failed and was swallowed: nothing written, the
                # file untouched, the collector still answering.
                assert svc._collector.is_alive()
                assert glob.glob(str(tmp_path / "**" / "*.json"),
                                 recursive=True) == []
                assert dump_dir.read_text() == "occupied"
                assert svc.submit(_request()).result(timeout=120).ok
            else:
                dumps = glob.glob(
                    str(tmp_path / "diagnostics-worker_crash-unit*.json"))
                assert len(dumps) == 1
                payload = json.loads(open(dumps[0]).read())
                failure = payload["failure"]
                assert failure["reason"] == "worker_crash"
                assert doomed_trace in failure["trace_ids"]
                assert failure["error"]
                # The embedded snapshot is the full diagnose() view at reap
                # time: the crash event is already in it, the victim is dead.
                snapshot = payload["service"]
                assert snapshot["event_counts"]["worker_crash"] >= 1
                assert victim in snapshot["workers"]["dead_pids"]
                kinds = {e["kind"] for e in payload["events"]}
                assert "worker_claim" in kinds
                assert "worker_crash" in kinds

            # One worker down, one alive: health degrades with a reason.
            verdict = svc.health()
            assert verdict["status"] == "degraded"
            assert any(r["code"] == "dead_workers" for r in verdict["reasons"])
        finally:
            svc.shutdown()
            store.close()
        assert leaked_segments(prefix) == []
