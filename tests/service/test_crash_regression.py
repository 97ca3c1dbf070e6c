"""Crash regression: a killed worker loses only its own unit.

A process-mode worker is SIGKILLed mid-unit while more units wait behind
it, idle on its task pipe, or right after it ships a result.  The
survivors must complete every remaining unit, only a unit the dead worker
held may fail -- with a :class:`ServiceError`, not a hang -- and the
shared-memory leak audit must come back clean afterwards.
"""

import os
import signal

import numpy as np
import pytest

from repro.algorithms.registry import ALGORITHM_REGISTRY
from repro.api.requests import SampleRequest
from repro.api.sampler import GraphSampler
from repro.graph import ring_graph
from repro.service import (
    SamplingService,
    ServiceError,
    SharedGraphStore,
    leaked_segments,
)
from repro.service.workers import WorkerLost, WorkerPool, WorkUnit


def test_survivors_complete_remaining_units_after_kill(watch_claims):
    prefix = "crashreg"
    store = SharedGraphStore(prefix=prefix)
    graph = ring_graph(64)
    svc = SamplingService(num_workers=2, mode="process",
                          batch_window_s=0.0, max_batch_requests=1,
                          memory_budget_bytes=None, store=store,
                          unit_timeout_s=150.0)
    try:
        svc.load_graph("g", graph)
        claimed_by = watch_claims(svc)

        # A unit far too large to finish before the signal lands; it pins
        # its worker while the remaining units queue up behind it.
        doomed = svc.submit(SampleRequest(
            graph="g", algorithm="simple_random_walk", seeds=tuple(range(64)),
            num_instances=5000, config_overrides={"depth": 5000, "seed": 1},
        ))
        victim = claimed_by()

        # The remaining work, submitted before the crash.
        survivors = [
            svc.submit(SampleRequest(
                graph="g", algorithm="deepwalk", seeds=(rank, rank + 1),
                config_overrides={"depth": 4, "seed": 7},
            ))
            for rank in range(5)
        ]

        os.kill(victim, signal.SIGKILL)

        with pytest.raises(ServiceError):
            doomed.result(timeout=120)

        # Every remaining unit completes on the surviving worker, with
        # results bit-identical to standalone runs.
        info = ALGORITHM_REGISTRY["deepwalk"]
        config = info.config_factory(depth=4, seed=7)
        for rank, future in enumerate(survivors):
            response = future.result(timeout=120)
            assert response.ok
            ref = GraphSampler(graph, info.program_factory(), config).run(
                [rank, rank + 1]
            )
            for a, b in zip(ref.samples, response.samples):
                assert np.array_equal(a.edges, b.edges)

        snap = svc.stats.snapshot()
        assert snap["requests_completed"] == 5
        assert snap["requests_failed"] == 1
    finally:
        svc.shutdown()
        store.close()

    # The /dev/shm leak audit: nothing with the store's prefix survives,
    # even though a worker died while attached to the segments.
    assert leaked_segments(prefix) == []


def _walk(rank, depth=4):
    return SampleRequest(
        graph="g", algorithm="deepwalk", seeds=(rank, rank + 1),
        config_overrides={"depth": depth, "seed": 7},
    )


def _service(prefix):
    store = SharedGraphStore(prefix=prefix)
    svc = SamplingService(num_workers=2, mode="process",
                          batch_window_s=0.0, max_batch_requests=1,
                          memory_budget_bytes=None, store=store,
                          unit_timeout_s=150.0)
    svc.load_graph("g", ring_graph(64))
    return store, svc


def test_idle_worker_killed_on_its_task_pipe(watch_claims):
    """Killing a worker blocked on its task channel costs no unit: every
    later request is served by the survivor within the client timeout."""
    prefix = "crashidle"
    store, svc = _service(prefix)
    try:
        handed_to = watch_claims(svc)
        # Warm both workers: the deeper walk keeps the first busy while the
        # second is handed the other unit.
        warm = [svc.submit(_walk(0, depth=2000)), svc.submit(_walk(1))]
        pids = {handed_to(), handed_to()}
        assert len(pids) == 2
        for future in warm:
            assert future.result(timeout=60).ok

        victim = min(pids)
        os.kill(victim, signal.SIGKILL)
        futures = [svc.submit(_walk(rank)) for rank in range(3)]
        for future in futures:
            assert future.result(timeout=8).ok
        assert svc.stats.snapshot()["requests_failed"] == 0
        assert victim in svc.diagnose()["workers"]["dead_pids"]
    finally:
        svc.shutdown()
        store.close()
    assert leaked_segments(prefix) == []


def test_worker_killed_right_after_shipping_a_result(watch_claims):
    """The kill lands the moment the front-end has a worker's result, with
    no grace period: that result and the other worker's still arrive."""
    prefix = "crashship"
    store, svc = _service(prefix)
    try:
        handed_to = watch_claims(svc)
        killed = []
        finish = svc._finish_unit

        def finish_after_kill(result):
            pid = handed_to.units.get(result.unit_id)
            if not killed and pid not in (None, busy):
                os.kill(pid, signal.SIGKILL)
                killed.append(pid)
            finish(result)

        svc._finish_unit = finish_after_kill
        # About a second of walking on one worker, a short walk on the other.
        long_walk = svc.submit(SampleRequest(
            graph="g", algorithm="simple_random_walk", seeds=tuple(range(8)),
            config_overrides={"depth": 10_000, "seed": 1},
        ))
        busy = handed_to()
        short_walk = svc.submit(_walk(0))
        assert handed_to() != busy

        assert short_walk.result(timeout=60).ok
        assert killed, "the short walk's worker was never killed"
        assert long_walk.result(timeout=60).ok
        for future in [svc.submit(_walk(rank)) for rank in range(1, 3)]:
            assert future.result(timeout=60).ok
        assert svc.stats.snapshot()["requests_failed"] == 0
        assert svc.diagnose()["workers"]["dead_pids"] == killed
    finally:
        svc.shutdown()
        store.close()
    assert leaked_segments(prefix) == []


class _KillOnLoad:
    """Unpickles as ``os.kill(pid, SIGKILL)``: the worker that reads a unit
    carrying one dies holding it."""

    def __init__(self, pid):
        self.pid = pid

    def __reduce__(self):
        return os.kill, (self.pid, signal.SIGKILL)


def _unit(unit_id, *extra):
    # No worker runs these units to the end, so no graph stands behind them.
    return WorkUnit(unit_id=unit_id, handle=None, algorithm="deepwalk",
                    config=None, program_kwargs=extra, requests=())


def test_pool_reports_held_then_pending_units_lost():
    """The one worker dies holding the first unit; the second was never
    sent (one unit per worker).  The pool reports each lost exactly once,
    and a unit submitted to the dead pool the same way."""
    pool = WorkerPool(1, mode="process")
    try:
        pid = pool._slots[0].worker.pid
        pool.submit(_unit(1, _KillOnLoad(pid)))
        pool.submit(_unit(2))
        assert pool.census()["claimed_units"] == {"1": pid}
        assert [unit.unit_id for unit, _ in pool._pending] == [2]

        # A clean EOF, not a reset: nothing but unit 1 reached the pipe.
        assert pool.next_result(timeout=30) == WorkerLost(pid, (1,))
        assert pool.next_result(timeout=10) == WorkerLost(0, (2,))
        assert pool.census() == {"alive": 0, "dead_pids": [pid],
                                 "claimed_units": {}}
        pool.submit(_unit(3))
        assert pool.next_result(timeout=10) == WorkerLost(0, (3,))
    finally:
        pool.shutdown()


@pytest.mark.parametrize("unread_on", ["send", "read"])
def test_unit_a_dead_worker_never_read_goes_to_the_survivor(unread_on):
    """A worker killed before it read its unit loses nothing: the pool sees
    that on the send (``EPIPE``, the worker already gone) or on the read
    (``ECONNRESET``, it died with the unit unread) and a survivor runs it."""
    pool = WorkerPool(2, mode="process")
    try:
        victim, survivor = (slot.worker for slot in pool._slots)
        if unread_on == "send":
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=10)  # dead and its end closed; EOF unread
            pool.submit(_unit(1))
        else:
            os.kill(victim.pid, signal.SIGSTOP)
            pool.submit(_unit(1))  # into the stopped victim's pipe
            assert pool.census()["claimed_units"] == {"1": victim.pid}
            os.kill(victim.pid, signal.SIGKILL)
            assert pool.next_result(timeout=10) == WorkerLost(victim.pid, ())
        assert pool.census() == {"alive": 1, "dead_pids": [victim.pid],
                                 "claimed_units": {"1": survivor.pid}}
        # The survivor runs the unit (it fails: no graph behind it).
        result = pool.next_result(timeout=30)
        assert result.unit_id == 1 and result.error is not None
    finally:
        pool.shutdown()


@pytest.mark.parametrize("mode", ["thread", "process"])
def test_a_shut_down_pool_says_so(mode):
    """``next_result`` on a shut-down pool raises ``EOFError`` rather than
    timing out forever: the collector returns on it."""
    pool = WorkerPool(1, mode=mode, resolve_graph=lambda handle: None)
    pool.shutdown()
    with pytest.raises(EOFError):
        pool.next_result(timeout=0.01)
