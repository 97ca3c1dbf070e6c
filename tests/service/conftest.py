"""Shared helpers for the service tests."""

from __future__ import annotations

import json
import queue
import time

import pytest


@pytest.fixture
def watch_claims():
    """Wait on the unit table's claim transition instead of polling it.

    ``wait = watch_claims(svc)`` (install before submitting) wraps
    ``UnitTable.claim``; ``wait()`` blocks until a process worker claims a
    unit and returns its pid.  A claim that never arrives fails the test
    with the service's ``diagnose()`` snapshot rather than a bare timeout.

    The tests SIGKILL that pid.  The claim reaches the front-end before the
    worker's queue feeder thread gets the GIL back (up to one switch
    interval, 5 ms) to release the result queue's cross-process write lock;
    a kill inside that window leaves the lock held and wedges every other
    worker's results -- a pool hazard (ROADMAP 6(c)), not what these tests
    are about, so ``wait()`` lets the window pass.
    """

    def install(svc):
        claimed: "queue.Queue[int]" = queue.Queue()
        table_claim = svc._units.claim

        def claim(unit_id, pid):
            unit = table_claim(unit_id, pid)
            claimed.put(pid)
            return unit

        svc._units.claim = claim

        def wait(timeout: float = 30.0) -> int:
            try:
                pid = claimed.get(timeout=timeout)
            except queue.Empty:
                pytest.fail("unit was never claimed; " + _diagnosis(svc))
            time.sleep(0.05)
            return pid

        return wait

    return install


def _diagnosis(svc) -> str:
    return "diagnose(): " + json.dumps(svc.diagnose(), default=str)[:6000]


@pytest.fixture
def diagnosis():
    """``diagnosis(svc)``: the ``diagnose()`` snapshot as failure text."""
    return _diagnosis
