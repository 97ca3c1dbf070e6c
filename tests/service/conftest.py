"""Shared helpers for the service tests."""

from __future__ import annotations

import fcntl
import json
import queue
import struct
import termios
import time

import pytest


@pytest.fixture
def watch_claims():
    """Wait on the pool's hand-offs instead of polling for them.

    ``wait = watch_claims(svc)`` (install before submitting) wraps the
    pool's ``on_handoff`` hook, the one that records ``worker_claim``;
    ``wait()`` blocks until the pool has put a unit on a worker's channel
    and -- for a process worker -- the worker has read it, then returns
    that worker's pid: a kill from then on lands mid-unit.  (A worker
    killed before reading its unit loses nothing: the pool hands the unit
    to a survivor.)  ``wait.units`` maps every handed unit id to its pid.
    A hand-off that never happens fails the test with the service's
    ``diagnose()`` snapshot rather than a bare timeout.
    """

    def install(svc):
        handed: "queue.Queue[int]" = queue.Queue()
        units = {}
        on_handoff = svc._pool.on_handoff

        def hand_off(unit, pid):
            on_handoff(unit, pid)
            units[unit.unit_id] = pid
            handed.put(pid)

        svc._pool.on_handoff = hand_off

        def wait(timeout: float = 30.0) -> int:
            try:
                pid = handed.get(timeout=timeout)
            except queue.Empty:
                pytest.fail("unit was never handed out; " + _diagnosis(svc))
            deadline = time.monotonic() + timeout
            while _unread_bytes(svc, pid):
                if time.monotonic() > deadline:
                    pytest.fail("unit was never read; " + _diagnosis(svc))
                time.sleep(0.001)
            return pid

        wait.units = units
        return wait

    return install


def _unread_bytes(svc, pid) -> int:
    """Bytes the pool sent worker ``pid`` that it has not read yet
    (``SIOCOUTQ`` on the pool's end of the pipe; 0 for a thread worker)."""
    for slot in svc._pool._slots:
        if slot.pid == pid and hasattr(slot.channel, "fileno"):
            out = fcntl.ioctl(slot.channel.fileno(), termios.TIOCOUTQ,
                              b"\0" * 4)
            return struct.unpack("i", out)[0]
    return 0


def _diagnosis(svc) -> str:
    return "diagnose(): " + json.dumps(svc.diagnose(), default=str)[:6000]


@pytest.fixture
def diagnosis():
    """``diagnosis(svc)``: the ``diagnose()`` snapshot as failure text."""
    return _diagnosis
