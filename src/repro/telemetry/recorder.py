"""Flight recorder: a bounded ring buffer of operational events.

When a worker crashes or a unit times out, metrics tell you *that* it
happened and spans tell you *where the request was* -- but neither tells
you what the service was doing in the seconds before.  The flight
recorder keeps the last N structured events (admissions, sheds, cache
hits and evictions, epoch lifecycle, replan drains, worker crashes and
claims, unit timeouts, shard migrations) in memory at all times, each
correlated to the owning request's trace id, so a post-mortem needs no
reproduction: :meth:`SamplingService.diagnose` snapshots the buffer, and
the service auto-dumps it to a file the moment a crash or timeout is
detected.

The buffer is a ``collections.deque(maxlen=...)``: appends are atomic
under the GIL, so the hot path takes no lock and never blocks the
dispatcher; old events simply fall off the left end.  Recording when
disabled is a single attribute check.
"""

from __future__ import annotations

import collections
import json
import os
import time
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

__all__ = ["EVENT_KINDS", "FlightRecorder", "RecorderEvent"]

#: The event taxonomy. ``record()`` accepts any kind string (forward
#: compatibility), but everything the service emits is listed here and
#: documented in docs/telemetry.md.
EVENT_KINDS = (
    "admit",            # request admitted past the gateway
    "shed",             # request rejected by admission control
    "cache_hit",        # result served from the deterministic cache
    "cache_evict",      # LRU eviction or epoch invalidation removed entries
    "epoch_publish",    # new graph epoch published
    "epoch_retire",     # old epoch fully drained and released
    "replan_drain",     # replan() paused intake and drained in-flight work
    "worker_claim",     # the pool handed a unit to a worker
    "worker_crash",     # worker process died with units in flight
    "unit_timeout",     # unit exceeded its deadline and was failed
    "shard_migration",  # sharded run finished; walker migration totals
    "snapshot_dump",    # diagnose() snapshot auto-dumped to a file
)


@dataclass(frozen=True)
class RecorderEvent:
    """One recorded event. Plain data; ``as_dict`` is JSON-ready."""

    ts: float
    kind: str
    trace_id: Optional[str] = None
    pid: int = 0
    attrs: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {
            "ts": self.ts,
            "kind": self.kind,
            "trace_id": self.trace_id,
            "pid": self.pid,
            "attrs": dict(self.attrs),
        }


class FlightRecorder:
    """Bounded, lock-free ring buffer of :class:`RecorderEvent`."""

    def __init__(self, capacity: int = 2048, enabled: bool = True):
        if capacity <= 0:
            raise ValueError("capacity must be > 0")
        self.capacity = int(capacity)
        self.enabled = bool(enabled)
        self._events: Deque[RecorderEvent] = collections.deque(
            maxlen=self.capacity)
        self._dropped = 0

    def record(self, kind: str, trace_id: Optional[str] = None,
               **attrs: object) -> None:
        """Append one event; constant-time, no lock, never raises."""
        if not self.enabled:
            return
        if len(self._events) == self.capacity:
            self._dropped += 1
        self._events.append(RecorderEvent(
            ts=time.time(),
            kind=kind,
            trace_id=trace_id,
            pid=os.getpid(),
            attrs=attrs,
        ))

    def __len__(self) -> int:
        return len(self._events)

    @property
    def dropped(self) -> int:
        """Events pushed off the ring since construction or clear()."""
        return self._dropped

    def events(self, kind: Optional[str] = None,
               trace_id: Optional[str] = None,
               last: Optional[int] = None) -> List[RecorderEvent]:
        """Buffered events oldest-first, optionally filtered, last N."""
        out = [
            e for e in list(self._events)
            if (kind is None or e.kind == kind)
            and (trace_id is None or e.trace_id == trace_id)
        ]
        if last is not None:
            out = out[-last:]
        return out

    def counts(self) -> Dict[str, int]:
        """Event count per kind currently in the buffer."""
        out: Dict[str, int] = {}
        for event in list(self._events):
            out[event.kind] = out.get(event.kind, 0) + 1
        return out

    def snapshot(self, last: Optional[int] = None) -> List[Dict[str, object]]:
        """JSON-ready dicts of the last N events, oldest first."""
        return [e.as_dict() for e in self.events(last=last)]

    def dump(self, path: str,
             extra: Optional[Dict[str, object]] = None) -> str:
        """Write a JSON snapshot (events + optional context) to ``path``.

        Returns the path.  Parent directories are created; failures are
        the caller's problem to swallow -- the recorder itself must never
        take the service down.
        """
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        payload: Dict[str, object] = {
            "version": 1,
            "dumped_at": time.time(),
            "dropped": self._dropped,
            "events": self.snapshot(),
        }
        if extra:
            payload.update(extra)
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, default=str)
        return path

    def clear(self) -> None:
        self._events.clear()
        self._dropped = 0
