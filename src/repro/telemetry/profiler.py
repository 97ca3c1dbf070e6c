"""Continuous phase-level profiler for the sampling hot loops.

Tracing (:mod:`repro.telemetry.trace`) answers *where a request went*;
this module answers *where a depth step spends its time*.  The engine,
the compiled kernel, the out-of-memory scheduler and the shard runtime
mark phase boundaries -- gather / bias / select / update / migrate /
reassemble -- and the profiler accumulates wall time per
``(route, algorithm, step_tier, phase)`` with per-depth totals and a
duration histogram per phase.

Design mirrors the tracer's contract:

1. **Near-zero disabled cost.**  Call sites pay one :func:`clock` call
   per depth step.  With profiling off it returns a shared no-op clock
   whose ``lap()`` does nothing -- one global check, no allocation.
2. **Lap timing partitions the step.**  A real :class:`PhaseClock`
   remembers the previous lap's timestamp; ``lap("gather")`` attributes
   the elapsed interval since then to ``gather``.  Consecutive laps
   therefore tile the instrumented region exactly, so phase totals sum
   to the loop's wall time (the basis of the within-10%-of-``execute_s``
   acceptance check).
3. **Cross-process shipping.**  Worker processes profile on behalf of
   the front-end: the service sets ``WorkUnit.profile`` when profiling
   is on, the worker enables its local profiler for the unit, and ships
   :func:`drain`'s accumulators home inside the result message, where
   :func:`ingest` merges them.

The collapsed-stack exporter writes ``route;algorithm;step_tier;phase
<microseconds>`` lines -- the format every flamegraph tool
(flamegraph.pl, speedscope, inferno) accepts.  ``python -m
repro.telemetry.profiler dump profile.json`` renders a saved profile
that way.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from contextlib import contextmanager

from repro.telemetry.metrics import Histogram

__all__ = [
    "PHASES",
    "PhaseClock",
    "PhaseStat",
    "clear",
    "clock",
    "collapsed",
    "disable",
    "drain",
    "enable",
    "enabled",
    "ingest",
    "load",
    "profiled",
    "save",
    "snapshot",
    "stats",
]

#: The phase taxonomy.  Instrumentation may only lap these names; the
#: exporter orders rows by this sequence so profiles read as the
#: pipeline executes.
PHASES: Tuple[str, ...] = (
    "gather", "bias", "bias_build", "structure_hit",
    "select", "update", "migrate", "reassemble",
)

_StatKey = Tuple[str, str, str, str]  # (route, algorithm, step_tier, phase)

_enabled = os.environ.get("REPRO_PROFILER", "") == "1"

_local = threading.local()

# Attribution for instrumented code running outside an Executor-planned
# request (e.g. the engine driven directly by a unit test).
_DEFAULT_CTX: Tuple[str, str, str] = ("direct", "unknown", "interpreted")

_STATS: Dict[_StatKey, "PhaseStat"] = {}
_create_lock = threading.Lock()


def enable() -> None:
    """Turn the profiler on process-wide."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Turn the profiler off. Accumulated stats persist until :func:`clear`."""
    global _enabled
    _enabled = False


def enabled() -> bool:
    return _enabled


class PhaseStat:
    """Accumulated wall time for one (route, algorithm, tier, phase) cell."""

    __slots__ = ("total_s", "calls", "durations", "by_depth")

    def __init__(self) -> None:
        self.total_s = 0.0
        self.calls = 0
        self.durations = Histogram()
        # depth -> [total_s, calls]; depth -1 aggregates undepthed laps
        # (reassembly, scalar OOM expansion).
        self.by_depth: Dict[int, List[float]] = {}

    def add(self, duration_s: float, depth: int) -> None:
        self.total_s += duration_s
        self.calls += 1
        self.durations.observe(duration_s)
        cell = self.by_depth.get(depth)
        if cell is None:
            self.by_depth[depth] = [duration_s, 1]
        else:
            cell[0] += duration_s
            cell[1] += 1

    def merge(self, other: "PhaseStat") -> None:
        self.total_s += other.total_s
        self.calls += other.calls
        self.durations.merge(other.durations)
        for depth, (total_s, calls) in other.by_depth.items():
            cell = self.by_depth.get(depth)
            if cell is None:
                self.by_depth[depth] = [total_s, calls]
            else:
                cell[0] += total_s
                cell[1] += calls

    # Explicit state plumbing: __slots__ classes need it for pickling
    # across the worker result pipe.
    def __getstate__(self) -> Tuple:
        return (self.total_s, self.calls, self.durations, self.by_depth)

    def __setstate__(self, state: Tuple) -> None:
        self.total_s, self.calls, self.durations, self.by_depth = state


def _stat(key: _StatKey) -> PhaseStat:
    stat = _STATS.get(key)
    if stat is None:
        with _create_lock:
            stat = _STATS.get(key)
            if stat is None:
                stat = _STATS[key] = PhaseStat()
    return stat


class _NullClock:
    """Shared no-op clock returned when profiling is off."""

    __slots__ = ()

    def lap(self, phase: str) -> "_NullClock":
        return self

    def restart(self) -> "_NullClock":
        return self


_NULL_CLOCK = _NullClock()


class PhaseClock:
    """Lap timer attributing consecutive intervals to named phases.

    Construction captures the thread's profiling context (set by the
    Executor via :func:`profiled`) and starts the clock; each ``lap``
    charges the elapsed interval since the previous lap (or construction)
    to the given phase under that context.
    """

    __slots__ = ("_ctx", "_depth", "_last")

    def __init__(self, depth: int) -> None:
        self._ctx: Tuple[str, str, str] = getattr(_local, "ctx", None) or _DEFAULT_CTX
        self._depth = depth
        self._last = time.perf_counter()

    def lap(self, phase: str) -> "PhaseClock":
        now = time.perf_counter()
        route, algorithm, step_tier = self._ctx
        _stat((route, algorithm, step_tier, phase)).add(
            now - self._last, self._depth)
        self._last = now
        return self

    def restart(self) -> "PhaseClock":
        """Reset the lap origin without charging the interval to a phase.

        Used to exclude non-pipeline work (bookkeeping between
        instrumented regions) from the profile.
        """
        self._last = time.perf_counter()
        return self


def clock(depth: int = -1):
    """A lap clock for one depth step, or the shared no-op when off."""
    if not _enabled:
        return _NULL_CLOCK
    return PhaseClock(depth)


@contextmanager
def profiled(route: str, algorithm: str, step_tier: str) -> Iterator[None]:
    """Set the thread's profiling attribution context for a block.

    The Executor wraps ``execute()`` in this so every clock minted in the
    engine / kernel / shard runtime below it lands under the plan's
    (route, algorithm, step_tier) key.  Cheap enough to run
    unconditionally: one thread-local store each way.
    """
    prev = getattr(_local, "ctx", None)
    _local.ctx = (route, algorithm, step_tier)
    try:
        yield
    finally:
        _local.ctx = prev


# --------------------------------------------------------------------- #
# Shipping and reporting
# --------------------------------------------------------------------- #
def snapshot() -> Dict[_StatKey, PhaseStat]:
    """Reference snapshot of the live accumulators (read-only use)."""
    with _create_lock:
        return dict(_STATS)


def drain() -> Dict[_StatKey, PhaseStat]:
    """Remove and return every accumulator (worker side of shipping)."""
    with _create_lock:
        out = dict(_STATS)
        _STATS.clear()
    return out


def ingest(records: Mapping[_StatKey, PhaseStat]) -> None:
    """Merge accumulators shipped from another process into this one."""
    if not records:
        return
    for key, stat in records.items():
        _stat(tuple(key)).merge(stat)


def clear() -> None:
    """Discard all accumulated profile data."""
    with _create_lock:
        _STATS.clear()


def stats() -> List[Dict[str, object]]:
    """Flat report rows, ordered by key then pipeline phase order."""
    def phase_rank(phase: str) -> int:
        try:
            return PHASES.index(phase)
        except ValueError:
            return len(PHASES)

    rows: List[Dict[str, object]] = []
    items = sorted(
        snapshot().items(),
        key=lambda kv: (kv[0][:3], phase_rank(kv[0][3])),
    )
    for (route, algorithm, step_tier, phase), stat in items:
        rows.append({
            "route": route,
            "algorithm": algorithm,
            "step_tier": step_tier,
            "phase": phase,
            "total_s": stat.total_s,
            "calls": stat.calls,
            "mean_s": stat.durations.mean,
            "p50_s": stat.durations.percentile(50.0),
            "p99_s": stat.durations.percentile(99.0),
            "by_depth": {
                str(depth): {"total_s": cell[0], "calls": int(cell[1])}
                for depth, cell in sorted(stat.by_depth.items())
            },
        })
    return rows


def total_s(route: Optional[str] = None) -> float:
    """Summed phase wall time, optionally restricted to one route."""
    return sum(
        stat.total_s for (r, _, _, _), stat in snapshot().items()
        if route is None or r == route
    )


def collapsed(rows: Optional[List[Dict[str, object]]] = None) -> str:
    """Collapsed-stack rendering (``flamegraph.pl`` input format).

    One line per profile cell: semicolon-joined frames, a space, and the
    sample weight -- here integer microseconds of wall time.  Cells that
    round to zero microseconds are dropped (flamegraph tools reject
    zero-weight lines).
    """
    lines: List[str] = []
    for row in (rows if rows is not None else stats()):
        weight_us = int(round(float(row["total_s"]) * 1e6))
        if weight_us <= 0:
            continue
        lines.append("%s;%s;%s;%s %d" % (
            row["route"], row["algorithm"], row["step_tier"],
            row["phase"], weight_us,
        ))
    return "\n".join(lines) + ("\n" if lines else "")


def save(path: str) -> None:
    """Write the current profile as JSON (input for the ``dump`` CLI)."""
    with open(path, "w") as fh:
        json.dump({"version": 1, "stats": stats()}, fh, indent=2)


def load(path: str) -> List[Dict[str, object]]:
    """Read rows previously written by :func:`save`."""
    with open(path) as fh:
        payload = json.load(fh)
    return list(payload["stats"])


def _main(argv: Optional[List[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry.profiler",
        description="Render a saved profile as collapsed stacks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    dump = sub.add_parser(
        "dump", help="print collapsed stacks (flamegraph.pl input)")
    dump.add_argument("profile", help="JSON file written by profiler.save()")
    dump.add_argument("-o", "--output", default=None,
                      help="write to a file instead of stdout")
    ns = parser.parse_args(argv)

    text = collapsed(load(ns.profile))
    if ns.output:
        with open(ns.output, "w") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(_main())
