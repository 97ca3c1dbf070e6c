"""Process-local counters and fixed-bucket histograms.

Hot-path friendly: a :class:`Counter` increment is one integer add on a
pre-resolved object, a :class:`Histogram` observation is one bisect plus
a few scalar updates -- no locks (single-interpreter atomicity is enough:
writers only add, readers snapshot). Registries from worker processes can
be merged into the front-end registry because counters add and histograms
share fixed bucket bounds.

Percentiles are estimated from the fixed buckets by linear interpolation
inside the bucket holding the requested rank, clamped to the observed
min/max -- accurate to bucket resolution (successive bounds differ by
2x by default), which is plenty for p50/p99 latency reporting.
"""

from __future__ import annotations

import bisect
import math
import threading
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

# Geometric latency buckets: 1 microsecond .. ~67 seconds, doubling.
DEFAULT_BUCKETS: Tuple[float, ...] = tuple(1e-6 * 2.0 ** i for i in range(27))

_LabelKey = Tuple[str, Tuple[Tuple[str, str], ...]]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def merge(self, other: "Counter") -> None:
        self.value += other.value


class Gauge:
    """A value that can go up and down (queue depth, occupancy, levels).

    Merging sums values: a gauge split across worker registries (e.g.
    per-worker in-flight units) reads as the cluster total after merge.
    """

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def merge(self, other: "Gauge") -> None:
        self.value += other.value


class Histogram:
    """Fixed-bucket histogram of non-negative samples (latencies, sizes)."""

    __slots__ = ("bounds", "bucket_counts", "count", "total", "min", "max")

    def __init__(self, bounds: Optional[Iterable[float]] = None) -> None:
        self.bounds: Tuple[float, ...] = (
            tuple(float(b) for b in bounds) if bounds is not None
            else DEFAULT_BUCKETS
        )
        self.bucket_counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Estimate the q-th percentile (q in [0, 100])."""
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(q / 100.0 * self.count))
        cumulative = 0
        for i, bucket_count in enumerate(self.bucket_counts):
            if not bucket_count:
                continue
            if cumulative + bucket_count >= rank:
                lo = self.bounds[i - 1] if i > 0 else 0.0
                hi = self.bounds[i] if i < len(self.bounds) else self.max
                fraction = (rank - cumulative) / bucket_count
                estimate = lo + (hi - lo) * fraction
                return min(max(estimate, self.min), self.max)
            cumulative += bucket_count
        return self.max

    def merge(self, other: "Histogram") -> None:
        if other.bounds != self.bounds:
            raise ValueError("cannot merge histograms with different buckets")
        for i, c in enumerate(other.bucket_counts):
            self.bucket_counts[i] += c
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    def summary(self) -> Dict[str, float]:
        if self.count == 0:
            return {"count": 0, "mean_s": 0.0, "min_s": 0.0, "max_s": 0.0,
                    "p50_s": 0.0, "p99_s": 0.0}
        return {
            "count": self.count,
            "mean_s": self.mean,
            "min_s": self.min,
            "max_s": self.max,
            "p50_s": self.percentile(50.0),
            "p99_s": self.percentile(99.0),
        }


def _label_key(name: str, labels: Dict[str, object]) -> _LabelKey:
    return name, tuple(sorted((k, str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format.

    The spec requires ``\\`` -> ``\\\\``, ``"`` -> ``\\"`` and a literal
    newline -> ``\\n`` inside quoted label values; anything else passes
    through verbatim.  Backslash must be first or it would re-escape the
    escapes it just introduced.
    """
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_labels(labels: Tuple[Tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    return "{" + ",".join(
        '%s="%s"' % (k, _escape_label_value(v)) for k, v in labels
    ) + "}"


class MetricsRegistry:
    """Named counters and histograms, addressed by (name, labels).

    ``counter()`` / ``histogram()`` resolve (and lazily create) the
    instrument; hold the returned object to skip the dict lookup on
    genuinely hot paths.  Creation is thread-safe: the submit, dispatcher
    and collector threads all create instruments lazily, and an unlocked
    check-then-insert could race two objects for one key -- the loser's
    increments would be silently dropped.  The hot path (instrument
    already exists) stays a lock-free dict read.
    """

    def __init__(self) -> None:
        self._counters: Dict[_LabelKey, Counter] = {}
        self._gauges: Dict[_LabelKey, Gauge] = {}
        self._histograms: Dict[_LabelKey, Histogram] = {}
        self._create_lock = threading.Lock()

    def counter(self, name: str, **labels: object) -> Counter:
        key = _label_key(name, labels)
        instrument = self._counters.get(key)
        if instrument is None:
            with self._create_lock:
                instrument = self._counters.get(key)
                if instrument is None:
                    instrument = self._counters[key] = Counter()
        return instrument

    def gauge(self, name: str, **labels: object) -> Gauge:
        key = _label_key(name, labels)
        instrument = self._gauges.get(key)
        if instrument is None:
            with self._create_lock:
                instrument = self._gauges.get(key)
                if instrument is None:
                    instrument = self._gauges[key] = Gauge()
        return instrument

    def histogram(self, name: str, buckets: Optional[Iterable[float]] = None,
                  **labels: object) -> Histogram:
        key = _label_key(name, labels)
        instrument = self._histograms.get(key)
        if instrument is None:
            with self._create_lock:
                instrument = self._histograms.get(key)
                if instrument is None:
                    instrument = self._histograms[key] = Histogram(buckets)
        return instrument

    def find_counters(self, name: str) -> List[Tuple[Dict[str, str], Counter]]:
        """Every counter registered under ``name``, with its label dict."""
        with self._create_lock:
            items = sorted(self._counters.items())
        return [
            (dict(labels), counter)
            for (metric, labels), counter in items
            if metric == name
        ]

    def find_gauges(self, name: str) -> List[Tuple[Dict[str, str], Gauge]]:
        """Every gauge registered under ``name``, with its label dict."""
        with self._create_lock:
            items = sorted(self._gauges.items())
        return [
            (dict(labels), gauge)
            for (metric, labels), gauge in items
            if metric == name
        ]

    def find_histograms(
        self, name: str
    ) -> List[Tuple[Dict[str, str], Histogram]]:
        """Every histogram registered under ``name``, with its label dict."""
        with self._create_lock:
            items = sorted(self._histograms.items())
        return [
            (dict(labels), histogram)
            for (metric, labels), histogram in items
            if metric == name
        ]

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry (e.g. shipped from a worker) into this one."""
        with self._create_lock:
            for (name, labels), counter in other._counters.items():
                self._counters.setdefault((name, labels), Counter()).merge(counter)
            for (name, labels), gauge in other._gauges.items():
                self._gauges.setdefault((name, labels), Gauge()).merge(gauge)
            for (name, labels), histogram in other._histograms.items():
                mine = self._histograms.get((name, labels))
                if mine is None:
                    mine = self._histograms[(name, labels)] = Histogram(histogram.bounds)
                mine.merge(histogram)

    def snapshot(self) -> Dict[str, object]:
        """Flat dict: counters -> int, histograms -> summary dicts."""
        out: Dict[str, object] = {}
        # Freeze the key sets under the lock: a reader snapshotting while
        # another thread creates an instrument must not see a dict resize.
        with self._create_lock:
            counters = sorted(self._counters.items())
            gauges = sorted(self._gauges.items())
            histograms = sorted(self._histograms.items())
        for (name, labels), counter in counters:
            out[name + _format_labels(labels)] = counter.value
        for (name, labels), gauge in gauges:
            out[name + _format_labels(labels)] = gauge.value
        for (name, labels), histogram in histograms:
            out[name + _format_labels(labels)] = histogram.summary()
        return out

    def render_prometheus(self, prefix: str = "repro_") -> str:
        """Prometheus text exposition format (counters + histograms)."""
        lines: List[str] = []
        with self._create_lock:
            counter_items = sorted(self._counters.items())
            gauge_items = sorted(self._gauges.items())
            histogram_items = sorted(self._histograms.items())
        for (name, labels), counter in counter_items:
            full = prefix + name
            lines.append("# TYPE %s counter" % full)
            lines.append("%s%s %d" % (full, _format_labels(labels), counter.value))
        for (name, labels), gauge in gauge_items:
            full = prefix + name
            lines.append("# TYPE %s gauge" % full)
            lines.append("%s%s %g" % (full, _format_labels(labels), gauge.value))
        for (name, labels), histogram in histogram_items:
            full = prefix + name
            lines.append("# TYPE %s histogram" % full)
            cumulative = 0
            for bound, bucket_count in zip(histogram.bounds,
                                           histogram.bucket_counts):
                cumulative += bucket_count
                le = dict(labels)
                le["le"] = "%g" % bound
                lines.append("%s_bucket%s %d" % (
                    full, _format_labels(tuple(sorted(le.items()))), cumulative))
            inf_labels = dict(labels)
            inf_labels["le"] = "+Inf"
            lines.append("%s_bucket%s %d" % (
                full, _format_labels(tuple(sorted(inf_labels.items()))),
                histogram.count))
            lines.append("%s_sum%s %g" % (full, _format_labels(labels),
                                          histogram.total))
            lines.append("%s_count%s %d" % (full, _format_labels(labels),
                                            histogram.count))
        return "\n".join(lines) + ("\n" if lines else "")

    def clear(self) -> None:
        with self._create_lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
