"""Deterministic sample-result cache with byte-budgeted LRU eviction.

Sampling is deterministic per ``(graph, epoch, algorithm, config,
program kwargs, seeds, instance count)`` -- the counter RNG is stateless
and every coordinate it mixes is in that tuple -- so caching is *bit-exact*:
a hit returns the same samples, iteration counts and cost totals a fresh
run would produce, without dispatching any work.  Epoch retirement
(``docs/dynamic.md``) is the natural invalidation signal: when the service
releases a retired ``(graph, epoch)``, exactly that epoch's entries are
evicted; entries of still-serving epochs (including older pinned ones)
stay.

Entries store defensive copies of the sample arrays in both directions:
responses hand arrays to callers who may mutate them, and a poisoned cache
would silently break the bit-compat contract.  An entry's samples are one
:class:`~repro.api.results.SampleColumns`, so a copy is five array copies
whatever the instance count.

Thread-safety: one lock around the LRU map -- ``get``/``put`` run from the
service's submit and collector threads.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.api.results import SampleColumns

__all__ = ["CachedResult", "SampleCache", "cache_key"]

#: Fixed per-entry bookkeeping charge (key tuple, dict slots, stats dict)
#: added to the array payload when accounting an entry against the budget.
_ENTRY_OVERHEAD_BYTES = 512


def cache_key(request, epoch: int) -> Tuple:
    """The determinism key of one request against one resolved epoch.

    Everything that influences the sampled bits is here -- and nothing
    else: ``tenant`` / ``priority`` / ``request_id`` are excluded, so one
    tenant's run can serve every tenant's identical query.
    """
    return (
        request.graph,
        int(epoch),
        request.algorithm,
        request.resolve_config(),
        tuple(sorted(request.program_kwargs.items())),
        request.seeds,
        request.num_instances,
    )


@dataclass
class CachedResult:
    """One cached answer: the response payload minus per-request identity.

    ``samples`` is the columnar container exactly as a worker payload
    ships it; ``stats`` is the worker-side stats dict
    (cost totals, step tier, kernel-cache deltas) *without* the per-request
    latency annotations the collector adds.
    """

    samples: SampleColumns
    iteration_counts: List[int]
    route: str
    coalesced_with: int
    stats: Dict[str, object]
    plan: Optional[Dict[str, object]] = None
    nbytes: int = field(default=0)

    def __post_init__(self) -> None:
        if not self.nbytes:
            self.nbytes = (
                _ENTRY_OVERHEAD_BYTES
                + self.samples.nbytes
                + 8 * len(self.iteration_counts)
            )

    def copy(self) -> "CachedResult":
        """Deep copy of the array payload (defensive in both directions)."""
        return CachedResult(
            samples=self.samples.copy(),
            iteration_counts=list(self.iteration_counts),
            route=self.route,
            coalesced_with=self.coalesced_with,
            stats=dict(self.stats),
            plan=dict(self.plan) if self.plan is not None else None,
            nbytes=self.nbytes,
        )


class SampleCache:
    """Byte-budgeted LRU map from determinism keys to cached results."""

    def __init__(self, max_bytes: int):
        if max_bytes <= 0:
            raise ValueError("max_bytes must be > 0 (omit the cache to disable)")
        self.max_bytes = int(max_bytes)
        self._entries: "OrderedDict[Tuple, CachedResult]" = OrderedDict()
        self._lock = threading.Lock()
        self.current_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Tuple) -> Optional[CachedResult]:
        """LRU lookup; a hit returns a defensive copy and refreshes recency."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry.copy()

    def put(self, key: Tuple, result: CachedResult) -> None:
        """Insert (a defensive copy of) one result, evicting LRU overflow.

        A result bigger than the whole budget is not cached at all --
        admitting it would evict everything for an entry that itself gets
        evicted by the next insert.
        """
        entry = result.copy()
        if entry.nbytes > self.max_bytes:
            return
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self.current_bytes -= old.nbytes
            self._entries[key] = entry
            self.current_bytes += entry.nbytes
            while self.current_bytes > self.max_bytes:
                _, evicted = self._entries.popitem(last=False)
                self.current_bytes -= evicted.nbytes
                self.evictions += 1

    def invalidate_epoch(self, graph: str, epoch: int) -> int:
        """Evict exactly one retired ``(graph, epoch)``'s entries."""
        with self._lock:
            doomed = [
                key for key in self._entries
                if key[0] == graph and key[1] == int(epoch)
            ]
            for key in doomed:
                self.current_bytes -= self._entries.pop(key).nbytes
            self.invalidations += len(doomed)
            return len(doomed)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.current_bytes = 0

    def keys(self) -> List[Tuple]:
        """Current keys, LRU-first (tests and debugging)."""
        with self._lock:
            return list(self._entries.keys())

    def stats(self) -> Dict[str, object]:
        with self._lock:
            lookups = self.hits + self.misses
            return {
                "entries": len(self._entries),
                "current_bytes": self.current_bytes,
                "max_bytes": self.max_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": (self.hits / lookups) if lookups else 0.0,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
            }
