"""Per-graph sampling-structure cache for the compiled tier.

C-SAW's biased walks spend most of every depth step rebuilding inverse-
transform (CTPS) prefix tables over the frontier's neighbor pools --
tables that depend only on the graph, never on the step.  This module
caches them graph-wide, keyed by graph identity:

* ``weight_or_degree`` (the one structure kind) -- one segmented
  Kogge-Stone prefix over every adjacency row (the concatenation of every
  vertex's CTPS), wrapped in a zero-copy
  :class:`~repro.selection.segmented.SegmentedCTPS` view whose offsets *are*
  ``row_ptr``, so the compiled walk kernel can binary-search any frontier's
  pools without materialising or rescanning them;
* per-``(p, q)`` node2vec prefix rows (:class:`Node2VecPrefixTable`), hung
  off the same entry and filled by the walk kernel as walkers traverse
  edges.

The fused walk kernel is the only reader; the engine evaluates its biases
per step.

Bit-compatibility: the segmented scan's arithmetic is per-segment (bucketed
doubling gives every segment its own step schedule, and the integer fast
path is exact below 2**53), so a row's cached prefix values are bitwise
identical to the per-step scan over the same pools.  Cached selection
therefore draws the same indices as the rebuild-every-step kernel, and the
kernel charges the cost model the same closed forms either way.

Lifecycle: entries evict when their graph is garbage-collected, when the
service retires the owning epoch (:func:`evict_graph`), or explicitly
(:func:`clear_structure_cache`).  A mutated graph is a new snapshot
(:meth:`~repro.graph.delta.DeltaGraph.to_csr`), so its structures build
lazily on first use like any other graph's.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, field
from typing import Dict, Optional, Set

import numpy as np

from repro.compiled.step_engine import kind_biases
from repro.graph.csr import CSRGraph
from repro.selection.segmented import (
    SegmentedCTPS,
    segment_positive_counts,
    segmented_kogge_stone_inclusive,
)
from repro.telemetry import profiler as _profiler

__all__ = [
    "STRUCTURE_KINDS",
    "GraphStructures",
    "Node2VecPrefixTable",
    "clear_structure_cache",
    "evict_graph",
    "get_structures",
    "structure_cache_stats",
]

#: Bias kinds that carry a cacheable per-graph structure.  Uniform kinds
#: need none; node2vec's walk kernel reads the weight/degree entry (its
#: positivity counts) and fills that entry's per-``(p, q)`` prefix rows.
STRUCTURE_KINDS = ("weight_or_degree",)


class Node2VecPrefixTable:
    """Per-``(p, q)`` cache of second-order CTPS prefix rows.

    A node2vec transition's bias vector depends only on the traversed edge
    ``prev -> vertex`` (given the graph and ``(p, q)``), so each row's
    unnormalised prefix is built once -- by the same segmented scan the
    rebuild-every-step path runs -- and reused across depth steps, walkers
    and requests.  Rows live back to back in one growing float64 buffer;
    ``table`` maps the edge key (``prev * V + vertex``, or ``-(vertex+1)``
    for the first, prev-less step) to ``(buffer offset, total)``.

    When a kernel's missing rows would take the buffer past ``max_floats``
    the kernel clears the table wholesale (epoch-style) *before* it serves
    any hit, then rebuilds every row it needs -- no row a kernel reads is
    ever overwritten under it, so the cache is an accelerator, never a
    correctness dependency.
    """

    def __init__(self, max_floats: int = 1 << 24):
        self.buffer = np.empty(0, dtype=np.float64)
        self.used = 0
        self.table: Dict[int, tuple] = {}
        self.max_floats = int(max_floats)
        self.hits = 0
        self.misses = 0
        self.resets = 0

    def append(
        self,
        prefix: np.ndarray,
        row_offsets: np.ndarray,
        keys: np.ndarray,
        totals: np.ndarray,
    ) -> np.ndarray:
        """Store freshly scanned rows; returns each row's buffer offset.

        Never drops a row: the caller decides a reset (:meth:`clear`) before
        it resolves any hit.
        """
        n = int(prefix.size)
        if self.used + n > self.buffer.size:
            size = max(1024, 2 * self.buffer.size, self.used + n)
            grown = np.empty(size, dtype=np.float64)
            grown[: self.used] = self.buffer[: self.used]
            self.buffer = grown
        start = self.used
        self.buffer[start : start + n] = prefix
        offs = start + np.asarray(row_offsets[:-1], dtype=np.int64)
        for key, off, tot in zip(
            keys.tolist(), offs.tolist(), totals.tolist()
        ):
            self.table[int(key)] = (off, float(tot))
        self.used += n
        return offs

    def clear(self) -> None:
        """Drop every row (the epoch-style reset)."""
        self.table.clear()
        self.used = 0
        self.resets += 1


@dataclass
class GraphStructures:
    """Cached selection structures of one graph, built lazily per kind."""

    num_vertices: int
    num_edges: int
    #: Per-edge bias values in CSR order (``weight_or_degree``).
    flat_bias: Optional[np.ndarray] = None
    #: Zero-copy segmented CTPS whose segments are the adjacency rows.
    ctps: Optional[SegmentedCTPS] = None
    #: Per-vertex count of positive-bias neighbors (the alloc mask input).
    positive_counts: Optional[np.ndarray] = None
    _kinds: Set[str] = field(default_factory=set)
    _n2v_tables: Dict[tuple, Node2VecPrefixTable] = field(default_factory=dict)

    def has(self, kind: str) -> bool:
        """Whether structures of ``kind`` have been built."""
        return kind in self._kinds

    def node2vec_table(self, p: float, q: float) -> Node2VecPrefixTable:
        """The (lazily created) second-order prefix cache for ``(p, q)``."""
        key = (float(p), float(q))
        table = self._n2v_tables.get(key)
        if table is None:
            table = Node2VecPrefixTable()
            self._n2v_tables[key] = table
        return table


class _Cache:
    def __init__(self) -> None:
        # RLock: GC may run a weakref finalizer while we hold the lock.
        self.lock = threading.RLock()
        self.entries: Dict[int, GraphStructures] = {}
        self.finalizers: Dict[int, "weakref.finalize"] = {}
        self.hits = 0
        self.misses = 0
        self.builds = 0
        self.evictions = 0


_CACHE = _Cache()


def _forget(key: int) -> None:
    with _CACHE.lock:
        if _CACHE.entries.pop(key, None) is not None:
            _CACHE.evictions += 1
        _CACHE.finalizers.pop(key, None)


def _watch(graph: CSRGraph, key: int) -> None:
    try:
        _CACHE.finalizers[key] = weakref.finalize(graph, _forget, key)
    except TypeError:  # non-weakrefable stand-ins (tests)
        pass


# --------------------------------------------------------------------- #
# Builders
# --------------------------------------------------------------------- #
def _scan_rows(values: np.ndarray, graph: CSRGraph):
    """Graph-wide segmented prefix and per-row totals (empty rows skipped).

    Every edge belongs to a row of positive degree, so scanning only the
    non-empty rows' compacted offsets still covers the whole flat array --
    and each row's prefix values are bitwise identical to a per-step scan
    over the same pool.
    """
    lengths = graph.degrees
    totals = np.zeros(lengths.size, dtype=np.float64)
    if values.size == 0:
        return np.zeros(0, dtype=np.float64), totals
    nz = np.nonzero(lengths > 0)[0]
    comp_offsets = np.zeros(nz.size + 1, dtype=np.int64)
    np.cumsum(lengths[nz], out=comp_offsets[1:])
    prefix = segmented_kogge_stone_inclusive(values, comp_offsets, cost=None)
    totals[nz] = prefix[comp_offsets[1:] - 1]
    return prefix, totals


def _build_kind(entry: GraphStructures, graph: CSRGraph, kind: str) -> None:
    # Per-edge bias in CSR order: every adjacency row as one pool.
    flat_bias = kind_biases(kind, graph, None, graph.col_idx, graph.weights)
    prefix, totals = _scan_rows(flat_bias, graph)
    entry.flat_bias = flat_bias
    # Direct construction: from_biases would reject all-zero rows, but
    # empty/zero rows are never searched (the alloc mask excludes them).
    entry.ctps = SegmentedCTPS(
        prefix=prefix,
        offsets=graph.row_ptr,
        totals=totals,
        lengths=graph.degrees,
    )
    entry.positive_counts = segment_positive_counts(flat_bias, graph.row_ptr)
    entry._kinds.add(kind)


# --------------------------------------------------------------------- #
# Public cache API
# --------------------------------------------------------------------- #
def get_structures(graph: CSRGraph, kind: str) -> GraphStructures:
    """The cached structures of ``graph`` for ``kind``, building on miss.

    The build is charged to wall-clock only (profiler lap ``bias_build``);
    the kernel charges the cost model the same per-step closed forms the
    rebuild-every-step path charges, keeping cost totals bit-identical.
    """
    if kind not in STRUCTURE_KINDS:
        raise ValueError(f"unknown structure kind {kind!r}")
    key = id(graph)
    prof = _profiler.clock(-1)
    with _CACHE.lock:
        entry = _CACHE.entries.get(key)
        if entry is not None and entry.has(kind):
            _CACHE.hits += 1
            prof.lap("structure_hit")
            return entry
        _CACHE.misses += 1
        if entry is None:
            entry = GraphStructures(
                num_vertices=graph.num_vertices, num_edges=graph.num_edges
            )
            _CACHE.entries[key] = entry
            _watch(graph, key)
        _build_kind(entry, graph, kind)
        _CACHE.builds += 1
        prof.lap("bias_build")
        return entry


def evict_graph(graph) -> bool:
    """Drop ``graph``'s cached structures (the epoch-retirement hook)."""
    with _CACHE.lock:
        entry = _CACHE.entries.pop(id(graph), None)
        finalizer = _CACHE.finalizers.pop(id(graph), None)
        if finalizer is not None:
            finalizer.detach()
        if entry is not None:
            _CACHE.evictions += 1
        return entry is not None


def clear_structure_cache() -> None:
    """Drop every entry and reset the counters (tests / process reuse)."""
    with _CACHE.lock:
        for finalizer in _CACHE.finalizers.values():
            finalizer.detach()
        _CACHE.entries.clear()
        _CACHE.finalizers.clear()
        _CACHE.hits = _CACHE.misses = _CACHE.builds = _CACHE.evictions = 0


def structure_cache_stats() -> Dict[str, int]:
    """Counter snapshot: entries, hits, misses, builds, evictions.

    The ``table_*`` counters aggregate the node2vec prefix tables of every
    live entry (per-row hits/misses and buffer floats in use); tables die
    with their entry, so retiring an epoch also zeroes its table counters.
    """
    with _CACHE.lock:
        table_hits = table_misses = table_resets = table_floats = 0
        for entry in _CACHE.entries.values():
            for table in entry._n2v_tables.values():
                table_hits += table.hits
                table_misses += table.misses
                table_resets += table.resets
                table_floats += table.used
        return {
            "entries": len(_CACHE.entries),
            "hits": _CACHE.hits,
            "misses": _CACHE.misses,
            "builds": _CACHE.builds,
            "evictions": _CACHE.evictions,
            "table_hits": table_hits,
            "table_misses": table_misses,
            "table_resets": table_resets,
            "table_floats": table_floats,
        }
