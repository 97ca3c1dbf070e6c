"""Incremental rebuilds of per-vertex sampling structures.

ITS prefix sums (:class:`~repro.selection.ctps.CTPS`) and alias tables are
built *per candidate pool* -- for graph sampling, per vertex.  A static graph
pays the build once; a dynamic graph would pay it again on every compaction
even though a small update rate leaves almost every adjacency list untouched.

The caches here hold one pre-built structure per vertex and expose two
paths:

* :meth:`~VertexStructureCache.build` -- the full O(V) construction a static
  engine performs up front;
* :meth:`~VertexStructureCache.update` -- the incremental path: given the
  fresh CSR and the set of *touched* vertices a
  :class:`~repro.graph.delta.DeltaGraph` compaction reports, only those
  vertices' structures are rebuilt; everything else is reused as is.

Bit-compatibility: an updated cache is indistinguishable from a freshly
built one -- ``ctps(v)`` / ``table(v)`` return structures with byte-equal
arrays, because a vertex's structure depends only on its own weight slice
and untouched slices are unchanged by canonical compaction.
``benchmarks/bench_dynamic_updates.py`` measures the speedup (>= 3x at a 1%
update rate is asserted); :func:`bind` wires one or more caches to a
``DeltaGraph`` so every compaction patches them automatically.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.graph.csr import CSRGraph
from repro.gpusim.costmodel import CostModel
from repro.selection.alias import AliasTable, build_alias_table
from repro.selection.ctps import CTPS

__all__ = ["VertexITSCache", "VertexAliasCache", "bind"]


class VertexStructureCache:
    """Shared machinery: one sampling structure per positive-weight vertex.

    Vertices with no neighbors (or all-zero weights) carry no structure --
    :meth:`has` is False and the accessor raises ``KeyError``, mirroring the
    ``ValueError`` a direct construction over their empty/zero pool raises.
    """

    def __init__(self, graph: CSRGraph):
        self._graph = graph
        self._entries: Dict[int, object] = {}
        #: Structures (re)built over the cache's lifetime, for cost audits.
        self.built_total = 0
        #: Size of the most recent :meth:`update`'s touched set.
        self.last_update_size = 0

    # -- subclass hook -------------------------------------------------- #
    def _build_one(self, weights: np.ndarray, cost: Optional[CostModel]):
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    @classmethod
    def build(cls, graph: CSRGraph, cost: Optional[CostModel] = None):
        """Full build: construct the structure of every vertex (O(V) work)."""
        cache = cls(graph)
        cache._rebuild(np.arange(graph.num_vertices), cost)
        return cache

    def update(
        self,
        graph: CSRGraph,
        touched: np.ndarray,
        cost: Optional[CostModel] = None,
    ) -> int:
        """Incremental rebuild: patch only ``touched`` vertices' structures.

        ``graph`` is the post-compaction CSR; untouched vertices must have
        the same weight slice they had at the previous build (which is what
        :meth:`DeltaGraph.compact`'s touched set guarantees).  Returns the
        number of structures rebuilt.
        """
        touched = np.asarray(touched, dtype=np.int64).reshape(-1)
        if touched.size and (
            touched.min() < 0 or touched.max() >= graph.num_vertices
        ):
            raise IndexError("touched vertices outside the new graph")
        self._graph = graph
        self.last_update_size = int(touched.size)
        return self._rebuild(touched, cost)

    def _rebuild(self, vertices: np.ndarray, cost: Optional[CostModel]) -> int:
        built = 0
        for vertex in vertices:
            vertex = int(vertex)
            weights = self._graph.neighbor_weights(vertex)
            if weights.size == 0 or not np.any(weights > 0):
                self._entries.pop(vertex, None)
                continue
            self._entries[vertex] = self._build_one(weights, cost)
            built += 1
        self.built_total += built
        return built

    # ------------------------------------------------------------------ #
    @property
    def graph(self) -> CSRGraph:
        """The CSR the cached structures were built against."""
        return self._graph

    @property
    def num_cached(self) -> int:
        """Number of vertices currently carrying a structure."""
        return len(self._entries)

    def has(self, vertex: int) -> bool:
        """Whether ``vertex`` has a cached structure."""
        return vertex in self._entries

    def _get(self, vertex: int):
        entry = self._entries.get(int(vertex))
        if entry is None:
            raise KeyError(
                f"vertex {vertex} has no sampling structure "
                "(no neighbors with positive weight)"
            )
        return entry


class VertexITSCache(VertexStructureCache):
    """Per-vertex ITS prefix sums (CTPS) over a whole graph.

    ``ctps(v)`` is bit-identical to ``CTPS.from_biases(graph.
    neighbor_weights(v))`` -- the same Kogge-Stone scan builds both.
    """

    def _build_one(self, weights: np.ndarray, cost: Optional[CostModel]) -> CTPS:
        return CTPS.from_biases(weights, cost)

    def ctps(self, vertex: int) -> CTPS:
        """The cached CTPS of ``vertex``'s neighbor pool."""
        return self._get(vertex)


class VertexAliasCache(VertexStructureCache):
    """Per-vertex alias tables (the static-bias engines' preprocessing).

    ``table(v)`` is bit-identical to ``build_alias_table(graph.
    neighbor_weights(v))``; the O(degree) sequential Vose construction is
    exactly the cost the incremental path avoids for untouched vertices.
    """

    def _build_one(self, weights: np.ndarray, cost: Optional[CostModel]) -> AliasTable:
        return build_alias_table(weights, cost)

    def table(self, vertex: int) -> AliasTable:
        """The cached alias table of ``vertex``'s neighbor pool."""
        return self._get(vertex)


def bind(delta, *caches: VertexStructureCache,
         cost: Optional[CostModel] = None) -> None:
    """Wire caches to a :class:`~repro.graph.delta.DeltaGraph`.

    Every compaction (explicit or budget-triggered) then patches each cache
    incrementally with the compaction's touched set.  Chains after any hook
    already bound (:meth:`~repro.graph.delta.DeltaGraph.add_compact_hook`).
    """
    def _hook(new_base: CSRGraph, touched: np.ndarray) -> None:
        for cache in caches:
            cache.update(new_base, touched, cost)

    delta.add_compact_hook(_hook)
