"""Mutable overlay for dynamic graphs: :class:`DeltaGraph`.

The sampling kernels all consume an immutable :class:`~repro.graph.csr.
CSRGraph`; real service traffic mutates its graphs between queries (new
edges, retired vertices).  ``DeltaGraph`` bridges the two worlds: it buffers
mutations in a small *overlay* on top of a CSR base and answers
degree/neighbor queries through a merged view, so readers never see a
half-applied update.  When the overlay exceeds ``compaction_budget`` pending
operations it is *compacted* -- folded into a fresh CSR base -- and the set
of vertices whose adjacency changed is returned to the caller.

Bit-compatibility contract
--------------------------

Compaction is canonical: for every vertex the surviving base edges come
first (in base order), followed by the inserted edges (in insertion order),
and edges touching retired vertices are dropped.  :meth:`DeltaGraph.to_csr`
produces **exactly** the CSR that :func:`~repro.graph.builder.from_edge_list`
builds from that edge sequence, so sampling a mutated-then-compacted
``DeltaGraph`` is bit-identical to sampling a freshly built CSR holding the
same edges.  The ``graph=compacted`` cells of
``tests/integration/test_bitcompat_matrix.py`` assert this for every
registry algorithm on every route.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = ["DeltaGraph", "as_csr"]

_VERTEX_DTYPE = np.int64
_WEIGHT_DTYPE = np.float64

def as_csr(graph) -> CSRGraph:
    """Coerce a :class:`CSRGraph` or :class:`DeltaGraph` to a plain CSR.

    Samplers call this at construction so a ``DeltaGraph`` can be handed
    anywhere a static graph is expected; the snapshot follows the canonical
    compaction order, so results are bit-identical to a fresh CSR build.
    """
    if isinstance(graph, CSRGraph):
        return graph
    if isinstance(graph, DeltaGraph):
        return graph.to_csr()
    raise TypeError(f"expected CSRGraph or DeltaGraph, got {type(graph).__name__}")


class DeltaGraph:
    """A CSR graph plus a bounded overlay of pending mutations.

    Parameters
    ----------
    base:
        The starting graph.  Never mutated; compaction replaces it.
    compaction_budget:
        Maximum number of pending overlay operations (tombstones + inserted
        edges + retirements) before a mutation triggers automatic
        compaction.  ``None`` disables auto-compaction ( :meth:`compact`
        can still be called explicitly).
    """

    def __init__(
        self,
        base: CSRGraph,
        *,
        compaction_budget: Optional[int] = None,
    ):
        if compaction_budget is not None and compaction_budget < 1:
            raise ValueError("compaction_budget must be >= 1 (or None)")
        self.compaction_budget = compaction_budget
        #: Number of compactions applied so far (the graph's local version).
        self.version = 0
        self._reset(base)

    def _reset(self, base: CSRGraph) -> None:
        self._base = base
        self._num_vertices = base.num_vertices
        self._dead = np.zeros(base.num_edges, dtype=bool)
        self._num_dead = 0
        self._inserts: Dict[int, List[Tuple[int, Optional[float]]]] = {}
        self._num_inserted = 0
        self._retired: set = set()
        self._retired_cache: Optional[np.ndarray] = None
        #: Whether the *base* arrays may still hold edges into retired
        #: vertices (true between a retirement and the next compaction).
        self._retired_in_base = False
        self._touched: set = set()
        self._insert_weighted = False

    # ------------------------------------------------------------------ #
    # Basic properties (merged view)
    # ------------------------------------------------------------------ #
    @property
    def base(self) -> CSRGraph:
        """The current immutable CSR base (replaced by compaction)."""
        return self._base

    @property
    def num_vertices(self) -> int:
        """Vertex count including added (and retired) vertices."""
        return self._num_vertices

    @property
    def num_edges(self) -> int:
        """Number of *live* edges in the merged view."""
        if not self._retired_in_base:
            return self._base.num_edges - self._num_dead + self._num_inserted
        hidden_base = int(np.count_nonzero(
            np.isin(self._base.col_idx, self._retired_array()) & ~self._dead
        ))
        return (self._base.num_edges - self._num_dead - hidden_base
                + self._num_inserted)

    @property
    def overlay_size(self) -> int:
        """Pending overlay operations (what the budget is compared against)."""
        return self._num_dead + self._num_inserted + len(self._retired)

    @property
    def is_weighted(self) -> bool:
        """Whether a compaction of the current state produces edge weights."""
        return self._base.is_weighted or self._insert_weighted

    @property
    def nbytes(self) -> int:
        """Approximate memory footprint (base CSR plus overlay buffers)."""
        overlay = self._dead.nbytes + self._num_inserted * 24
        return self._base.nbytes + int(overlay)

    def is_retired(self, vertex: int) -> bool:
        """Whether ``vertex`` has been retired."""
        self._check_vertex(vertex)
        return vertex in self._retired

    # ------------------------------------------------------------------ #
    # Merged neighbor access
    # ------------------------------------------------------------------ #
    def degree(self, vertex: int) -> int:
        """Live out-degree of ``vertex`` through the merged view."""
        return int(self.neighbors(vertex).size)

    def neighbors(self, vertex: int) -> np.ndarray:
        """Live neighbor list of ``vertex`` in canonical (compaction) order."""
        neighbors, _ = self._merged_row(vertex)
        return neighbors

    def neighbor_weights(self, vertex: int) -> np.ndarray:
        """Live edge weights of ``vertex``'s row (ones when unweighted)."""
        _, weights = self._merged_row(vertex)
        return weights

    def has_edge(self, src: int, dst: int) -> bool:
        """Whether a live directed edge ``src -> dst`` exists."""
        self._check_vertex(dst)
        return bool(np.any(self.neighbors(src) == dst))

    def _retired_array(self) -> np.ndarray:
        """The retired set as a cached sorted array (rebuilt per retirement)."""
        if self._retired_cache is None:
            self._retired_cache = np.array(sorted(self._retired),
                                           dtype=_VERTEX_DTYPE)
        return self._retired_cache

    def _merged_row(self, vertex: int) -> Tuple[np.ndarray, np.ndarray]:
        self._check_vertex(vertex)
        if vertex in self._retired:
            empty = np.empty(0, dtype=_VERTEX_DTYPE)
            return empty, np.empty(0, dtype=_WEIGHT_DTYPE)
        parts_n: List[np.ndarray] = []
        parts_w: List[np.ndarray] = []
        if vertex < self._base.num_vertices:
            start, end = self._base.edge_range(vertex)
            keep = ~self._dead[start:end]
            base_n = self._base.col_idx[start:end][keep]
            base_w = self._base.neighbor_weights(vertex)[keep]
            if self._retired_in_base and base_n.size:
                live = ~np.isin(base_n, self._retired_array())
                base_n, base_w = base_n[live], base_w[live]
            parts_n.append(base_n)
            parts_w.append(base_w)
        ins = self._inserts.get(vertex)
        if ins:
            # Retirement sweeps inserts into retired vertices eagerly, so
            # every buffered pair here is live.
            parts_n.append(np.array([d for d, _ in ins], dtype=_VERTEX_DTYPE))
            parts_w.append(np.array(
                [1.0 if w is None else w for _, w in ins], dtype=_WEIGHT_DTYPE
            ))
        if not parts_n:
            return np.empty(0, dtype=_VERTEX_DTYPE), np.empty(0, dtype=_WEIGHT_DTYPE)
        return np.concatenate(parts_n), np.concatenate(parts_w)

    # ------------------------------------------------------------------ #
    # Mutations
    # ------------------------------------------------------------------ #
    def add_vertices(self, count: int) -> int:
        """Append ``count`` fresh isolated vertices; returns the first new id."""
        if count < 1:
            raise ValueError("count must be >= 1")
        first = self._num_vertices
        self._num_vertices += int(count)
        return first

    def add_edge(self, src: int, dst: int, weight: Optional[float] = None) -> None:
        """Buffer one edge insertion (appended after existing edges of ``src``)."""
        self._check_vertex(src)
        self._check_vertex(dst)
        if src in self._retired or dst in self._retired:
            raise ValueError("cannot add an edge touching a retired vertex")
        if weight is not None:
            weight = float(weight)
            if not np.isfinite(weight) or weight < 0:
                raise ValueError("edge weights must be non-negative and finite")
            self._insert_weighted = True
        self._inserts.setdefault(src, []).append((int(dst), weight))
        self._num_inserted += 1
        self._touched.add(int(src))
        self._maybe_compact()

    def add_edges(
        self,
        edges: Sequence[Tuple[int, int]],
        weights: Optional[Sequence[float]] = None,
    ) -> None:
        """Buffer many edge insertions, in order."""
        edges = np.asarray(edges, dtype=_VERTEX_DTYPE).reshape(-1, 2)
        if weights is not None and len(weights) != edges.shape[0]:
            raise ValueError("weights must align with edges")
        for i, (src, dst) in enumerate(edges):
            self.add_edge(int(src), int(dst),
                          None if weights is None else float(weights[i]))

    def remove_edge(self, src: int, dst: int) -> None:
        """Remove the first live ``src -> dst`` edge in canonical order.

        Base edges precede inserted edges, so repeated removals of a
        parallel edge retire its copies oldest-first.  Raises ``KeyError``
        when no live matching edge exists.
        """
        self._check_vertex(src)
        self._check_vertex(dst)
        if dst in self._retired or src in self._retired:
            # Edges touching retired vertices are not live, whatever the
            # underlying arrays still hold.
            raise KeyError(f"no live edge {src} -> {dst}")
        if src < self._base.num_vertices:
            start, end = self._base.edge_range(src)
            for pos in range(start, end):
                if not self._dead[pos] and self._base.col_idx[pos] == dst:
                    self._dead[pos] = True
                    self._num_dead += 1
                    self._touched.add(int(src))
                    self._maybe_compact()
                    return
        ins = self._inserts.get(src, [])
        for i, (d, _) in enumerate(ins):
            if d == dst:
                del ins[i]
                self._num_inserted -= 1
                self._touched.add(int(src))
                return
        raise KeyError(f"no live edge {src} -> {dst}")

    def remove_edges(self, edges: Sequence[Tuple[int, int]]) -> None:
        """Remove many edges (each resolved independently, in order)."""
        for src, dst in np.asarray(edges, dtype=_VERTEX_DTYPE).reshape(-1, 2):
            self.remove_edge(int(src), int(dst))

    def retire_vertex(self, vertex: int) -> None:
        """Retire ``vertex``: its row empties and edges into it disappear.

        The vertex id stays valid (ids are never remapped) but both its
        out-edges and all in-edges are dropped from the merged view and from
        the next compaction.  Idempotent.
        """
        self._check_vertex(vertex)
        if vertex in self._retired:
            return
        self._retired.add(int(vertex))
        self._retired_cache = None
        if vertex < self._base.num_vertices:
            # Vertices added after the base cannot appear in base.col_idx,
            # so retiring them never hides base edges.
            self._retired_in_base = True
            start, end = self._base.edge_range(vertex)
            fresh = ~self._dead[start:end]
            self._num_dead += int(np.count_nonzero(fresh))
            self._dead[start:end] = True
        dropped = self._inserts.pop(vertex, None)
        if dropped:
            self._num_inserted -= len(dropped)
        # Sweep pending inserts *into* the vertex out of the overlay, so the
        # buffered-insert state never references a retired vertex (the base
        # arrays are the only place retired ids may linger until compaction).
        for src, ins in list(self._inserts.items()):
            kept = [(d, w) for d, w in ins if d != vertex]
            if len(kept) != len(ins):
                self._num_inserted -= len(ins) - len(kept)
                self._touched.add(int(src))
                if kept:
                    self._inserts[src] = kept
                else:
                    del self._inserts[src]
        self._touched.add(int(vertex))
        self._maybe_compact()

    # ------------------------------------------------------------------ #
    # Compaction
    # ------------------------------------------------------------------ #
    def touched_vertices(self) -> np.ndarray:
        """Sorted vertices whose adjacency differs from the current base.

        Includes vertices with pending inserts/removals/retirements and the
        sources of base edges that point into retired vertices (their rows
        shrink at compaction even though they were never mutated directly).
        """
        touched = set(self._touched)
        if self._retired_in_base and self._base.num_edges:
            hits = np.nonzero(np.isin(self._base.col_idx, self._retired_array()))[0]
            if hits.size:
                srcs = np.searchsorted(self._base.row_ptr, hits, side="right") - 1
                touched.update(int(v) for v in np.unique(srcs))
        return np.array(sorted(touched), dtype=_VERTEX_DTYPE)

    def to_csr(self) -> CSRGraph:
        """Canonical CSR snapshot of the merged view (does not mutate).

        Per vertex: surviving base edges in base order, then inserted edges
        in insertion order; rows of retired vertices are empty and edges
        into retired vertices are dropped.  The arrays are exactly what
        :func:`~repro.graph.builder.from_edge_list` produces from the same
        edge sequence.

        When the overlay is empty the base *is* the canonical snapshot and
        is returned as-is, so repeated snapshots of an unmutated graph keep
        one identity -- which is what the compiled tier's per-graph
        structure cache (:mod:`repro.compiled.structures`) keys on.
        """
        if (
            self._num_dead == 0
            and self._num_inserted == 0
            and not self._retired_in_base
            and self._num_vertices == self._base.num_vertices
        ):
            return self._base
        base = self._base
        keep = ~self._dead
        base_src = np.repeat(
            np.arange(base.num_vertices, dtype=_VERTEX_DTYPE), base.degrees
        )[keep]
        base_dst = base.col_idx[keep]
        weighted = self.is_weighted
        if base.weights is not None:
            base_w = base.weights[keep]
        else:
            base_w = np.ones(base_dst.size, dtype=_WEIGHT_DTYPE)

        ins_src: List[int] = []
        ins_dst: List[int] = []
        ins_w: List[float] = []
        for src in sorted(self._inserts):
            for dst, w in self._inserts[src]:
                ins_src.append(src)
                ins_dst.append(dst)
                ins_w.append(1.0 if w is None else w)

        src_all = np.concatenate([base_src, np.array(ins_src, dtype=_VERTEX_DTYPE)])
        dst_all = np.concatenate([base_dst, np.array(ins_dst, dtype=_VERTEX_DTYPE)])
        w_all = np.concatenate([base_w, np.array(ins_w, dtype=_WEIGHT_DTYPE)])

        if self._retired_in_base and dst_all.size:
            live = ~np.isin(dst_all, self._retired_array())
            src_all, dst_all, w_all = src_all[live], dst_all[live], w_all[live]

        # Stable sort by source groups rows while preserving the canonical
        # per-vertex order -- the exact ordering from_edge_list applies.
        order = np.argsort(src_all, kind="stable")
        src_all, dst_all, w_all = src_all[order], dst_all[order], w_all[order]
        counts = np.bincount(src_all, minlength=self._num_vertices)
        row_ptr = np.zeros(self._num_vertices + 1, dtype=_VERTEX_DTYPE)
        np.cumsum(counts, out=row_ptr[1:])
        return CSRGraph(row_ptr, dst_all, w_all if weighted else None)

    def compact(self) -> np.ndarray:
        """Fold the overlay into a fresh base; returns the touched vertices.

        After compaction the overlay is empty, retired vertices stay retired
        as permanently empty rows, and ``version`` is incremented.
        """
        touched = self.touched_vertices()
        new_vertices = self._num_vertices - self._base.num_vertices
        if new_vertices:
            touched = np.union1d(
                touched,
                np.arange(self._base.num_vertices, self._num_vertices,
                          dtype=_VERTEX_DTYPE),
            )
        new_base = self.to_csr()
        retired = self._retired
        self._reset(new_base)
        self._retired = retired  # retirement is permanent across compactions
        self.version += 1
        return touched

    def _maybe_compact(self) -> None:
        if (
            self.compaction_budget is not None
            and self.overlay_size > self.compaction_budget
        ):
            self.compact()

    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:
        return (
            f"DeltaGraph(num_vertices={self.num_vertices}, "
            f"base_edges={self._base.num_edges}, overlay={self.overlay_size}, "
            f"retired={len(self._retired)}, version={self.version})"
        )

    def _check_vertex(self, vertex: int) -> None:
        if not (0 <= vertex < self._num_vertices):
            raise IndexError(
                f"vertex {vertex} out of range for graph with "
                f"{self._num_vertices} vertices"
            )
