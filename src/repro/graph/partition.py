"""Contiguous vertex-range graph partitioning (Section V-A of the paper).

C-SAW partitions the graph by assigning a contiguous, roughly equal range of
vertices -- together with *all* their neighbor lists -- to each partition.
The paper argues for this scheme over METIS-style or 2-D partitioning
because:

1. sampling needs the complete neighbor list of a vertex to compute
   transition probabilities, so neighbor lists must never be split;
2. preprocessing must be cheap; and
3. mapping a vertex to its partition must be O(1), which a contiguous range
   gives via a single division/search.

Two balance policies are provided: equal vertex ranges (the paper's default)
and equal edge counts (ranges chosen so each partition holds roughly the same
number of edges), the latter being useful when degree skew would otherwise
make partition sizes wildly unequal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = [
    "VertexRangePartition",
    "PartitionSet",
    "partition_bounds",
    "partition_graph",
    "range_owners",
    "uniform_stride",
]


def uniform_stride(bounds: np.ndarray) -> Optional[int]:
    """The common range width when every partition is equally wide, else None.

    Equal-vertex partitioning of ``P | num_vertices`` graphs produces uniform
    bounds, for which the owner lookup is a single integer division -- the
    paper's O(1) vertex-to-partition mapping.  The division is only valid
    for zero-based bounds, so offset partitionings never get a stride.
    """
    bounds = np.asarray(bounds, dtype=np.int64)
    if bounds.size < 2 or bounds[0] != 0:
        return None
    widths = np.diff(bounds)
    if np.all(widths == widths[0]):
        return int(widths[0])
    return None


def range_owners(
    bounds: np.ndarray,
    vertices: Union[int, np.ndarray],
    *,
    stride: Optional[int] = None,
) -> np.ndarray:
    """Partition index owning each vertex, given range ``bounds`` alone.

    With ``stride`` (see :func:`uniform_stride`) the lookup is one integer
    division; otherwise a single ``searchsorted`` over the bounds.  No bounds
    checking is performed -- callers validate vertex ids where needed.
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    if stride:
        return vertices // stride
    return np.searchsorted(
        np.asarray(bounds, dtype=np.int64), vertices, side="right"
    ) - 1


@dataclass(frozen=True)
class VertexRangePartition:
    """One partition: vertices ``[lo, hi)`` and their full neighbor lists.

    Footprints (:attr:`num_edges`, :attr:`nbytes`) are closed forms over the
    parent graph's ``row_ptr`` -- the scheduler reads nothing else -- so the
    CSR slice itself is only copied out when :attr:`subgraph` is first read.
    """

    index: int
    lo: int
    hi: int
    graph: CSRGraph = field(repr=False, compare=False)

    @cached_property
    def subgraph(self) -> CSRGraph:
        """The partition's CSR slice (built on first access, then kept)."""
        return self.graph.subgraph_by_vertex_range(self.lo, self.hi)

    @property
    def num_vertices(self) -> int:
        """Number of vertices owned by this partition."""
        return self.hi - self.lo

    @property
    def num_edges(self) -> int:
        """Number of edges stored in this partition."""
        row_ptr = self.graph.row_ptr
        return int(row_ptr[self.hi] - row_ptr[self.lo])

    @property
    def nbytes(self) -> int:
        """Memory footprint of the partition's CSR slice in bytes.

        Exactly ``subgraph.nbytes``: a full-height ``row_ptr`` plus one
        ``col_idx`` (and, when weighted, one ``weights``) entry per edge.
        """
        graph = self.graph
        per_edge = graph.col_idx.itemsize
        if graph.weights is not None:
            per_edge += graph.weights.itemsize
        return int(graph.row_ptr.nbytes + self.num_edges * per_edge)

    def owns(self, vertex: int) -> bool:
        """Whether ``vertex`` belongs to this partition's range."""
        return self.lo <= vertex < self.hi

    def __repr__(self) -> str:
        return (
            f"VertexRangePartition(index={self.index}, range=[{self.lo}, {self.hi}), "
            f"edges={self.num_edges})"
        )


class PartitionSet:
    """A full partitioning of a graph into contiguous vertex ranges.

    Provides the O(1) vertex-to-partition lookup the workload-aware scheduler
    relies on, plus per-partition memory footprints for the device-capacity
    admission decisions.
    """

    def __init__(self, graph: CSRGraph, boundaries: Sequence[int]):
        bounds = np.asarray(boundaries, dtype=np.int64)
        if bounds.ndim != 1 or bounds.size < 2:
            raise ValueError("boundaries must contain at least [0, num_vertices]")
        if bounds[0] != 0 or bounds[-1] != graph.num_vertices:
            raise ValueError("boundaries must start at 0 and end at num_vertices")
        if np.any(np.diff(bounds) <= 0):
            raise ValueError("boundaries must be strictly increasing")
        self._graph = graph
        self._bounds = bounds
        self._stride = uniform_stride(bounds)
        self._partitions: List[VertexRangePartition] = [
            VertexRangePartition(
                index=i,
                lo=int(bounds[i]),
                hi=int(bounds[i + 1]),
                graph=graph,
            )
            for i in range(bounds.size - 1)
        ]

    # ------------------------------------------------------------------ #
    @property
    def graph(self) -> CSRGraph:
        """The original (unsliced) graph."""
        return self._graph

    @property
    def boundaries(self) -> np.ndarray:
        """Partition boundaries, length ``num_partitions + 1``."""
        return self._bounds

    @property
    def num_partitions(self) -> int:
        """Number of partitions."""
        return len(self._partitions)

    def __len__(self) -> int:
        return self.num_partitions

    def __getitem__(self, index: int) -> VertexRangePartition:
        return self._partitions[index]

    def __iter__(self):
        return iter(self._partitions)

    # ------------------------------------------------------------------ #
    def owner(self, vertices: Union[int, np.ndarray]) -> np.ndarray:
        """Vectorised O(1) owner lookup for a scalar or array of vertex ids.

        Uniformly wide partitions (the equal-vertex default on divisible
        sizes) resolve with one integer division; otherwise a single
        ``searchsorted`` over the range bounds.  Out-of-range ids raise.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        if vertices.size and (
            vertices.min() < 0 or vertices.max() >= self._graph.num_vertices
        ):
            raise IndexError("vertex id out of range")
        return range_owners(self._bounds, vertices, stride=self._stride)

    def partition_of(self, vertex: int) -> int:
        """Partition index owning ``vertex`` (scalar :meth:`owner`)."""
        return int(self.owner(int(vertex)))

    def partition_of_many(self, vertices: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`partition_of` (alias of :meth:`owner`)."""
        return self.owner(vertices)

    def sizes_bytes(self) -> np.ndarray:
        """Memory footprint of each partition in bytes."""
        return np.array([p.nbytes for p in self._partitions], dtype=np.int64)

    def edge_counts(self) -> np.ndarray:
        """Edge count of each partition."""
        return np.array([p.num_edges for p in self._partitions], dtype=np.int64)


def partition_bounds(
    graph: CSRGraph,
    num_partitions: int,
    *,
    balance: str = "vertices",
) -> np.ndarray:
    """Range boundaries of a contiguous partitioning, without slicing CSRs.

    The sharded cluster ships these bounds to every shard for its owner
    lookups; :func:`partition_graph` materialises the per-partition CSR
    slices on top of them.
    """
    if num_partitions < 1:
        raise ValueError("num_partitions must be >= 1")
    if graph.num_vertices == 0:
        raise ValueError("cannot partition an empty graph")
    if num_partitions > graph.num_vertices:
        raise ValueError("more partitions than vertices")

    if balance == "vertices":
        bounds = np.linspace(0, graph.num_vertices, num_partitions + 1).round().astype(np.int64)
    elif balance == "edges":
        targets = np.linspace(0, graph.num_edges, num_partitions + 1)
        bounds = np.searchsorted(graph.row_ptr, targets, side="left").astype(np.int64)
        bounds[0], bounds[-1] = 0, graph.num_vertices
    else:
        raise ValueError(f"unknown balance policy {balance!r}")

    # Ensure strict monotonicity (possible collapse for tiny graphs / heavy skew).
    for i in range(1, bounds.size):
        if bounds[i] <= bounds[i - 1]:
            bounds[i] = bounds[i - 1] + 1
    bounds = np.minimum(bounds, graph.num_vertices)
    if bounds[-1] != graph.num_vertices:
        bounds[-1] = graph.num_vertices
    # Collapse any trailing duplicates by re-spreading (rare; tiny graphs only).
    if np.any(np.diff(bounds) <= 0):
        bounds = np.unique(bounds)
        if bounds[0] != 0:
            bounds = np.insert(bounds, 0, 0)
        if bounds[-1] != graph.num_vertices:
            bounds = np.append(bounds, graph.num_vertices)
    return bounds


def partition_graph(
    graph: CSRGraph,
    num_partitions: int,
    *,
    balance: str = "vertices",
) -> PartitionSet:
    """Split ``graph`` into ``num_partitions`` contiguous vertex ranges.

    Parameters
    ----------
    graph:
        Graph to partition.
    num_partitions:
        Desired partition count; must not exceed the vertex count.
    balance:
        ``"vertices"`` (paper default) gives equal vertex ranges;
        ``"edges"`` picks range boundaries so each partition holds roughly the
        same number of edges.
    """
    return PartitionSet(graph, partition_bounds(graph, num_partitions, balance=balance))
