"""Constructing :class:`~repro.graph.csr.CSRGraph` instances.

The builders accept edge lists (arrays or Python iterables) and
:mod:`networkx` graphs.  They canonicalise the input into the CSR layout the
sampling kernels expect: neighbor lists grouped by source vertex, optionally
deduplicated and symmetrised.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = ["from_edge_list", "from_networkx", "to_networkx"]

EdgeInput = Union[np.ndarray, Sequence[Tuple[int, int]], Iterable[Tuple[int, int]]]


def from_edge_list(
    edges: EdgeInput,
    num_vertices: Optional[int] = None,
    weights: Optional[Sequence[float]] = None,
    *,
    symmetrize: bool = False,
    dedup: bool = False,
    sort_neighbors: bool = False,
) -> CSRGraph:
    """Build a CSR graph from a ``(src, dst)`` edge list.

    Parameters
    ----------
    edges:
        Array-like of shape ``(num_edges, 2)``; rows are ``(src, dst)`` pairs.
    num_vertices:
        Total vertex count.  Defaults to ``max(vertex id) + 1``.
    weights:
        Optional per-edge weights aligned with ``edges``.
    symmetrize:
        When true, add the reverse of every edge (weights are mirrored).
    dedup:
        When true, drop duplicate ``(src, dst)`` pairs keeping the first
        occurrence.
    sort_neighbors:
        When true, sort every neighbor list by destination id.  Sampling does
        not require sorted lists but some tests and analytics do.
    """
    edge_array = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges)
    if edge_array.size == 0:
        edge_array = edge_array.reshape(0, 2)
    edge_array = edge_array.astype(np.int64, copy=False)
    if edge_array.ndim != 2 or edge_array.shape[1] != 2:
        raise ValueError("edges must be an array-like of (src, dst) pairs")
    if np.any(edge_array < 0):
        raise ValueError("vertex ids must be non-negative")

    weight_array: Optional[np.ndarray] = None
    if weights is not None:
        weight_array = np.asarray(weights, dtype=np.float64)
        if weight_array.shape[0] != edge_array.shape[0]:
            raise ValueError("weights must align with edges")

    if symmetrize and edge_array.shape[0]:
        reverse = edge_array[:, ::-1]
        edge_array = np.vstack([edge_array, reverse])
        if weight_array is not None:
            weight_array = np.concatenate([weight_array, weight_array])

    if dedup and edge_array.shape[0]:
        _, keep = np.unique(edge_array, axis=0, return_index=True)
        keep.sort()
        edge_array = edge_array[keep]
        if weight_array is not None:
            weight_array = weight_array[keep]

    if num_vertices is None:
        num_vertices = int(edge_array.max()) + 1 if edge_array.size else 0
    elif edge_array.size and int(edge_array.max()) >= num_vertices:
        raise ValueError("num_vertices too small for supplied edge list")

    if sort_neighbors and edge_array.shape[0]:
        order = np.lexsort((edge_array[:, 1], edge_array[:, 0]))
    else:
        order = np.argsort(edge_array[:, 0], kind="stable") if edge_array.shape[0] else np.array([], dtype=np.int64)

    edge_array = edge_array[order] if edge_array.shape[0] else edge_array
    if weight_array is not None and edge_array.shape[0]:
        weight_array = weight_array[order]

    counts = np.bincount(edge_array[:, 0], minlength=num_vertices) if num_vertices else np.array([], dtype=np.int64)
    row_ptr = np.zeros(num_vertices + 1, dtype=np.int64)
    if num_vertices:
        np.cumsum(counts, out=row_ptr[1:])
    col_idx = edge_array[:, 1].copy() if edge_array.shape[0] else np.array([], dtype=np.int64)
    return CSRGraph(row_ptr, col_idx, weight_array)


def from_networkx(graph: "nx.Graph", weight_attr: Optional[str] = None) -> CSRGraph:
    """Convert a networkx graph (directed or undirected) to CSR.

    Undirected graphs are symmetrised; node labels are mapped to contiguous
    integer ids in sorted order when possible, otherwise insertion order.
    """
    nodes = list(graph.nodes())
    try:
        nodes = sorted(nodes)
    except TypeError:
        pass
    index = {node: i for i, node in enumerate(nodes)}
    edges = []
    weights = [] if weight_attr is not None else None
    directed = graph.is_directed()
    for u, v, data in graph.edges(data=True):
        edges.append((index[u], index[v]))
        if weights is not None:
            weights.append(float(data.get(weight_attr, 1.0)))
        if not directed:
            edges.append((index[v], index[u]))
            if weights is not None:
                weights.append(float(data.get(weight_attr, 1.0)))
    return from_edge_list(edges, num_vertices=len(nodes), weights=weights)


def to_networkx(graph: CSRGraph) -> "nx.DiGraph":
    """Convert a CSR graph back into a :class:`networkx.DiGraph`."""
    import networkx as nx  # loaded on use: ``import repro`` stays free of it

    out = nx.DiGraph()
    out.add_nodes_from(range(graph.num_vertices))
    if graph.is_weighted:
        for (src, dst), w in zip(graph.edge_array(), graph.weights):
            out.add_edge(int(src), int(dst), weight=float(w))
    else:
        out.add_edges_from((int(s), int(d)) for s, d in graph.edge_array())
    return out
