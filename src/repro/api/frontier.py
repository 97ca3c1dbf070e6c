"""Frontier queues: the (VertexID, InstanceID, CurrDepth) structure.

Section IV-B describes the frontier queue as a structure of three arrays --
``VertexID``, ``InstanceID`` and ``CurrDepth`` -- that tracks the sampling
process.  In-memory sampling uses one queue; out-of-memory sampling keeps one
queue *per partition* so a partition can insert newly sampled vertices into
the queues of other partitions (Section V-B), and batched multi-instance
sampling mixes entries from many instances in the same queue (Section V-C).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Tuple

import numpy as np

__all__ = ["FrontierEntry", "FrontierQueue"]


@dataclass(frozen=True)
class FrontierEntry:
    """One queue entry: a vertex to expand for a given instance at a given depth."""

    vertex: int
    instance: int
    depth: int


class FrontierQueue:
    """FIFO queue of frontier entries stored as parallel arrays."""

    def __init__(self, entries: Iterable[FrontierEntry] = ()):
        self._vertices: List[int] = []
        self._instances: List[int] = []
        self._depths: List[int] = []
        for entry in entries:
            self.push(entry.vertex, entry.instance, entry.depth)

    # ------------------------------------------------------------------ #
    def push(self, vertex: int, instance: int, depth: int) -> None:
        """Append one entry."""
        self._vertices.append(int(vertex))
        self._instances.append(int(instance))
        self._depths.append(int(depth))

    def push_many(self, vertices: np.ndarray, instance: int, depth: int) -> None:
        """Append several vertices of the same instance and depth."""
        vertices = np.asarray(vertices, dtype=np.int64).reshape(-1)
        self.push_batch(
            vertices,
            np.full(vertices.size, int(instance), dtype=np.int64),
            np.full(vertices.size, int(depth), dtype=np.int64),
        )

    def push_batch(
        self, vertices: np.ndarray, instances: np.ndarray, depths: np.ndarray
    ) -> None:
        """Append whole entry arrays at once (the engine's fully-array path).

        ``instances`` and ``depths`` may be scalars or arrays broadcastable
        to ``vertices``; entries keep the order of ``vertices``.
        """
        vertices = np.asarray(vertices, dtype=np.int64).reshape(-1)
        instances = np.asarray(instances, dtype=np.int64)
        if instances.shape != vertices.shape:
            instances = np.broadcast_to(instances, vertices.shape)
        depths = np.asarray(depths, dtype=np.int64)
        if depths.shape != vertices.shape:
            depths = np.broadcast_to(depths, vertices.shape)
        self._vertices.extend(vertices.tolist())
        self._instances.extend(instances.tolist())
        self._depths.extend(depths.tolist())

    def extend(self, other: "FrontierQueue") -> None:
        """Append every entry of another queue."""
        self._vertices.extend(other._vertices)
        self._instances.extend(other._instances)
        self._depths.extend(other._depths)

    def pop_all(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Remove and return all entries as (vertices, instances, depths) arrays."""
        out = self.as_arrays()
        self.clear()
        return out

    def drain(self, max_entries: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Remove and return up to ``max_entries`` oldest entries."""
        if max_entries < 0:
            raise ValueError("max_entries must be non-negative")
        n = min(max_entries, len(self))
        vertices = np.asarray(self._vertices[:n], dtype=np.int64)
        instances = np.asarray(self._instances[:n], dtype=np.int64)
        depths = np.asarray(self._depths[:n], dtype=np.int64)
        del self._vertices[:n], self._instances[:n], self._depths[:n]
        return vertices, instances, depths

    def clear(self) -> None:
        """Remove every entry."""
        self._vertices.clear()
        self._instances.clear()
        self._depths.clear()

    # ------------------------------------------------------------------ #
    def as_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Copy of the queue contents as (vertices, instances, depths) arrays."""
        return (
            np.asarray(self._vertices, dtype=np.int64),
            np.asarray(self._instances, dtype=np.int64),
            np.asarray(self._depths, dtype=np.int64),
        )

    def nbytes(self) -> int:
        """Approximate memory footprint of the queue (three int64 per entry)."""
        return len(self) * 3 * 8

    def instances_present(self) -> np.ndarray:
        """Distinct instance ids that currently have entries in the queue."""
        return np.unique(np.asarray(self._instances, dtype=np.int64))

    def __len__(self) -> int:
        return len(self._vertices)

    def __bool__(self) -> bool:
        return bool(self._vertices)

    def __iter__(self) -> Iterator[FrontierEntry]:
        for v, i, d in zip(self._vertices, self._instances, self._depths):
            yield FrontierEntry(v, i, d)

    def __repr__(self) -> str:
        return f"FrontierQueue(size={len(self)})"
