"""Per-instance sampling state.

A sampling *instance* corresponds to one sampled subgraph (or one walk): it
owns a frontier pool, the edges sampled so far, an optional visited set (for
sampling without revisits) and bookkeeping such as the vertex visited at the
previous step (needed by node2vec's dynamic bias) and the current depth.

Thousands of instances run concurrently in C-SAW; each instance's randomness
is keyed by its ``instance_id`` so results are independent of scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.planner.errors import SeedValidationError  # leaf module, no cycle

__all__ = ["InstanceBatch", "InstanceState", "make_instances"]

_EMPTY = np.empty(0, dtype=np.int64)


def offsets_from_counts(counts) -> np.ndarray:
    """``[0, c0, c0 + c1, ...]``: the ``n + 1`` range bounds of ``n`` counts."""
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets


@dataclass
class InstanceState:
    """Mutable state of one sampling instance."""

    instance_id: int
    frontier_pool: np.ndarray
    depth: int = 0
    finished: bool = False
    #: Vertex explored at the preceding step (node2vec's ``PrevSource``).
    #:
    #: **Contract:** the samplers maintain this field only for *single-vertex
    #: (walk-style) frontiers* -- the one case where "the vertex the walker
    #: came from" is well defined.  When an instance expands several frontier
    #: vertices in one iteration the field keeps its previous value; dynamic
    #: biases that read it (node2vec) are therefore only meaningful for
    #: NeighborSize/FrontierSize = 1 walk configurations.  (The out-of-memory
    #: scheduler additionally updates it per expanded queue entry, which
    #: coincides with this contract for walk workloads.)
    prev_vertex: int = -1
    #: The seed vertices this instance started from (immutable copy of the
    #: initial frontier pool).
    seeds: np.ndarray = field(default=None)
    #: Sampled edges, stored as chunks of (src, dst) arrays so batched
    #: recording appends whole arrays instead of per-edge Python ints.
    _src: List[np.ndarray] = field(default_factory=list)
    _dst: List[np.ndarray] = field(default_factory=list)
    _num_edges: int = 0
    _visited: Optional[set] = None

    def __post_init__(self) -> None:
        self.frontier_pool = np.asarray(self.frontier_pool, dtype=np.int64).reshape(-1)
        if self.seeds is None:
            self.seeds = self.frontier_pool.copy()
        else:
            self.seeds = np.asarray(self.seeds, dtype=np.int64).reshape(-1)

    # ------------------------------------------------------------------ #
    @property
    def visited(self) -> set:
        """Per-instance visited set, seeded from the seeds on first touch
        (most configs never track visits, so most instances never build it)."""
        if self._visited is None:
            self._visited = set(self.seeds.tolist())
        return self._visited

    @property
    def num_sampled_edges(self) -> int:
        """Number of edges recorded so far."""
        return self._num_edges

    @property
    def pool_size(self) -> int:
        """Current frontier pool size."""
        return int(self.frontier_pool.size)

    def record_edges(self, src: int | np.ndarray, dst: np.ndarray) -> None:
        """Append sampled edges ``(src, dst_i)`` to the instance sample."""
        dst = np.asarray(dst, dtype=np.int64).reshape(-1)
        if dst.size == 0:
            return
        src_arr = np.ascontiguousarray(
            np.broadcast_to(np.asarray(src, dtype=np.int64), dst.shape)
        )
        self._src.append(src_arr)
        self._dst.append(dst)
        self._num_edges += int(dst.size)

    def sampled_edges(self) -> np.ndarray:
        """Sampled edges as an ``(n, 2)`` array in sampling order."""
        if not self._src:
            return np.empty((0, 2), dtype=np.int64)
        return np.column_stack([np.concatenate(self._src),
                                np.concatenate(self._dst)])

    def edge_chunks(self) -> Tuple[List[np.ndarray], List[np.ndarray]]:
        """The recorded ``(src, dst)`` chunk lists, in sampling order."""
        return self._src, self._dst

    def sampled_vertices(self) -> np.ndarray:
        """Distinct vertices appearing in the sample (sources, targets, seeds)."""
        edges = self.sampled_edges()
        return np.unique(np.concatenate([self.frontier_pool, edges.ravel()]))

    def mark_visited(self, vertices: np.ndarray) -> None:
        """Add vertices to the visited set."""
        self.visited.update(np.asarray(vertices).reshape(-1).tolist())

    def unvisited(self, vertices: np.ndarray) -> np.ndarray:
        """Subset of ``vertices`` not yet in the visited set (order preserved)."""
        vertices = np.asarray(vertices, dtype=np.int64).reshape(-1)
        visited = self.visited
        mask = np.fromiter((v not in visited for v in vertices.tolist()), dtype=bool,
                           count=vertices.size)
        return vertices[mask]

    def set_pool(self, vertices: np.ndarray) -> None:
        """Replace the frontier pool."""
        self.frontier_pool = np.asarray(vertices, dtype=np.int64).reshape(-1)

    def __repr__(self) -> str:
        return (
            f"InstanceState(id={self.instance_id}, pool={self.pool_size}, "
            f"edges={self.num_sampled_edges}, depth={self.depth}, finished={self.finished})"
        )


class InstanceBatch(Sequence):
    """The instances of one run as columns: ids, seed offsets, flat seeds.

    ``instance_ids[n]`` and ``seed_offsets[n + 1]`` index the flat int64
    ``seeds`` array -- C-SAW's own layout for per-instance ranges of one
    preallocated buffer.  The fused walk kernel and plan-time validation
    read the columns; routes that step per instance (engine, out-of-memory,
    sharded) index or iterate the batch, which builds the
    :class:`InstanceState` objects once, on first touch.
    """

    __slots__ = ("instance_ids", "seed_offsets", "seeds", "_states")

    def __init__(
        self, instance_ids: np.ndarray, seed_offsets: np.ndarray, seeds: np.ndarray
    ):
        self.instance_ids = instance_ids
        self.seed_offsets = seed_offsets
        self.seeds = seeds
        self._states: Optional[List[InstanceState]] = None

    @classmethod
    def concat(cls, batches: Sequence["InstanceBatch"]) -> "InstanceBatch":
        """One batch over several members' instances, in member order
        (ids are kept as they are: every member restarts at 0)."""
        if not batches:
            return cls(_EMPTY, np.zeros(1, dtype=np.int64), _EMPTY)
        return cls(
            np.concatenate([b.instance_ids for b in batches]),
            offsets_from_counts(
                np.concatenate([np.diff(b.seed_offsets) for b in batches])
            ),
            np.concatenate([b.seeds for b in batches]),
        )

    def states(self) -> List[InstanceState]:
        """The per-instance state objects (built once, then shared)."""
        if self._states is None:
            bounds = self.seed_offsets.tolist()
            pools = [self.seeds[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
            self._states = [
                InstanceState(instance_id=instance_id, frontier_pool=pool, seeds=pool)
                for instance_id, pool in zip(self.instance_ids.tolist(), pools)
            ]
        return self._states

    def __len__(self) -> int:
        return int(self.instance_ids.size)

    def __getitem__(self, index):
        return self.states()[index]

    def __iter__(self) -> Iterator[InstanceState]:
        return iter(self.states())

    def validate(self, num_vertices: int, *, reject_duplicates: bool = False) -> None:
        """Reject bad seed sets: the planner's uniform plan-time validation.

        An empty batch, an instance with no seeds or a seed outside
        ``[0, num_vertices)`` raise the same
        :class:`~repro.planner.errors.SeedValidationError` (a ``ValueError``
        subclass), no matter which entry point the run came through.

        ``reject_duplicates`` additionally rejects duplicate seed vertices
        inside one instance's initial pool.  The planner sets it for
        without-replacement (traversal-sampling) configs, where a duplicate
        seed is a user error; with-replacement walks legitimately start
        several walkers on one vertex.
        """
        if len(self) == 0:
            raise SeedValidationError("at least one seed is required")
        offsets, seeds = self.seed_offsets, self.seeds
        counts = offsets[1:] - offsets[:-1]
        if counts.min() == 0:
            raise SeedValidationError(
                f"instance {self.instance_ids[counts.argmin()]} has no seed vertices"
            )
        if seeds.min() < 0 or seeds.max() >= num_vertices:
            bad = np.flatnonzero((seeds < 0) | (seeds >= num_vertices))[0]
            rank = np.searchsorted(offsets, bad, side="right") - 1
            raise SeedValidationError(
                f"instance {self.instance_ids[rank]} has seed vertices "
                "outside the graph"
            )
        if reject_duplicates and seeds.size > counts.size:
            # Sort by (instance, vertex): a duplicate is an equal neighbour
            # pair that does not straddle an instance boundary.
            owner = np.repeat(np.arange(counts.size), counts)
            order = np.lexsort((seeds, owner))
            same = (np.diff(seeds[order]) == 0) & (np.diff(owner[order]) == 0)
            if same.any():
                rank = owner[order][np.flatnonzero(same)[0]]
                raise SeedValidationError(
                    f"instance {self.instance_ids[rank]} has duplicate seed "
                    "vertices (sampling without replacement)"
                )


def make_instances(
    seeds: Sequence[int] | Sequence[Sequence[int]] | np.ndarray,
    *,
    num_instances: Optional[int] = None,
) -> InstanceBatch:
    """Create the instance batch of a run from its seed vertices.

    ``seeds`` may be a flat sequence (one seed per instance) or a sequence of
    sequences (multiple seeds per instance, e.g. multi-dimensional random
    walk).  When ``num_instances`` is given the seeds (or seed groups) are
    reused round-robin, or truncated, to reach the requested count.
    """
    if not (isinstance(seeds, np.ndarray) and seeds.ndim == 1):
        seeds = list(seeds)
    if len(seeds) == 0:
        raise SeedValidationError("at least one seed is required")
    if isinstance(seeds[0], (list, tuple, np.ndarray)):
        if num_instances is not None:
            reps = -(-num_instances // len(seeds))
            seeds = (list(seeds) * reps)[:num_instances]
        pools = [np.asarray(pool, dtype=np.int64).reshape(-1) for pool in seeds]
        flat = np.concatenate(pools)
        offsets = offsets_from_counts([pool.size for pool in pools])
    else:
        flat = np.array(seeds, dtype=np.int64)
        if num_instances is not None:
            flat = np.resize(flat, num_instances)  # round-robin / truncate
        offsets = np.arange(flat.size + 1, dtype=np.int64)
    return InstanceBatch(np.arange(offsets.size - 1, dtype=np.int64), offsets, flat)
