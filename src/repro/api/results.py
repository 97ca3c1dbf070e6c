"""Sampling results: per-instance samples plus cost and kernel records.

The benchmarks need three things from a finished run: the sampled edges (to
compute SEPS and to hand to downstream consumers such as GNN training), the
operation counters (iterations, probes, conflicts, transfers -- the raw
material of Figures 11, 12, 14 and 15), and the per-kernel launches so the
simulated kernel time can be computed under any device spec.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.api.instance import InstanceState, offsets_from_counts
from repro.gpusim.costmodel import CostModel
from repro.gpusim.device import DeviceSpec, V100_SPEC
from repro.gpusim.kernel import KernelLaunch
from repro.graph.builder import from_edge_list
from repro.graph.csr import CSRGraph

__all__ = ["InstanceSample", "SampleColumns", "SampleResult"]


@dataclass(frozen=True)
class InstanceSample:
    """The sample produced by one instance: its seeds and sampled edges."""

    instance_id: int
    seeds: np.ndarray
    edges: np.ndarray

    @property
    def num_edges(self) -> int:
        """Number of sampled edges."""
        return int(self.edges.shape[0])

    def vertices(self) -> np.ndarray:
        """Distinct vertices touched by this instance."""
        return np.unique(np.concatenate([self.seeds, self.edges.ravel()])) if self.num_edges else np.unique(self.seeds)

    def to_subgraph(self, num_vertices: int) -> CSRGraph:
        """The sampled edges as a CSR graph over the original vertex ids."""
        return from_edge_list(self.edges, num_vertices=num_vertices)


_COLUMNS = ("instance_ids", "seed_offsets", "seeds", "edge_offsets", "edges")


class SampleColumns(Sequence):
    """Every instance's sample in one columnar container (all int64).

    C-SAW's own output layout: each instance owns a slice of one flat
    buffer.  ``instance_ids[n]``; ``seed_offsets[n + 1]`` into the flat
    ``seeds``; ``edge_offsets[n + 1]`` into the C-contiguous ``edges[m, 2]``
    (``(src, dst)`` rows, instance by instance in sampling order).  Both
    offset arrays start at 0 and end at their buffer's length.

    As a sequence it yields one :class:`InstanceSample` per instance --
    *views* into the columns, built once on first touch.  A view is not a
    defensive copy: writing through it writes the container, and holding
    one keeps the container's arrays alive.  A contiguous slice is again a
    :class:`SampleColumns` over views of the same buffers.

    This one container is what a run produces, what a worker pickles (five
    arrays, whatever the instance count), what the result cache stores and
    what a response carries.
    """

    __slots__ = _COLUMNS + ("_views",)

    def __init__(
        self,
        instance_ids: np.ndarray,
        seed_offsets: np.ndarray,
        seeds: np.ndarray,
        edge_offsets: np.ndarray,
        edges: np.ndarray,
    ):
        self.instance_ids = instance_ids
        self.seed_offsets = seed_offsets
        self.seeds = seeds
        self.edge_offsets = edge_offsets
        self.edges = edges
        self._views: Optional[List[InstanceSample]] = None

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def empty(cls) -> "SampleColumns":
        """A container of zero instances."""
        none = np.empty(0, dtype=np.int64)
        zero = np.zeros(1, dtype=np.int64)
        return cls(none, zero, none, zero, np.empty((0, 2), dtype=np.int64))

    @classmethod
    def from_owner_edges(
        cls,
        instance_ids: np.ndarray,
        seed_offsets: np.ndarray,
        seeds: np.ndarray,
        owner: np.ndarray,
        src: np.ndarray,
        dst: np.ndarray,
    ) -> "SampleColumns":
        """From flat ``(owner rank, src, dst)`` edges in sampling order.

        The sort by owner is stable, so every instance's edges keep the
        order they were drawn in.
        """
        order = np.argsort(owner, kind="stable")
        edges = np.empty((order.size, 2), dtype=np.int64)
        edges[:, 0] = src[order]
        edges[:, 1] = dst[order]
        edge_offsets = offsets_from_counts(
            np.bincount(owner, minlength=instance_ids.size)
        )
        return cls(instance_ids, seed_offsets, seeds, edge_offsets, edges)

    @classmethod
    def from_instances(cls, instances: Sequence[InstanceState]) -> "SampleColumns":
        """From finished instance states (the routes that step per instance)."""
        if not instances:
            return cls.empty()
        src_chunks: List[np.ndarray] = []
        dst_chunks: List[np.ndarray] = []
        for inst in instances:
            src, dst = inst.edge_chunks()
            src_chunks += src
            dst_chunks += dst
        edge_offsets = offsets_from_counts(
            [inst.num_sampled_edges for inst in instances]
        )
        edges = np.empty((int(edge_offsets[-1]), 2), dtype=np.int64)
        if src_chunks:
            edges[:, 0] = np.concatenate(src_chunks)
            edges[:, 1] = np.concatenate(dst_chunks)
        return cls(
            np.array([inst.instance_id for inst in instances], dtype=np.int64),
            offsets_from_counts([inst.seeds.size for inst in instances]),
            np.concatenate([inst.seeds for inst in instances]),
            edge_offsets,
            edges,
        )

    # ------------------------------------------------------------------ #
    # Columnar reads
    # ------------------------------------------------------------------ #
    @property
    def num_edges(self) -> int:
        """Total sampled edges across instances."""
        return int(self.edges.shape[0])

    def edges_per_instance(self) -> np.ndarray:
        """Sampled edge count of each instance."""
        return np.diff(self.edge_offsets)

    def arrays(self) -> tuple:
        """The five columns, in constructor order."""
        return tuple(getattr(self, name) for name in _COLUMNS)

    @property
    def nbytes(self) -> int:
        """Bytes of the five arrays."""
        return sum(int(array.nbytes) for array in self.arrays())

    def copy(self) -> "SampleColumns":
        """A container over fresh copies of the five arrays."""
        return SampleColumns(*(array.copy() for array in self.arrays()))

    def __reduce__(self):
        # The arrays alone: views are rebuilt on the other side, and a slice
        # pickles only its own rows (numpy serialises a view's content).
        return SampleColumns, self.arrays()

    # ------------------------------------------------------------------ #
    # Sequence[InstanceSample]
    # ------------------------------------------------------------------ #
    def _instance_views(self) -> List[InstanceSample]:
        if self._views is None:
            seeds, edges = self.seeds, self.edges
            seed_at = self.seed_offsets.tolist()
            edge_at = self.edge_offsets.tolist()
            self._views = [
                InstanceSample(instance_id, seeds[s_lo:s_hi], edges[e_lo:e_hi])
                for instance_id, s_lo, s_hi, e_lo, e_hi in zip(
                    self.instance_ids.tolist(),
                    seed_at, seed_at[1:], edge_at, edge_at[1:],
                )
            ]
        return self._views

    def __len__(self) -> int:
        return int(self.instance_ids.size)

    def __iter__(self) -> Iterator[InstanceSample]:
        return iter(self._instance_views())

    def __getitem__(self, index):
        if not isinstance(index, slice):
            return self._instance_views()[index]
        start, stop, step = index.indices(len(self))
        if step != 1:
            raise ValueError("SampleColumns slices must be contiguous (step 1)")
        stop = max(stop, start)
        seed_lo, seed_hi = self.seed_offsets[start], self.seed_offsets[stop]
        edge_lo, edge_hi = self.edge_offsets[start], self.edge_offsets[stop]
        return SampleColumns(
            self.instance_ids[start:stop],
            self.seed_offsets[start:stop + 1] - seed_lo,
            self.seeds[seed_lo:seed_hi],
            self.edge_offsets[start:stop + 1] - edge_lo,
            self.edges[edge_lo:edge_hi],
        )


@dataclass
class SampleResult:
    """Aggregate result of a sampling run."""

    #: One :class:`InstanceSample` view per instance, over shared columns.
    samples: SampleColumns
    cost: CostModel
    kernels: List[KernelLaunch] = field(default_factory=list)
    #: Per-selection do-while iteration counts (Fig. 11 metric).
    iteration_counts: List[int] = field(default_factory=list)
    metadata: Dict[str, object] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    @property
    def num_instances(self) -> int:
        """Number of sampling instances."""
        return len(self.samples)

    @property
    def total_sampled_edges(self) -> int:
        """Total sampled edges across instances (SEPS numerator)."""
        return self.samples.num_edges

    def edges_per_instance(self) -> np.ndarray:
        """Sampled edge count of each instance."""
        return self.samples.edges_per_instance()

    def all_edges(self) -> np.ndarray:
        """All sampled edges as one ``(n, 2)`` array (the container's own)."""
        return self.samples.edges

    def slice_instances(
        self,
        start: int,
        stop: int,
        *,
        iteration_counts: Optional[List[int]] = None,
        metadata: Optional[Dict[str, object]] = None,
    ) -> "SampleResult":
        """Result restricted to the instance range ``[start, stop)``.

        The sampling service runs many requests as one fused batch and
        demultiplexes per-request results by instance range.  Samples are
        views of this result's columns (no copy); cost and kernel records
        stay those of the whole batch -- pass ``iteration_counts`` to substitute the range's own
        counts and ``metadata`` to extend the batch metadata.
        """
        if not (0 <= start <= stop <= len(self.samples)):
            raise ValueError(
                f"invalid instance range [{start}, {stop}) for "
                f"{len(self.samples)} instances"
            )
        merged = dict(self.metadata)
        if metadata:
            merged.update(metadata)
        return SampleResult(
            samples=self.samples[start:stop],
            cost=self.cost.copy(),
            kernels=list(self.kernels),
            iteration_counts=(
                list(self.iteration_counts)
                if iteration_counts is None
                else list(iteration_counts)
            ),
            metadata=merged,
        )

    # ------------------------------------------------------------------ #
    def kernel_time(self, spec: DeviceSpec = V100_SPEC) -> float:
        """Total simulated kernel time (the paper's SEPS denominator)."""
        if self.kernels:
            return float(sum(k.duration(spec) for k in self.kernels))
        return float(self.cost.simulated_time(spec))

    def seps(self, spec: DeviceSpec = V100_SPEC) -> float:
        """Sampled edges per simulated second."""
        time = self.kernel_time(spec)
        if time <= 0:
            return float("inf") if self.total_sampled_edges else 0.0
        return self.total_sampled_edges / time

    def mean_iterations(self) -> float:
        """Average do-while iterations per selected vertex (Fig. 11)."""
        if not self.iteration_counts:
            return 0.0
        return float(np.mean(self.iteration_counts))

    def summary(self, spec: DeviceSpec = V100_SPEC) -> Dict[str, float]:
        """Flat summary dictionary used by the benchmark harness."""
        return {
            "instances": self.num_instances,
            "sampled_edges": self.total_sampled_edges,
            "kernel_time_s": self.kernel_time(spec),
            "seps": self.seps(spec),
            "mean_iterations": self.mean_iterations(),
            "collision_probes": self.cost.collision_probes,
            "selection_collisions": self.cost.selection_collisions,
            "atomic_conflicts": self.cost.atomic_conflicts,
            "partition_transfers": self.cost.partition_transfers,
            **{f"meta_{k}": v for k, v in self.metadata.items() if isinstance(v, (int, float))},
        }

    @staticmethod
    def from_instances(
        instances: List[InstanceState],
        cost: CostModel,
        *,
        kernels: Optional[List[KernelLaunch]] = None,
        iteration_counts: Optional[List[int]] = None,
        metadata: Optional[Dict[str, object]] = None,
    ) -> "SampleResult":
        """Build a result from finished instance states."""
        return SampleResult(
            samples=SampleColumns.from_instances(instances),
            cost=cost,
            kernels=kernels or [],
            iteration_counts=iteration_counts or [],
            metadata=metadata or {},
        )
