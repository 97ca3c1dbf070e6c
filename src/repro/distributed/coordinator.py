"""Cluster coordinator: seed placement, depth epochs, result reassembly.

:class:`ShardedSamplingCluster` is the front door of the sharded tier.  One
``run`` proceeds in bulk-synchronous *epochs*, one per MAIN-loop depth:

1. **seed placement** -- instances are built exactly as a standalone run
   builds them (global ids ``0..N-1``) and each walker is admitted to the
   shard owning its routing vertex;
2. **epoch** -- every shard advances its resident walkers one depth step
   (in parallel under the multiprocess transport), then the
   :class:`~repro.distributed.router.MigrationRouter` exchanges the walkers
   whose frontier crossed a partition boundary;
3. **termination** -- the run ends after ``config.depth`` epochs or as soon
   as no shard holds an active walker and none is in flight;
4. **reassembly** -- walkers are collected from all shards and stitched
   back into one :class:`~repro.api.results.SampleResult` in instance-id
   order, with cost totals summed across shards (integer counters, so the
   sum is independent of how work was spread).

**Shard-count invariance contract.**  For a fixed seed, ``run`` returns
bit-identical samples, iteration counts and cost totals for *any* shard
count and either transport, because every walker computes on private
streams (see ``docs/distributed.md``).  Equivalently: each walker's sample
equals a standalone single-instance :class:`~repro.api.sampler.
GraphSampler` run constructed with the same global instance id.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.api.config import SamplingConfig
from repro.api.instance import make_instances
from repro.api.results import SampleResult
from repro.distributed.transport import MultiprocessTransport
from repro.gpusim.costmodel import CostModel
from repro.gpusim.device import DeviceSpec, V100_SPEC
from repro.graph.partition import partition_bounds
from repro.service.store import SharedGraphStore

__all__ = ["ClusterResult", "ShardedSamplingCluster"]


@dataclass
class ClusterResult:
    """Outcome of one sharded sampling run."""

    #: The reassembled result; bit-identical for every shard count.
    result: SampleResult
    num_shards: int
    transport: str
    #: Depth epochs actually executed (early termination stops the loop).
    epochs: int
    #: Walkers shipped between shards over the whole run.
    migrations: int
    #: Per-shard sampling cost (per-segment charges only).
    shard_costs: List[CostModel] = field(default_factory=list)
    #: Per-shard simulated kernels (one per depth step the shard ran).
    shard_kernels: List[List] = field(default_factory=list)
    #: Walkers admitted per shard (seeds + immigrants).
    shard_admitted: List[int] = field(default_factory=list)

    @property
    def total_sampled_edges(self) -> int:
        """Total sampled edges across all walkers."""
        return self.result.total_sampled_edges

    def shard_busy_times(self, spec: DeviceSpec = V100_SPEC) -> List[float]:
        """Simulated kernel time of each shard's device."""
        return [
            float(sum(k.duration(spec) for k in kernels))
            for kernels in self.shard_kernels
        ]

    def makespan(self, spec: DeviceSpec = V100_SPEC) -> float:
        """Cluster completion time: the slowest shard's simulated busy time.

        Shards sample their partitions concurrently (that is the point of
        the tier), so the straggler sets the clock -- the same model the
        multi-GPU scaling figure uses.
        """
        return max(self.shard_busy_times(spec), default=0.0)

    def seps(self, spec: DeviceSpec = V100_SPEC) -> float:
        """Sampled edges per simulated second of cluster makespan."""
        makespan = self.makespan(spec)
        if makespan <= 0:
            return float("inf") if self.total_sampled_edges else 0.0
        return self.total_sampled_edges / makespan

    def summary(self, spec: DeviceSpec = V100_SPEC) -> Dict[str, float]:
        """Flat summary for the benchmark harness."""
        return {
            "num_shards": self.num_shards,
            "epochs": self.epochs,
            "migrations": self.migrations,
            "sampled_edges": self.total_sampled_edges,
            "makespan_s": self.makespan(spec),
            "seps": self.seps(spec),
        }


class ShardedSamplingCluster:
    """Partition-aware sharded sampler with cross-shard walker migration."""

    def __init__(
        self,
        graph,
        algorithm: str,
        config: Optional[SamplingConfig] = None,
        *,
        num_shards: int = 2,
        program_kwargs: Optional[dict] = None,
        transport: str = "in_process",
        balance: str = "vertices",
        mp_context: str = "spawn",
        store: Optional[SharedGraphStore] = None,
        graph_name: str = "cluster-graph",
    ):
        """``transport`` is ``"in_process"`` (shards in this process; the
        service route and benchmark configuration) or ``"multiprocess"``
        (one OS process per shard, graph shared via
        :mod:`repro.service.store`; pass ``store``/``graph_name`` to reuse
        an already-published graph).  ``balance`` picks the partition
        policy (see :func:`repro.graph.partition.partition_bounds`)."""
        from repro.algorithms.registry import default_config
        from repro.graph.delta import as_csr

        if transport not in ("in_process", "multiprocess"):
            raise ValueError(f"unknown transport {transport!r}")
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.graph = as_csr(graph)
        self.algorithm = algorithm
        self.program_kwargs = dict(program_kwargs or {})
        self.config = (
            config if config is not None else default_config(algorithm)
        )
        self.bounds = partition_bounds(
            self.graph, min(num_shards, self.graph.num_vertices), balance=balance
        )
        self.transport = transport
        self._mp_context = mp_context
        self._store = store
        self._graph_name = graph_name

    @property
    def num_shards(self) -> int:
        """Actual shard count (bound collapsing can reduce tiny requests)."""
        return int(self.bounds.size - 1)

    # ------------------------------------------------------------------ #
    def _multiprocess_transport(self, bounds: np.ndarray):
        return MultiprocessTransport(
            self.graph,
            bounds,
            self.algorithm,
            self.program_kwargs,
            self.config,
            mp_context=self._mp_context,
            store=self._store,
            graph_name=self._graph_name,
        )

    def plan(
        self,
        seeds: Union[Sequence[int], Sequence[Sequence[int]], np.ndarray],
        *,
        num_instances: Optional[int] = None,
    ):
        """The :class:`ExecutionPlan` a :meth:`run` with these seeds executes.

        Also performs the uniform plan-time seed validation.
        """
        return self._plan(make_instances(seeds, num_instances=num_instances))

    def _plan(self, instances):
        from repro.planner.planner import PlanRequest, plan

        return plan(PlanRequest(
            graph=self.graph,
            algorithm=self.algorithm,
            config=self.config,
            instances=instances,
            boundaries=self.bounds,
            force_route="sharded",
        ))

    def run(
        self,
        seeds: Union[Sequence[int], Sequence[Sequence[int]], np.ndarray],
        *,
        num_instances: Optional[int] = None,
    ) -> ClusterResult:
        """Sample all instances across the shards and reassemble the result."""
        from repro.planner.executor import Executor

        instances = make_instances(seeds, num_instances=num_instances)
        # In-process shards are the Executor's own; only the multiprocess
        # transport needs this facade's store and spawn context.
        executor = Executor(
            self._plan(instances),
            self.graph,
            program_kwargs=self.program_kwargs,
            transport=(
                self._multiprocess_transport
                if self.transport == "multiprocess"
                else None
            ),
        )
        return executor.execute(instances)
