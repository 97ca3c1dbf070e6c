"""Workload-aware partition scheduling and the out-of-memory sampler driver.

The :class:`OutOfMemorySampler` implements Section V of the paper:

1. the graph is partitioned into contiguous vertex ranges, each with the
   complete neighbor lists of its vertices;
2. every partition owns a frontier queue of ``(VertexID, InstanceID,
   CurrDepth)`` entries; seeds are enqueued into the partition that owns them;
3. in every scheduling round, up to ``num_kernels`` partitions are selected,
   transferred to the device if not already resident (overlapping the
   transfer with other streams' kernels) and sampled until their queues are
   empty; newly sampled vertices are pushed into the queue of the partition
   that owns them -- possibly a different one, to be processed when that
   partition is scheduled;
4. the run finishes when every queue is empty.

The three optimisations of Figures 13-15 are independent switches:

* **batched multi-instance sampling (BA)** -- process all instances' entries
  of a partition in one kernel instead of one kernel per instance;
* **workload-aware scheduling (WS)** -- schedule the partitions with the most
  active vertices first instead of in index order;
* **thread-block workload balancing (BAL)** -- give concurrently running
  kernels thread-block shares proportional to their workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.api.bias import SamplingProgram
from repro.api.config import SamplingConfig
from repro.api.instance import make_instances
from repro.api.results import SampleResult
from repro.gpusim.costmodel import CostModel
from repro.gpusim.device import Device, make_device
from repro.gpusim.prng import CounterRNG
from repro.graph.csr import CSRGraph
from repro.graph.partition import PartitionSet, partition_graph

__all__ = ["OutOfMemoryConfig", "OutOfMemoryResult", "OutOfMemorySampler"]


@dataclass(frozen=True)
class OutOfMemoryConfig:
    """Switches of the out-of-memory engine (Figures 13-15 configurations)."""

    num_partitions: int = 4
    max_resident_partitions: int = 2
    num_kernels: int = 2
    batched: bool = False
    workload_aware: bool = False
    balanced_blocks: bool = False

    def __post_init__(self) -> None:
        if self.num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        if self.max_resident_partitions < 1:
            raise ValueError("max_resident_partitions must be >= 1")
        if self.num_kernels < 1:
            raise ValueError("num_kernels must be >= 1")

    @staticmethod
    def baseline(**overrides) -> "OutOfMemoryConfig":
        """The unoptimised configuration of Fig. 13."""
        return OutOfMemoryConfig(**overrides)

    @staticmethod
    def batched_only(**overrides) -> "OutOfMemoryConfig":
        """Batched multi-instance sampling only (BA)."""
        return OutOfMemoryConfig(batched=True, **overrides)

    @staticmethod
    def batched_scheduled(**overrides) -> "OutOfMemoryConfig":
        """Batching plus workload-aware scheduling (BA + WS)."""
        return OutOfMemoryConfig(batched=True, workload_aware=True, **overrides)

    @staticmethod
    def fully_optimized(**overrides) -> "OutOfMemoryConfig":
        """All optimisations on (BA + WS + BAL)."""
        return OutOfMemoryConfig(
            batched=True, workload_aware=True, balanced_blocks=True, **overrides
        )


@dataclass
class OutOfMemoryResult:
    """Outcome of an out-of-memory sampling run."""

    sample: SampleResult
    makespan: float
    kernel_times: List[float]
    transfer_times: List[float]
    partition_transfers: int
    rounds: int
    cost: CostModel
    config: OutOfMemoryConfig
    #: Total busy time of each concurrent stream (kernel + transfer work);
    #: their spread is the workload-imbalance signal of Fig. 14.
    stream_busy_times: List[float] = field(default_factory=list)

    @property
    def total_sampled_edges(self) -> int:
        """Total sampled edges across instances."""
        return self.sample.total_sampled_edges

    def seps(self) -> float:
        """Sampled edges per simulated second of makespan (transfers included).

        The paper's out-of-memory SEPS includes partition transfer time, so
        the makespan (which overlaps transfers and kernels across streams) is
        the right denominator.
        """
        if self.makespan <= 0:
            return 0.0
        return self.total_sampled_edges / self.makespan

    def kernel_time_std(self) -> float:
        """Coefficient of variation of individual kernel durations."""
        times = np.asarray(self.kernel_times, dtype=np.float64)
        if times.size == 0 or times.mean() == 0:
            return 0.0
        return float(times.std() / times.mean())

    def stream_imbalance(self) -> float:
        """Relative imbalance of the concurrent kernels' total runtimes.

        This is the Fig. 14 metric: the straggler stream determines the
        makespan, so the normalised spread of per-stream busy time measures
        how well batching and thread-block balancing even out the work.
        """
        times = np.asarray(self.stream_busy_times, dtype=np.float64)
        if times.size == 0 or times.mean() == 0:
            return 0.0
        return float(times.std() / times.mean())


class OutOfMemorySampler:
    """Partition-scheduled sampler for graphs exceeding device memory."""

    def __init__(
        self,
        graph: CSRGraph,
        program: SamplingProgram,
        config: SamplingConfig,
        oom_config: Optional[OutOfMemoryConfig] = None,
        *,
        device: Optional[Device] = None,
        partitions: Optional[PartitionSet] = None,
        algorithm: Optional[str] = None,
    ):
        from repro.compiled.compiler import resolve_step
        from repro.engine.step import BatchedStepEngine
        from repro.graph.delta import as_csr

        graph = as_csr(graph)  # DeltaGraphs sample their canonical snapshot
        self.graph = graph
        self.program = program
        self.config = config
        # Advisory label only (plan attribution / profiler keys).
        self.algorithm = algorithm
        self.oom = oom_config or OutOfMemoryConfig()
        self.device = device if device is not None else make_device("gpu")
        self.partitions = (
            partitions
            if partitions is not None
            else partition_graph(graph, self.oom.num_partitions)
        )
        self.rng = CounterRNG(config.seed)
        # Resolved once here: the engine is kept across runs.
        self.engine = BatchedStepEngine(
            graph, program, config, self.rng,
            resolve_step(config, program=program).kind,
        )

    # ------------------------------------------------------------------ #
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
            program=self.program,
            config=self.config,
            algorithm=self.algorithm,
            instances=instances,
            oom_config=self.oom,
            force_route="out_of_memory",
        ))

    def run(
        self,
        seeds: Union[Sequence[int], Sequence[Sequence[int]], np.ndarray],
        *,
        num_instances: Optional[int] = None,
    ) -> OutOfMemoryResult:
        """Sample all instances, scheduling partitions through device memory."""
        from repro.planner.executor import Executor

        instances = make_instances(seeds, num_instances=num_instances)
        executor = Executor(
            self._plan(instances),
            self.graph,
            program=self.program,
            engine=self.engine,
            device=self.device,
            partitions=self.partitions,
        )
        return executor.execute(instances)
