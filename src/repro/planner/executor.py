"""One executor for every :class:`~repro.planner.plan.ExecutionPlan`.

The four sampling entry points used to carry four private copies of the
run loop -- the in-memory MAIN loop, the coalesced multi-member loop, the
out-of-memory partition scheduler and the sharded cluster's epoch loop.
:class:`Executor` is that logic in one place, and it runs a plan as built:
whoever planned the run -- a facade (:func:`repro.planner.planner.plan`)
or the service (admission, cached class plan,
:func:`~repro.planner.planner.scale_plan`) -- hands the plan over together
with only what a plan cannot name: the program (or, on ``sharded``, its
registry kwargs and transport), the device and the engine.  Everything the
plan fixes -- shard bounds, out-of-memory partitions, the registry program
and its engine when the caller brings none -- is derived here.

Bit-compatibility is the headline invariant: each route's loop here is the
pre-refactor loop moved verbatim -- same warp-id allocation order, same RNG
coordinates, same per-step cost accounting -- so every registry algorithm
produces identical samples, iteration counts and cost totals through the
planner as through the old per-facade paths (asserted by
``tests/integration/test_bitcompat_matrix.py``).

The executor owns every loop.  Each step is one call to the engine's
``step_instances`` / ``expand_entries`` or, when the plan resolves to the
fused walk kernel, to that kernel's twins ``step`` / ``expand`` over
walker rows and one edge log (shards call the same ``step``).  Off the walk
kernel that is all it calls, so the equivalence suites hand it the scalar
MAIN-loop oracle (:mod:`repro.baselines.reference`) in the engine's place.
"""

from __future__ import annotations

import contextlib
import time
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.api.frontier import FrontierQueue
from repro.api.instance import InstanceBatch
from repro.api.results import SampleColumns, SampleResult
from repro.compiled.compiler import resolve_step
from repro.compiled.walk_kernel import CompiledWalkKernel, EdgeLog, WalkerBatch
from repro.engine.step import BatchedStepEngine
from repro.gpusim.costmodel import CostModel
from repro.gpusim.device import Device, make_device
from repro.gpusim.prng import CounterRNG
from repro.gpusim.kernel import KernelLaunch, StreamTimeline
from repro.gpusim.memory import TransferEngine
from repro.graph.csr import CSRGraph
from repro.graph.partition import (
    partition_bounds,
    partition_graph,
    range_owners,
    uniform_stride,
)
from repro.oom.balancing import block_fractions
from repro.oom.batching import group_entries_by_instance, single_batch
from repro.oom.transfer import PartitionResidency
from repro.planner.plan import ExecutionPlan
from repro.telemetry import profiler as _profiler
from repro.telemetry import trace as _trace
from repro.telemetry.feedback import FEEDBACK

__all__ = ["Executor"]


class Executor:
    """Runs any :class:`ExecutionPlan` on the :class:`BatchedStepEngine`.

    The constructor takes the runtime objects a plan cannot name; every one
    may stay ``None``.  Left out, the program comes from the registry
    (``plan.algorithm`` with ``program_kwargs``), the engine is a fresh
    :class:`BatchedStepEngine` bound to the run's step resolution, the
    device a fresh GPU, the out-of-memory ``partitions`` the plan's
    ``layout.oom`` split and the sharded ``transport`` in-process shards.
    ``transport``, when given, builds the transport from the shard bounds.
    Each :meth:`execute` resolves the step once
    (:func:`~repro.compiled.compiler.resolve_step`).
    """

    def __init__(
        self,
        plan: ExecutionPlan,
        graph: CSRGraph,
        *,
        program=None,
        program_kwargs: Optional[dict] = None,
        engine: Optional[BatchedStepEngine] = None,
        device: Optional[Device] = None,
        partitions=None,
        transport: Optional[Callable] = None,
    ):
        self.plan = plan
        self.graph = graph
        self.program = program
        self.program_kwargs = dict(program_kwargs or {})
        self.engine = engine
        self.device = device if device is not None else make_device("gpu")
        self.partitions = partitions
        self.transport = transport

    # ------------------------------------------------------------------ #
    def execute(
        self,
        instances: Optional[InstanceBatch] = None,
        members: Optional[Sequence[InstanceBatch]] = None,
    ):
        """Run the plan; the return type is the route's native result.

        When telemetry is active the execution is wrapped in an
        ``execute`` span and the plan's predicted-vs-actual wall time is
        recorded into the plan-cost feedback sink.  When the continuous
        profiler is on, the plan's (route, algorithm, step_tier) becomes
        the attribution context for every phase clock below this frame.
        """
        plan = self.plan
        # Unnamed plans (direct GraphSampler/OutOfMemorySampler use without
        # an advisory algorithm label) fall back to the program class so
        # profiler keys never read "None".
        algorithm = plan.algorithm or (
            type(self.program).__name__ if self.program is not None
            else "unknown"
        )
        if not _trace.active():
            if not _profiler.enabled():
                return self._execute(instances, members)
            with _profiler.profiled(plan.route, algorithm, plan.step_tier):
                return self._execute(instances, members)
        with _profiler.profiled(
            plan.route, algorithm, plan.step_tier
        ), _trace.span(
            "execute",
            route=plan.route,
            algorithm=algorithm,
            step_tier=plan.step_tier,
            num_instances=plan.num_instances,
        ):
            started = time.perf_counter()
            result = self._execute(instances, members)
            FEEDBACK.record(plan, time.perf_counter() - started)
            return result

    def _execute(
        self,
        instances: Optional[InstanceBatch] = None,
        members: Optional[Sequence[InstanceBatch]] = None,
    ):
        route = self.plan.route
        if route == "coalesced":
            if members is None:
                raise ValueError("a coalesced plan needs member instance lists")
        elif instances is None:
            raise ValueError(f"a {route} plan needs instances")
        if self.program is None and route != "sharded":
            from repro.algorithms.registry import get_algorithm

            self.program = get_algorithm(self.plan.algorithm).program_factory(
                **self.program_kwargs
            )
        # The run's one step decision: the engine built below, the walk
        # kernel and the sharded placement all follow it.  Sharded runs bind
        # no program here (each shard builds its own), so they resolve by
        # algorithm name, as their plan did.
        self._step = resolve_step(
            self.plan.config, program=self.program,
            algorithm=self.plan.algorithm,
        )
        if route == "sharded":
            return self._run_sharded(instances)
        if self.engine is None:
            config = self.plan.config
            self.engine = BatchedStepEngine(
                self.graph, self.program, config, CounterRNG(config.seed),
                self._step.kind,
            )
        if route == "coalesced":
            return self._run_coalesced(members)
        if route == "in_memory":
            return self._run_in_memory(instances)
        if route == "out_of_memory":
            return self._run_out_of_memory(instances)
        raise ValueError(f"unknown route {route!r}")  # pragma: no cover

    def _walk_kernel(self) -> Optional[CompiledWalkKernel]:
        """The walk kernel when the run resolves to it, else ``None``."""
        if self._step.kernel != "walk":
            return None
        return CompiledWalkKernel(
            self.engine, kind=self._step.kind, backend=self._step.backend
        )

    # ================================================================== #
    # In-memory MAIN loop (Fig. 2(b)) -- the GraphSampler route
    # ================================================================== #
    def _depth_loop(
        self, batch: InstanceBatch, groups=None, num_groups: int = 0
    ) -> tuple:
        """The MAIN loop of both step tiers: one simulated kernel per depth,
        stepped by the walk kernel (over rows and an edge log) or the engine
        (over instance states).

        Returns ``(kernels, cost, samples, iteration_counts)``.  ``groups``
        (coalesced runs) is each instance's member rank among
        ``num_groups`` members; each member then draws warp ids from its own
        cursor (from 0) and gets its own iteration-count list.
        """
        # The four-argument call is all the scalar oracle implements.
        grouped = () if groups is None else (
            groups, np.zeros(num_groups, dtype=np.int64)
        )
        kernel = self._walk_kernel()
        if kernel is not None:
            rows, log = WalkerBatch.seeded(batch), EdgeLog()

            def step(depth, cost):
                return kernel.step(rows, log, depth, cost, *grouped)

            loop = _trace.span(
                "compiled_run", kind=kernel.kind, backend=kernel.backend,
                instances=len(batch),
            )
        else:
            instances = batch.states()
            iterations = [] if groups is None else [[] for _ in range(num_groups)]

            def step(depth, cost):
                return self.engine.step_instances(
                    instances, depth, cost, iterations, *grouped
                )

            loop = contextlib.nullcontext()

        kernels: List[KernelLaunch] = []
        total = CostModel()
        # The step laps its own phases; this clock laps everything between
        # steps (launch records, then the close) as ``update``.
        prof = _profiler.clock(-1)
        with loop:
            for depth in range(self.plan.config.depth):
                step_cost = CostModel()
                with _trace.span("depth_step", depth=depth) as sp:
                    prof.lap("update")
                    tasks = step(depth, step_cost)
                    prof.restart()
                    sp.set(tasks=tasks)
                if tasks is None:
                    break
                step_cost.kernel_launches += 1
                kernels.append(
                    KernelLaunch(
                        name=f"kernel:depth{depth}",
                        cost=step_cost,
                        num_warp_tasks=max(tasks, 1),
                    )
                )
                total.merge(step_cost)

        if kernel is None:
            samples = SampleColumns.from_instances(instances)
            prof.lap("update")
            return kernels, total, samples, iterations
        samples = log.close(batch)
        # With-replacement selections always iterate once, so only the
        # totals matter (per member when grouped).
        if groups is None:
            iterations = [1] * samples.num_edges
        else:
            per_group = np.bincount(
                groups, weights=samples.edges_per_instance(), minlength=num_groups
            )
            iterations = [[1] * int(count) for count in per_group]
        prof.lap("update")
        return kernels, total, samples, iterations

    def _main_metadata(self) -> Dict[str, object]:
        cfg = self.plan.config
        return {
            "program": self.program.name,
            "depth": cfg.depth,
            "neighbor_size": cfg.neighbor_size,
            "frontier_size": cfg.frontier_size,
        }

    def _run_in_memory(self, batch: InstanceBatch) -> SampleResult:
        kernels, total, samples, iteration_counts = self._depth_loop(batch)
        self.device.cost.merge(total)
        return SampleResult(
            samples=samples,
            cost=self.device.cost.copy(),
            kernels=kernels,
            iteration_counts=iteration_counts,
            metadata=self._main_metadata(),
        )

    # ================================================================== #
    # Coalesced multi-member batch -- the run_coalesced route
    # ================================================================== #
    def _run_coalesced(
        self, members: Sequence[InstanceBatch]
    ) -> List[SampleResult]:
        sizes = [len(member) for member in members]
        groups = np.repeat(np.arange(len(members), dtype=np.int64), sizes)
        kernels, total, samples, member_iterations = self._depth_loop(
            InstanceBatch.concat(members), groups, len(members)
        )
        metadata = self._main_metadata()
        metadata["coalesced_members"] = len(members)
        combined = SampleResult(
            samples=samples, cost=total, kernels=kernels, metadata=metadata
        )
        results: List[SampleResult] = []
        offset = 0
        for size, iteration_counts in zip(sizes, member_iterations):
            results.append(
                combined.slice_instances(
                    offset, offset + size, iteration_counts=iteration_counts
                )
            )
            offset += size
        return results

    # ================================================================== #
    # Out-of-memory partition scheduling (Section V) -- the OOM route
    # ================================================================== #
    def _run_out_of_memory(self, batch: InstanceBatch):
        from repro.oom.scheduler import OutOfMemoryResult

        oom = self.plan.layout.oom
        if self.partitions is None:
            self.partitions = partition_graph(self.graph, oom.num_partitions)
        partitions = self.partitions
        queues: Dict[int, FrontierQueue] = {
            p: FrontierQueue() for p in range(len(partitions))
        }
        # Seeds enter the queue of the partition that owns them, instance by
        # instance in seed order: one owner lookup over the seed column.
        seed_ids = np.repeat(batch.instance_ids, np.diff(batch.seed_offsets))
        self._route_entries(
            queues, batch.seeds, seed_ids, np.zeros_like(batch.seeds)
        )

        kernel = self._walk_kernel()
        if kernel is not None:
            # The same schedule, kernel boundaries and charges, with walker
            # state kept as rows and one edge log.
            rows, log = WalkerBatch.seeded(batch), EdgeLog()

            def expand(vertices, instance_ids, depths, cost):
                return kernel.expand(
                    rows, log, vertices, instance_ids, depths, cost
                )

            def finish():
                samples = log.close(batch)
                return samples, [1] * samples.num_edges
        else:
            instances = batch.states()
            instance_map = {inst.instance_id: inst for inst in instances}
            iteration_counts: List[int] = []

            def expand(vertices, instance_ids, depths, cost):
                return self.engine.expand_entries(
                    vertices, instance_ids, depths, instance_map, cost,
                    iteration_counts,
                )

            def finish():
                return SampleColumns.from_instances(instances), iteration_counts

        transfer_engine = TransferEngine(self.device.spec.pcie_bandwidth_bytes)
        residency = PartitionResidency(
            partitions, oom.max_resident_partitions, transfer_engine
        )
        timeline = StreamTimeline(oom.num_kernels)
        total_cost = CostModel()
        kernel_times: List[float] = []
        transfer_times: List[float] = []
        rounds = 0

        while any(len(q) for q in queues.values()):
            rounds += 1
            active = {p: len(q) for p, q in queues.items() if len(q) > 0}
            chosen = self._choose_partitions(active, oom)
            fractions = block_fractions(
                [active[p] for p in chosen], balanced=oom.balanced_blocks
            )
            protect = set(chosen)
            with _trace.span("oom_round", round=rounds, partitions=len(chosen)):
                for stream_index, (partition_index, fraction) in enumerate(
                    zip(chosen, fractions)
                ):
                    stream = timeline[stream_index % len(timeline.streams)]
                    transfer_duration = residency.ensure_resident(
                        partition_index, total_cost, protect=protect
                    )
                    if transfer_duration > 0:
                        stream.enqueue(f"transfer:p{partition_index}", transfer_duration)
                        transfer_times.append(transfer_duration)
                    with _trace.span("partition_drain", partition=partition_index):
                        self._drain_partition(
                            partition_index,
                            queues,
                            expand,
                            fraction,
                            stream,
                            total_cost,
                            kernel_times,
                            oom,
                        )
                    # Paper: the actively sampled partition is released only
                    # once its frontier queue is empty, which _drain_partition
                    # ensures.
                    residency.release(partition_index)

        samples, iteration_counts = finish()
        sample = SampleResult(
            samples=samples,
            cost=total_cost.copy(),
            iteration_counts=iteration_counts,
            metadata={"program": self.program.name, "oom": True},
        )
        self.device.cost.merge(total_cost)
        return OutOfMemoryResult(
            sample=sample,
            makespan=timeline.makespan,
            kernel_times=kernel_times,
            transfer_times=transfer_times,
            partition_transfers=residency.transfer_count,
            rounds=rounds,
            cost=total_cost,
            config=oom,
            stream_busy_times=[s.busy_time() for s in timeline.streams],
        )

    def _route_entries(self, queues, vertices, instance_ids, depths) -> None:
        """Push entries onto the queue of the partition owning each vertex."""
        owners = self.partitions.owner(vertices)
        for owner in np.unique(owners).tolist():
            mask = owners == owner
            queues[owner].push_batch(
                vertices[mask], instance_ids[mask], depths[mask]
            )

    def _choose_partitions(self, active: Dict[int, int], oom) -> List[int]:
        """Pick up to ``num_kernels`` partitions to sample this round."""
        limit = min(oom.num_kernels, oom.max_resident_partitions, len(active))
        if oom.workload_aware:
            ordered = sorted(active, key=lambda p: (-active[p], p))
        else:
            ordered = sorted(active)
        return ordered[:limit]

    def _drain_partition(
        self,
        partition_index: int,
        queues: Dict[int, FrontierQueue],
        expand: Callable,
        fraction: float,
        stream,
        total_cost: CostModel,
        kernel_times: List[float],
        oom,
    ) -> None:
        """Sample a resident partition until its frontier queue is empty.

        ``expand(vertices, instance_ids, depths, cost)`` runs one kernel over
        a group of entries and returns their successor entries -- the walk
        kernel's ``expand`` or the engine's ``expand_entries``.
        """
        queue = queues[partition_index]
        while len(queue):
            vertices, instance_ids, depths = queue.pop_all()
            if oom.batched:
                groups = single_batch(vertices, instance_ids, depths)
            else:
                groups = group_entries_by_instance(vertices, instance_ids, depths)
            for group_vertices, group_instances, group_depths in groups:
                kernel_cost = CostModel()
                succ_v, succ_i, succ_d = expand(
                    group_vertices, group_instances, group_depths, kernel_cost
                )
                if succ_v.size:
                    self._route_entries(queues, succ_v, succ_i, succ_d)
                kernel_cost.kernel_launches += 1
                launch = KernelLaunch(
                    name=f"kernel:p{partition_index}",
                    cost=kernel_cost,
                    block_fraction=float(fraction),
                    num_warp_tasks=max(int(group_vertices.size), 1),
                )
                duration = launch.duration(self.device.spec)
                stream.enqueue(launch.name, duration)
                kernel_times.append(duration)
                total_cost.merge(kernel_cost)

    # ================================================================== #
    # Sharded cluster epochs + reassembly -- the cluster route
    # ================================================================== #
    def _run_sharded(self, batch: InstanceBatch):
        # Deferred: repro.distributed's __init__ pulls the coordinator,
        # which itself plans+executes through this module.
        from repro.distributed.router import (
            MigrationRouter,
            WalkerEnvelope,
            bucket_by_shard,
        )
        from repro.distributed.transport import InProcessTransport

        layout = self.plan.layout
        # Admission leaves the boundaries to the graph the run samples.
        bounds = np.asarray(
            layout.boundaries
            or partition_bounds(self.graph, layout.num_partitions),
            dtype=np.int64,
        )
        num_shards = int(bounds.size - 1)
        stride = uniform_stride(bounds)
        # The trace context rides the walkers so shard runtimes (possibly
        # in other processes) join this request's span tree.
        ctx = _trace.current()
        if self._step.kernel == "walk":
            # Walk-kernel shards hold their walkers as columns: each shard
            # is admitted the slice of the batch whose seeds it owns.
            walkers = WalkerBatch.seeded(batch, ctx)
            placement = walkers.split(
                range_owners(bounds, walkers.heads(), stride=stride)
            )
        else:
            placement = bucket_by_shard(
                [WalkerEnvelope(instance=inst, trace_ctx=ctx) for inst in batch],
                bounds, stride=stride,
            )

        router = MigrationRouter(num_shards)
        epochs = 0
        if self.transport is not None:
            transport = self.transport(bounds)
        else:
            transport = InProcessTransport(
                self.graph, bounds, self.plan.algorithm, self.program_kwargs,
                self.plan.config,
            )
        try:
            transport.admit(placement)
            active = len(batch)
            for depth in range(self.plan.config.depth):
                if active == 0:
                    break
                epochs += 1
                with _trace.span("shard_epoch", depth=depth) as sp:
                    outboxes, actives = transport.step_all(depth)
                    inboxes = router.exchange(outboxes)
                    transport.admit(inboxes)
                    active = sum(actives) + sum(len(v) for v in inboxes.values())
                    sp.set(active=active)
            with _trace.span("reassemble", shards=num_shards):
                reports = transport.collect()
        finally:
            transport.close()
        prof = _profiler.clock(-1)
        result = self._reassemble_shards(
            reports, batch, epochs, router.migrations, num_shards,
            transport.name,
        )
        prof.lap("reassemble")
        return result

    def _reassemble_shards(
        self,
        reports,
        batch: InstanceBatch,
        epochs: int,
        migrations: int,
        num_shards: int,
        transport_name: str,
    ):
        from repro.distributed.coordinator import ClusterResult

        total_cost = CostModel()
        for report in reports:  # shard order; integer counters commute
            total_cost.merge(report.cost)
        # One fused launch per epoch, like the single-device MAIN loop --
        # and unlike per-shard counting, invariant across shard counts.
        total_cost.kernel_launches = epochs

        if reports and reports[0].walkers is not None:
            # Walk-kernel shards: each walker's steps ran on one shard each,
            # so the concatenated logs close like one.
            self._check_walkers(
                np.concatenate([r.walkers.ids for r in reports]), batch
            )
            samples = sum(
                (r.log for r in reports), EdgeLog(by_id=True)
            ).close(batch)
            # With-replacement walks iterate once per selection.
            iteration_counts = [1] * samples.num_edges
        else:
            samples, iteration_counts = self._envelope_samples(reports, batch)
        cfg = self.plan.config
        result = SampleResult(
            samples=samples,
            cost=total_cost,
            iteration_counts=iteration_counts,
            metadata={
                "program": self.plan.algorithm,
                "depth": cfg.depth,
                "neighbor_size": cfg.neighbor_size,
                "frontier_size": cfg.frontier_size,
                "sharded": True,
            },
        )
        return ClusterResult(
            result=result,
            num_shards=num_shards,
            transport=transport_name,
            epochs=epochs,
            migrations=migrations,
            shard_costs=[r.cost for r in reports],
            shard_kernels=[r.kernels for r in reports],
            shard_admitted=[r.admitted for r in reports],
        )

    @staticmethod
    def _check_walkers(reported: np.ndarray, batch: InstanceBatch) -> None:
        """Every walker of ``batch`` reported by exactly one shard."""
        ids = np.sort(reported)
        twice = ids[1:][ids[1:] == ids[:-1]]
        if twice.size:
            raise RuntimeError(f"walker {int(twice[0])} reported by two shards")
        missing = np.setdiff1d(batch.instance_ids, ids)
        if missing.size:
            raise RuntimeError(f"walkers lost during the run: {missing.tolist()}")

    def _envelope_samples(self, reports, batch: InstanceBatch):
        """``(samples, iteration_counts)`` of envelope shards, walkers in
        instance-id order."""
        envelopes = [env for report in reports for env in report.envelopes]
        self._check_walkers(
            np.asarray([env.instance_id for env in envelopes], dtype=np.int64),
            batch,
        )
        envelopes.sort(key=lambda env: env.instance_id)
        iteration_counts: List[int] = []
        for env in envelopes:
            iteration_counts.extend(env.iterations)
        return (
            SampleColumns.from_instances([env.instance for env in envelopes]),
            iteration_counts,
        )
