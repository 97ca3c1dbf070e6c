"""One shard of the sampling cluster: a partition-scoped engine runtime.

A :class:`ShardRuntime` owns one contiguous vertex-range partition of the
graph and advances, depth step by depth step, exactly the walkers whose
current frontier it owns.  Per depth step it:

1. advances every resident active walker one MAIN-loop iteration on the
   batched execution engine (:class:`~repro.engine.step.BatchedStepEngine`);
2. records the step as one simulated kernel on the shard's device timeline
   (the cluster's throughput model: shards sample concurrently, the slowest
   shard sets the makespan);
3. buckets the walkers whose new frontier left the owned range by
   destination shard (vectorised) and hands them to the migration router.

**Shard-count invariance.**  Every walker computes on private streams: its
instance id, its own warp cursor (per-instance warp groups, carried in the
walker's envelope across migrations) and the stateless counter RNG.  A
step's selections and per-segment cost charges therefore depend only on the
walker's own history, never on which shard ran it or what else shared the
batch -- which is why results and cost totals are bit-identical across 1, 2
and 4 shards (``tests/integration/test_sharded_bitcompat.py``).

Two execution paths mirror the service's coalescing rule:

* ``supports_coalescing`` programs share one program object and one engine
  per shard; all residents advance as a single fused batch with
  per-instance warp groups (fast path -- this is what the throughput
  benchmark exercises);
* stateful programs (private hook RNG streams) get one program + engine per
  walker, both travelling with the walker, so hook draws are consumed in a
  placement-independent order; each replica is seeded per walker
  (:func:`walker_program_seed`) so the walkers' private streams stay
  statistically independent of each other.

Like the out-of-memory scheduler, the runtime reads the full CSR (one
shared-memory copy cluster-wide, see ``docs/distributed.md``); the
partition defines *ownership* -- which shard advances which walker -- and
the simulated per-shard device work, not a physical slice of host memory.
"""

from __future__ import annotations

import inspect
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.api.config import SamplingConfig
from repro.api.instance import InstanceState
from repro.compiled.step_engine import CompiledStepEngine, make_step_engine
from repro.engine.hetero import GroupedIterationSink, member_map
from repro.distributed.router import WalkerEnvelope, routing_vertex
from repro.gpusim.costmodel import CostModel
from repro.gpusim.kernel import KernelLaunch
from repro.gpusim.prng import CounterRNG, splitmix64
from repro.graph.csr import CSRGraph
from repro.graph.partition import range_owners, uniform_stride
from repro.telemetry import profiler as _profiler
from repro.telemetry import trace as _trace

__all__ = ["ShardReport", "ShardRuntime", "walker_program_seed"]


def walker_program_seed(base_seed: int, instance_id: int) -> int:
    """Hook-RNG seed of one walker's private stateful-program replica.

    Each walker owns its own program copy (see the module docstring), so the
    copies must not share a hook-RNG stream: with a common seed every
    forest-fire walker would burn the same neighbor-count sequence and every
    jump walker would teleport to the same vertex at the same step.  Mixing
    the user's program seed with the global instance id gives independent
    per-walker streams that are still a pure function of walker identity --
    placement cannot change them, preserving shard-count invariance.
    """
    mixed = splitmix64(
        np.uint64(base_seed & 0xFFFFFFFFFFFFFFFF)
    ) ^ splitmix64(np.uint64(instance_id + 1))
    return int(splitmix64(mixed))


class ShardReport:
    """Everything a shard returns at collection time."""

    def __init__(
        self,
        shard_index: int,
        envelopes: List[WalkerEnvelope],
        cost: CostModel,
        kernels: List[KernelLaunch],
        steps: int,
        admitted: int,
        emigrated: int,
        telemetry: Optional[tuple] = None,
    ):
        self.shard_index = shard_index
        #: Every walker resident at collection (finished and active alike).
        self.envelopes = envelopes
        #: Sum of the shard's per-segment sampling charges (ints only, so
        #: cluster-level merging is order-independent).
        self.cost = cost
        #: One simulated kernel per depth step the shard actually ran.
        self.kernels = kernels
        self.steps = steps
        self.admitted = admitted
        self.emigrated = emigrated
        #: The shard process's telemetry envelope
        #: (:func:`repro.telemetry.drain_envelope`), shipped with the report;
        #: ``None`` for in-process shards, which record straight into the
        #: coordinator's buffers.
        self.telemetry = telemetry


class _WalkerRecord:
    """Shard-resident execution context of one walker."""

    __slots__ = ("instance", "warp_cursor", "iterations", "program", "engine")

    def __init__(self, instance, warp_cursor, iterations, program, engine):
        self.instance = instance
        self.warp_cursor = warp_cursor
        self.iterations = iterations
        self.program = program
        self.engine = engine


class ShardRuntime:
    """Executes one partition's share of a sampling run."""

    def __init__(
        self,
        shard_index: int,
        graph: CSRGraph,
        bounds: np.ndarray,
        algorithm: str,
        program_kwargs: Optional[dict],
        config: SamplingConfig,
    ):
        from repro.algorithms.registry import get_algorithm
        from repro.graph.delta import as_csr

        self.shard_index = int(shard_index)
        self.graph = as_csr(graph)
        self.bounds = np.asarray(bounds, dtype=np.int64)
        self._stride = uniform_stride(self.bounds)
        if not (0 <= self.shard_index < self.bounds.size - 1):
            raise ValueError(
                f"shard index {shard_index} outside partitioning "
                f"({self.bounds.size - 1} shards)"
            )
        self.config = config
        self.algorithm = algorithm
        self._kwargs = dict(program_kwargs or {})
        self._factory = get_algorithm(algorithm).program_factory
        probe = self._factory(**self._kwargs)
        self.coalescable = bool(probe.supports_coalescing)
        #: Stateful programs with a ``seed`` constructor argument get one
        #: derived seed per walker (see :func:`walker_program_seed`).
        self._derive_program_seed = False
        if not self.coalescable:
            try:
                parameters = inspect.signature(self._factory).parameters
                self._derive_program_seed = "seed" in parameters
            except (TypeError, ValueError):  # pragma: no cover - odd factory
                self._derive_program_seed = False
            self._base_program_seed = int(self._kwargs.get("seed", 0))
        self._rng = CounterRNG(config.seed)
        #: Shared engine for coalescable programs (one fused batch per step).
        self._engine = (
            make_step_engine(self.graph, probe, config, self._rng, "sharded")
            if self.coalescable
            else None
        )
        #: The step tier this shard actually runs (profiler attribution):
        #: compiled exactly when the shared engine is the compiled
        #: specialisation.  Stateful programs get private interpreted
        #: engines, so the private path always reports interpreted.
        self.step_tier = (
            "compiled"
            if isinstance(self._engine, CompiledStepEngine)
            else "interpreted"
        )
        #: Resident walkers keyed by global instance id.
        self._records: Dict[int, _WalkerRecord] = {}
        #: Trace context adopted from the first carrying envelope, so shard
        #: spans (possibly minted in a shard process) join the request tree.
        self._trace_ctx = None
        self.cost = CostModel()
        self.kernels: List[KernelLaunch] = []
        self.steps = 0
        self.admitted = 0
        self.emigrated = 0

    # ------------------------------------------------------------------ #
    @property
    def lo(self) -> int:
        """First vertex of the owned range."""
        return int(self.bounds[self.shard_index])

    @property
    def hi(self) -> int:
        """One past the last vertex of the owned range."""
        return int(self.bounds[self.shard_index + 1])

    def active_count(self) -> int:
        """Resident walkers that still have work."""
        return sum(
            1
            for r in self._records.values()
            if not r.instance.finished and r.instance.pool_size > 0
        )

    def resident_count(self) -> int:
        """All resident walkers, finished included."""
        return len(self._records)

    # ------------------------------------------------------------------ #
    def admit(self, envelopes: List[WalkerEnvelope]) -> None:
        """Accept walkers (initial seeds or immigrants) into this shard."""
        for env in envelopes:
            if self._trace_ctx is None and env.trace_ctx is not None:
                self._trace_ctx = env.trace_ctx
            instance_id = env.instance_id
            if instance_id in self._records:
                raise ValueError(
                    f"walker {instance_id} is already resident on shard "
                    f"{self.shard_index}"
                )
            program = engine = None
            if not self.coalescable:
                # The walker's private program (mid-stream hook RNG state)
                # arrives with it; a fresh one is built only at seeding.
                if env.program is not None:
                    program = env.program
                else:
                    kwargs = dict(self._kwargs)
                    if self._derive_program_seed:
                        kwargs["seed"] = walker_program_seed(
                            self._base_program_seed, instance_id
                        )
                    program = self._factory(**kwargs)
                engine = make_step_engine(
                    self.graph, program, self.config,
                    CounterRNG(self.config.seed), "sharded",
                )
                engine.warp_counter = int(env.warp_cursor)
            self._records[instance_id] = _WalkerRecord(
                env.instance, int(env.warp_cursor), env.iterations, program, engine
            )
            self.admitted += 1

    # ------------------------------------------------------------------ #
    def step(self, depth: int) -> Dict[int, List[WalkerEnvelope]]:
        """Advance resident walkers one depth step; return the outboxes.

        The returned mapping holds, per destination shard, the walkers whose
        new frontier left the owned range (this shard excluded).
        """
        active = [
            self._records[instance_id]
            for instance_id in sorted(self._records)
            if not self._records[instance_id].instance.finished
            and self._records[instance_id].instance.pool_size > 0
        ]
        if not active:
            return {}
        step_cost = CostModel()
        # Adopt the envelope-carried context only when no ambient one exists
        # (shard processes); in-process shards nest under the epoch span.
        ctx = self._trace_ctx if _trace.current() is None else None
        # Shard processes have no ambient profiling context, so pin the
        # attribution here; on the coordinator thread this restates the
        # Executor's identical context.
        with _trace.activated(ctx), _profiler.profiled(
            "sharded", self.algorithm, self.step_tier
        ), _trace.span(
            "shard_step",
            shard=self.shard_index,
            depth=depth,
            walkers=len(active),
        ):
            if self.coalescable:
                tasks = self._step_fused(active, depth, step_cost)
            else:
                tasks = self._step_private(active, depth, step_cost)
            self.cost.merge(step_cost)
            self.steps += 1
            if tasks:
                self.kernels.append(
                    KernelLaunch(
                        name=f"kernel:shard{self.shard_index}:depth{depth}",
                        cost=step_cost.copy(),
                        num_warp_tasks=max(tasks, 1),
                    )
                )
            prof = _profiler.clock(depth)
            outboxes = self._emigrate(active)
            prof.lap("migrate")
        return outboxes

    def _step_fused(
        self, active: List[_WalkerRecord], depth: int, cost: CostModel
    ) -> int:
        """One fused engine batch with per-walker warp groups."""
        member_of, instances = member_map([[r.instance] for r in active])
        cursors = np.asarray([r.warp_cursor for r in active], dtype=np.int64)
        self._engine.set_warp_groups(member_of, len(active), initial_cursors=cursors)
        sink = GroupedIterationSink(member_of, len(active))
        tasks = self._engine.step_instances(instances, depth, cost, sink)
        cursors = self._engine.group_cursors()
        for rank, record in enumerate(active):
            record.warp_cursor = int(cursors[rank])
            record.iterations.extend(sink.lists[rank])
        return int(tasks or 0)

    def _step_private(
        self, active: List[_WalkerRecord], depth: int, cost: CostModel
    ) -> int:
        """One engine call per walker (stateful programs)."""
        tasks = 0
        for record in active:
            stepped = record.engine.step_instances(
                [record.instance], depth, cost, record.iterations
            )
            tasks += int(stepped or 0)
            record.warp_cursor = int(record.engine.warp_counter)
        return tasks

    def _emigrate(
        self, stepped: List[_WalkerRecord]
    ) -> Dict[int, List[WalkerEnvelope]]:
        """Pop the stepped walkers whose frontier left the owned range."""
        movers: List[_WalkerRecord] = []
        vertices: List[int] = []
        for record in stepped:
            inst = record.instance
            if inst.finished or inst.pool_size == 0:
                continue
            movers.append(record)
            vertices.append(routing_vertex(inst))
        if not movers:
            return {}
        owners = range_owners(
            self.bounds, np.asarray(vertices, dtype=np.int64), stride=self._stride
        )
        outboxes: Dict[int, List[WalkerEnvelope]] = {}
        for record, owner in zip(movers, owners):
            dst = int(owner)
            if dst == self.shard_index:
                continue
            del self._records[record.instance.instance_id]
            self.emigrated += 1
            outboxes.setdefault(dst, []).append(self._envelope(record))
        return outboxes

    def _envelope(self, record: _WalkerRecord) -> WalkerEnvelope:
        return WalkerEnvelope(
            instance=record.instance,
            warp_cursor=record.warp_cursor,
            iterations=record.iterations,
            program=record.program,
            # Outgoing walkers keep carrying the trace context so shards
            # populated purely by migration adopt it too.
            trace_ctx=self._trace_ctx,
        )

    # ------------------------------------------------------------------ #
    def collect(self) -> ShardReport:
        """Report every resident walker plus the shard's accounting."""
        envelopes = [
            self._envelope(self._records[instance_id])
            for instance_id in sorted(self._records)
        ]
        return ShardReport(
            shard_index=self.shard_index,
            envelopes=envelopes,
            cost=self.cost.copy(),
            kernels=list(self.kernels),
            steps=self.steps,
            admitted=self.admitted,
            emigrated=self.emigrated,
        )
