"""One shard of the sampling cluster: a partition-scoped engine runtime.

A :class:`ShardRuntime` owns one contiguous vertex-range partition of the
graph and advances, depth step by depth step, exactly the walkers whose
current frontier it owns.  Per depth step it:

1. advances every resident active walker one MAIN-loop iteration, as one
   kernel;
2. records the step as one simulated kernel on the shard's device timeline
   (the cluster's throughput model: shards sample concurrently, the slowest
   shard sets the makespan);
3. buckets the walkers whose new frontier left the owned range by
   destination shard (vectorised) and hands them to the migration router.

**Shard-count invariance.**  Every walker computes on private streams: its
instance id, its own warp cursor (per-instance warp groups, carried with the
walker across migrations) and the stateless counter RNG.  A step's
selections and per-segment cost charges therefore depend only on the
walker's own history, never on which shard ran it or what else shared the
batch -- which is why results and cost totals are bit-identical across 1
to 4 shards (the ``sharded`` cells of
``tests/integration/test_bitcompat_matrix.py``).

Three execution paths, fixed per shard by the program's step resolution
(:func:`~repro.compiled.compiler.resolve_step`, made once per shard):

* walk-kernel programs (the four walk algorithms on the compiled tier) keep
  their residents as the rows of one
  :class:`~repro.compiled.walk_kernel.WalkerBatch` and advance them with
  :meth:`CompiledWalkKernel.step
  <repro.compiled.walk_kernel.CompiledWalkKernel.step>` -- the call the
  executor's depth loop makes, one kernel over every resident row.  The
  shard passes ``groups = arange(rows)`` and ``cursors = rows.cursors``:
  every row is its own warp group drawing from the private warp cursor
  that migrates with it, so its draws key exactly as a standalone run of
  that walker keys them, whichever shard runs the step and whatever
  shares its batch.  Walkers arrive and leave as column batches (one per
  destination); the edges they draw stay here in an id-owned
  :class:`~repro.compiled.walk_kernel.EdgeLog` (launch = depth) that
  :meth:`collect` hands back.  No per-walker object is built;
* other ``supports_coalescing`` programs (and the walks with
  ``REPRO_COMPILED=0``) share one program object and one
  :class:`~repro.engine.step.BatchedStepEngine` per shard; all resident
  :class:`~repro.distributed.router.WalkerEnvelope` walkers advance as a
  single fused batch with per-instance warp groups;
* stateful programs (private hook RNG streams) get one program per walker,
  travelling in its envelope, so hook draws are consumed in a
  placement-independent order; each replica is seeded per walker
  (:func:`walker_program_seed`) so the walkers' private streams stay
  statistically independent of each other.  The engine stepping that
  program is rebuilt by whichever shard hosts the walker and never rides
  the (pickled) envelope.

Like the out-of-memory scheduler, the runtime reads the full CSR (one
shared-memory copy cluster-wide, see ``docs/distributed.md``); the
partition defines *ownership* -- which shard advances which walker -- and
the simulated per-shard device work, not a physical slice of host memory.
"""

from __future__ import annotations

import inspect
from typing import Dict, List, Optional

import numpy as np

from repro.api.config import SamplingConfig
from repro.compiled.compiler import resolve_step
from repro.compiled.walk_kernel import CompiledWalkKernel, EdgeLog, WalkerBatch
from repro.distributed.router import WalkerEnvelope, Walkers, routing_vertex
from repro.engine.step import BatchedStepEngine
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
        *,
        walkers: Optional[WalkerBatch] = None,
        log: Optional[EdgeLog] = None,
    ):
        self.shard_index = shard_index
        #: Every walker resident at collection (finished and active alike):
        #: envelopes, or -- on walk-kernel shards -- the rows of
        #: :attr:`walkers` (then ``envelopes`` is empty).
        self.envelopes = envelopes
        self.walkers = walkers
        #: Walk-kernel shards: every edge drawn here (owners are instance
        #: ids, launches depths).
        self.log = log
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
        resolution = resolve_step(config, program=probe)
        #: The declared bias kind every engine of this shard binds.
        self._kind = resolution.kind
        #: Shared engine for coalescable programs (one fused batch per step).
        self._engine = (
            BatchedStepEngine(self.graph, probe, config, self._rng, self._kind)
            if self.coalescable
            else None
        )
        #: The walk kernel when the program resolves to it: residents are
        #: then the rows of :attr:`_rows`.
        self._kernel = (
            CompiledWalkKernel(
                self._engine, kind=resolution.kind, backend=resolution.backend
            )
            if resolution.kernel == "walk"
            else None
        )
        #: The step tier this shard actually runs (profiler attribution):
        #: compiled exactly when the shared engine's sites are the declared
        #: shapes.  Stateful programs get private interpreted engines, so
        #: the private path always reports interpreted.
        self.step_tier = (
            "compiled"
            if self._engine is not None and self._engine.kind is not None
            else "interpreted"
        )
        #: Walk-kernel residents as rows (finished rows included) and the
        #: edges they drew here.
        self._rows = WalkerBatch.empty()
        self._log = EdgeLog(by_id=True)
        #: Every other program's residents keyed by global instance id: the
        #: envelopes the shard was handed, stepped in place and handed on.
        self._residents: Dict[int, WalkerEnvelope] = {}
        #: Stateful programs' private engines, by instance id.
        self._engines: Dict[int, BatchedStepEngine] = {}
        #: Trace context adopted from the first carrying arrival, so shard
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
        if self._kernel is not None:
            return int(np.count_nonzero(self._rows.counts))
        return sum(
            1
            for env in self._residents.values()
            if not env.instance.finished and env.instance.pool_size > 0
        )

    def resident_count(self) -> int:
        """All resident walkers, finished included."""
        if self._kernel is not None:
            return len(self._rows)
        return len(self._residents)

    # ------------------------------------------------------------------ #
    def admit(self, walkers: Walkers) -> None:
        """Accept walkers (initial seeds or immigrants) into this shard: a
        :class:`WalkerBatch` on a walk-kernel shard, envelopes otherwise."""
        if self._kernel is not None:
            self._admit_rows(walkers)
        else:
            self._admit_envelopes(walkers)

    def _admit_rows(self, batch: WalkerBatch) -> None:
        if not isinstance(batch, WalkerBatch):
            raise TypeError(
                f"shard {self.shard_index} runs the walk kernel and admits "
                f"WalkerBatch columns, not {type(batch).__name__}"
            )
        if not len(batch):
            return
        if self._trace_ctx is None:
            self._trace_ctx = batch.trace_ctx
        ids = np.sort(np.concatenate([self._rows.ids, batch.ids]))
        twice = ids[1:][ids[1:] == ids[:-1]]
        if twice.size:
            raise ValueError(
                f"walker {int(twice[0])} is already resident on shard "
                f"{self.shard_index}"
            )
        self._rows = self._rows + batch
        self.admitted += len(batch)

    def _admit_envelopes(self, envelopes: List[WalkerEnvelope]) -> None:
        if isinstance(envelopes, WalkerBatch):
            raise TypeError(
                f"shard {self.shard_index} steps {self.algorithm} on "
                f"envelopes and cannot admit a WalkerBatch"
            )
        for env in envelopes:
            if self._trace_ctx is None and env.trace_ctx is not None:
                self._trace_ctx = env.trace_ctx
            instance_id = env.instance_id
            if instance_id in self._residents:
                raise ValueError(
                    f"walker {instance_id} is already resident on shard "
                    f"{self.shard_index}"
                )
            if not self.coalescable:
                # The walker's private program (mid-stream hook RNG state)
                # arrives with it; a fresh one is built only at seeding.
                if env.program is None:
                    kwargs = dict(self._kwargs)
                    if self._derive_program_seed:
                        kwargs["seed"] = walker_program_seed(
                            self._base_program_seed, instance_id
                        )
                    env.program = self._factory(**kwargs)
                engine = BatchedStepEngine(
                    self.graph, env.program, self.config,
                    CounterRNG(self.config.seed), self._kind,
                )
                # Alone on its engine, the walker's private warp stream is
                # the engine's own sequence.
                engine.warp_cursor[0] = env.warp_cursor
                self._engines[instance_id] = engine
            self._residents[instance_id] = env
            self.admitted += 1

    # ------------------------------------------------------------------ #
    def step(self, depth: int) -> Dict[int, Walkers]:
        """Advance resident walkers one depth step; return the outboxes.

        The returned mapping holds, per destination shard, the walkers whose
        new frontier left the owned range (this shard excluded): one
        :class:`WalkerBatch` per destination on a walk-kernel shard, an
        envelope list otherwise.
        """
        columnar = self._kernel is not None
        active = [] if columnar else [
            env
            for _, env in sorted(self._residents.items())
            if not env.instance.finished and env.instance.pool_size > 0
        ]
        num_active = self.active_count() if columnar else len(active)
        if not num_active:
            return {}
        step_cost = CostModel()
        # Adopt the arrival-carried context only when no ambient one exists
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
            walkers=num_active,
        ):
            if columnar:
                rows = self._rows
                tasks = self._kernel.step(
                    rows, self._log, depth, step_cost,
                    np.arange(len(rows), dtype=np.int64), rows.cursors,
                )
            elif self.coalescable:
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
            outboxes = (
                self._emigrate_rows() if columnar else self._emigrate(active)
            )
            prof.lap("migrate")
        return outboxes

    def _step_fused(
        self, active: List[WalkerEnvelope], depth: int, cost: CostModel
    ) -> int:
        """One fused engine batch, every walker its own warp group."""
        cursors = np.asarray([env.warp_cursor for env in active], dtype=np.int64)
        tasks = self._engine.step_instances(
            [env.instance for env in active],
            depth,
            cost,
            [env.iterations for env in active],
            np.arange(len(active), dtype=np.int64),
            cursors,
        )
        for env, cursor in zip(active, cursors.tolist()):
            env.warp_cursor = cursor
        return int(tasks or 0)

    def _step_private(
        self, active: List[WalkerEnvelope], depth: int, cost: CostModel
    ) -> int:
        """One engine call per walker (stateful programs)."""
        tasks = 0
        for env in active:
            engine = self._engines[env.instance_id]
            stepped = engine.step_instances(
                [env.instance], depth, cost, env.iterations
            )
            tasks += int(stepped or 0)
            env.warp_cursor = engine.warp_counter
        return tasks

    def _emigrate_rows(self) -> Dict[int, WalkerBatch]:
        """Split off the rows whose frontier left the owned range: one
        column batch per destination (finished rows stay)."""
        rows = self._rows
        owners = range_owners(self.bounds, rows.heads(), stride=self._stride)
        owners[rows.counts == 0] = self.shard_index
        if (owners == self.shard_index).all():
            return {}
        outboxes = rows.split(owners)
        staying = outboxes.pop(self.shard_index, None)
        self._rows = staying if staying is not None else WalkerBatch.empty()
        self.emigrated += len(rows) - len(self._rows)
        return outboxes

    def _emigrate(
        self, stepped: List[WalkerEnvelope]
    ) -> Dict[int, List[WalkerEnvelope]]:
        """Pop the stepped walkers whose frontier left the owned range."""
        movers = [
            env for env in stepped
            if not env.instance.finished and env.instance.pool_size > 0
        ]
        if not movers:
            return {}
        owners = range_owners(
            self.bounds,
            np.asarray([routing_vertex(env.instance) for env in movers],
                       dtype=np.int64),
            stride=self._stride,
        )
        outboxes: Dict[int, List[WalkerEnvelope]] = {}
        for env, owner in zip(movers, owners):
            dst = int(owner)
            if dst == self.shard_index:
                continue
            del self._residents[env.instance_id]
            self._engines.pop(env.instance_id, None)
            self.emigrated += 1
            outboxes.setdefault(dst, []).append(env)
        return outboxes

    # ------------------------------------------------------------------ #
    def collect(self) -> ShardReport:
        """Report every resident walker plus the shard's accounting."""
        walkers = log = None
        if self._kernel is not None:
            walkers, log = self._rows, self._log
        return ShardReport(
            shard_index=self.shard_index,
            envelopes=[env for _, env in sorted(self._residents.items())],
            cost=self.cost.copy(),
            kernels=list(self.kernels),
            steps=self.steps,
            admitted=self.admitted,
            emigrated=self.emigrated,
            walkers=walkers,
            log=log,
        )
