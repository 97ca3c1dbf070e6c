"""The bit-compatibility matrix: one table, one runner, one comparison.

C-SAW's batched and compiled kernels reproduce the paper only if they are
pure performance transformations of Alg. 1's SELECT -> Update loop.  This
module states that contract once.  :data:`AXES` is the table; :func:`cells`
expands it into one cell per ``algorithm-route-axis=value`` and
:meth:`Matrix.check` runs a cell: the *variant* (what a user runs, with one
axis moved off its default) against its route's *reference*, through the one
comparison :func:`assert_bit_identical`.  On every variant run the cell also
holds the plan to the test-owned :func:`expected_step` literal and to what
was constructed and run, and pins the walk-kernel routes' boxing counts.
``docs/engine.md`` lists each route's reference, the axes and how to add a
row.
"""

import contextlib
import os
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Optional
from unittest import mock

import numpy as np
import pytest

from repro import telemetry as tel
from repro.algorithms.registry import ALGORITHM_REGISTRY
from repro.api.instance import InstanceBatch, InstanceState, make_instances
from repro.api.sampler import GraphSampler
from repro.baselines.reference import ScalarMainLoop
from repro.compiled import resolve_step
from repro.compiled.walk_kernel import CompiledWalkKernel
from repro.distributed import ShardedSamplingCluster
from repro.engine.hetero import run_coalesced
from repro.engine.step import BatchedStepEngine
from repro.gpusim.costmodel import CostModel
from repro.gpusim.device import make_device
from repro.gpusim.prng import CounterRNG
from repro.graph.delta import as_csr
from repro.graph.generators import powerlaw_graph
from repro.graph.partition import partition_graph
from repro.oom.scheduler import OutOfMemoryConfig, OutOfMemorySampler
from repro.planner.errors import PlanError
from repro.planner.executor import Executor
from repro.planner.planner import PlanRequest, plan
from repro.service.client import SamplingClient
from repro.service.server import SamplingService
from repro.telemetry import profiler

# --------------------------------------------------------------------------- #
# The table
# --------------------------------------------------------------------------- #
ALGORITHMS = tuple(sorted(ALGORITHM_REGISTRY))
ROUTES = ("in_memory", "coalesced", "out_of_memory", "sharded")
WALKS = frozenset(
    {"biased_random_walk", "deepwalk", "node2vec", "simple_random_walk"}
)
#: Stateful-hook programs stay interpreted; the recorded fallback names why.
STATEFUL = {
    "forest_fire_sampling": "overrides",
    "metropolis_hastings_walk": "accept",
    "random_walk_with_jump": "overrides",
    "random_walk_with_restart": "overrides",
}
#: Routes on which the walk shapes run the fused walk kernel.
WALK_KERNEL_ROUTES = {"in_memory", "coalesced", "out_of_memory", "sharded"}


def expected_step(algorithm, route):
    """``(step_tier, kernel)`` a default-tier plan reports and its run builds."""
    if algorithm in STATEFUL:
        return "interpreted", "none"
    if algorithm in WALKS and route in WALK_KERNEL_ROUTES:
        return "compiled", "walk"
    return "compiled", "engine"


PRESETS = ("baseline", "batched_only", "batched_scheduled", "fully_optimized")
#: Shapes the out-of-memory drain is also held to (every route's default
#: shape is ``repeated``, see :data:`SHAPES`).
OOM_SHAPES = ("flat", "multi_seed", "depth_1", "scattered_ids")
#: ``config`` axis values: ``SamplingConfig.replace`` overrides.
CONFIGS = {
    "default": {},
    "frontier": {"frontier_size": 2},
    **{
        f"{strategy}+{detector}": {
            "strategy": strategy, "detector": detector,
            "neighbor_size": 3, "depth": 3,
        }
        for strategy in ("bipartite", "repeated", "updated")
        for detector in ("strided_bitmap", "bitmap", "linear")
    },
}
#: Every axis at its default; a cell moves one or two axes off it.
DEFAULTS = {
    "compiled": "on", "telemetry": "off", "profiler": "off",
    "graph": "plain", "members": 2, "preset": "fully_optimized",
    "shape": "repeated", "shards": 3, "transport": "in_process",
    "config": "default", "served": "no",
}
#: ``(moved axes, routes, algorithms)`` rows.  A cell whose settings repeat
#: an earlier cell's (a sweep crossing its route's defaults) is not
#: generated again.
AXES = [
    (
        [{"compiled": "on"}, {"compiled": "off"}, {"telemetry": "on"},
         {"profiler": "on"}, {"graph": "compacted"}],
        ROUTES, ALGORITHMS,
    ),
    # Weighted graphs reach the walk kernel's weighted rows in memory and
    # in the shard epoch, and the engine's declared weight-or-degree sites
    # when sharded.
    ([{"graph": "weighted"}], ("in_memory", "sharded"), ALGORITHMS),
    ([{"members": 2}, {"members": 3}], ("coalesced",), ALGORITHMS),
    (
        # Every preset on the default shape, every shape on the default
        # preset; the walk kernel's drain on their whole cross.
        [{"preset": p} for p in PRESETS] + [{"shape": s} for s in OOM_SHAPES],
        ("out_of_memory",), ALGORITHMS,
    ),
    (
        [{"preset": p, "shape": s} for p in PRESETS for s in OOM_SHAPES],
        ("out_of_memory",), tuple(sorted(WALKS)),
    ),
    (
        # One in-process shard is the route's reference itself.
        [{"shards": n, "transport": t}
         for t in ("in_process", "multiprocess") for n in (1, 2, 3, 4)
         if (n, t) != (1, "in_process")],
        ("sharded",), ALGORITHMS,
    ),
    (
        [{"config": name} for name in CONFIGS if "+" in name],
        ("in_memory",), ("unbiased_neighbor_sampling",),
    ),
    (
        # Multi-seed pools force line-4 SELECT warps between per-vertex ones.
        [{"config": "frontier", "shape": "pools"}],
        ("in_memory",),
        ("layer_sampling", "multidimensional_random_walk", "node2vec",
         "unbiased_neighbor_sampling"),
    ),
    ([{"served": "thread"}], ("in_memory",), ALGORITHMS),
]

Cell = namedtuple("Cell", "algorithm route settings id")


def cells():
    """Every cell of :data:`AXES`, in table order."""
    out, seen = [], set()
    for moves, routes, algorithms in AXES:
        for moved in moves:
            for route in routes:
                for algorithm in algorithms:
                    settings = {**DEFAULTS, **moved}
                    key = (algorithm, route, tuple(sorted(settings.items())))
                    if key in seen:
                        continue
                    seen.add(key)
                    name = "-".join(
                        [algorithm, route] + [f"{k}={v}" for k, v in moved.items()]
                    )
                    out.append(Cell(algorithm, route, settings, name))
    return out


def expected(cell):
    """``(step_tier, kernel)`` the cell's variant must plan and build."""
    if cell.settings["compiled"] == "off":
        return "interpreted", "none"
    tier, kernel = expected_step(cell.algorithm, cell.route)
    if cell.settings["config"] == "frontier" and kernel == "walk":
        return tier, "engine"  # a selected frontier is not walk-shaped
    return tier, kernel


# --------------------------------------------------------------------------- #
# Inputs
# --------------------------------------------------------------------------- #
GRAPH = powerlaw_graph(150, 6.0, exponent=2.2, seed=5)
SEEDS = list(range(0, 150, 15))
# Seed 30 has no out-edges; the pairs put one walker's two entries into two
# partitions of one round (and, for 0 / 15, into one kernel).
PAIRS = [[0, 15], [3, 140], [30, 45], [60, 149]]
POOLS = [
    [int(v) for v in np.random.default_rng(i).choice(150, 5, replace=False)]
    for i in range(10)
]
#: shape -> ``(seeds, num_instances)``.  ``repeated``, every route's
#: default, deals seven seeds round-robin to ten instances, so vertices 0,
#: 15 and 30 each start two walkers of one batch.
SHAPES = {
    "repeated": (SEEDS[:7], 10),
    "flat": (SEEDS, None),
    "multi_seed": (PAIRS, None),
    "depth_1": (SEEDS[:7], 10),
    # Ids that are not 0..n-1 make the drain look its walker rows up.  No
    # facade numbers instances like this, and a run boxes a batch's states
    # in place, so every run gets a fresh one.
    "scattered_ids": (lambda: InstanceBatch(np.array([9, 2, 7, 4]),
                                            np.array([0, 1, 2, 3, 4]),
                                            np.array([0, 45, 60, 149])), None),
    "pools": (POOLS, None),
}
#: Coalesced members, ``(seeds, num_instances)`` each: start vertices
#: repeat inside a member (0, 45) and across members (45).
MEMBERS = {
    2: [(SEEDS[:4], 5), (SEEDS[3:7], 5)],
    3: [(SEEDS[:2], 3), ([5, 9, 140], 3), (SEEDS[2:7], 5)],
}
#: node2vec with p != q, so its biases really read the previous vertex.
PROGRAM_KWARGS = {"node2vec": {"p": 0.25, "q": 4.0}}
#: Cells whose per-entry oracle legitimately differs: it lets a walker's
#: second entry of one kernel see the first one's prev, where the batched
#: kernels evaluate every bias before any update (docs/engine.md).  Their
#: reference is the declared-site engine's drain instead.
ORACLE_DIVERGES = {("node2vec", "multi_seed")}
SCHEDULE_FIELDS = ("makespan", "kernel_times", "transfer_times", "rounds",
                   "partition_transfers", "stream_busy_times")


def batch_of(shape):
    seeds, count = SHAPES[shape]
    if callable(seeds):
        return seeds()
    return make_instances(seeds, num_instances=count)


def program_of(algorithm):
    """A fresh program: stateful hooks consume a private stream per run."""
    return ALGORITHM_REGISTRY[algorithm].program_factory(
        **PROGRAM_KWARGS.get(algorithm, {})
    )


def config_of(cell):
    overrides = dict(CONFIGS[cell.settings["config"]])
    if cell.settings["shape"] == "depth_1":
        overrides["depth"] = 1
    return ALGORITHM_REGISTRY[cell.algorithm].config_factory(seed=11).replace(
        **overrides
    )


def oom_of(cell):
    return getattr(OutOfMemoryConfig, cell.settings["preset"])(num_partitions=3)


def interpreted():
    """``with`` block under the one compiled-tier switch, ``REPRO_COMPILED=0``.

    Samplers resolve their engine at construction and their plan at
    ``run()``, so build *and* run the interpreted twin inside the block.
    """
    return mock.patch.dict(os.environ, {"REPRO_COMPILED": "0"})


def execute(graph, program, config, route, batch, engine, *, oom=None,
            interpret=True):
    """One run of ``batch`` through the Executor, ``engine`` in the facade's
    place; returns ``(plan, result)``.

    ``interpret`` plans with the compiled tier off, so the executor steps
    exactly the engine it was handed (the oracle, or a declared-site engine)
    instead of fusing a walk kernel.
    """
    graph = as_csr(graph)
    with interpreted() if interpret else contextlib.nullcontext():
        execution_plan = plan(PlanRequest(
            graph=graph, program=program, config=config, instances=batch,
            oom_config=oom, force_route=route,
        ))
        return execution_plan, Executor(
            execution_plan, graph, program=program, engine=engine,
            device=make_device("gpu"),
            partitions=None if oom is None else partition_graph(
                graph, oom.num_partitions),
        ).execute(batch)


def oracle_run(graph, program, config, batch, *, oom=None):
    """The scalar MAIN-loop oracle on the in-memory (or, given ``oom``, the
    out-of-memory) route."""
    oracle = ScalarMainLoop(as_csr(graph), program, config)
    route = "in_memory" if oom is None else "out_of_memory"
    return execute(graph, program, config, route, batch, oracle, oom=oom)[1]


def drain(graph, program, config, batch, oom, *, declared=False):
    """An out-of-memory run through the Executor on the route's own engine;
    returns ``(plan, result)``.  Served (default), the plan resolves as the
    facade's does; ``declared`` plans it interpreted, so the executor drains
    through the declared-site engine's ``expand_entries``."""
    engine = BatchedStepEngine(as_csr(graph), program, config,
                               CounterRNG(config.seed),
                               resolve_step(config, program=program).kind)
    if declared:
        assert engine.kind == program.compiled_bias
    return execute(graph, program, config, "out_of_memory", batch, engine,
                   oom=oom, interpret=declared)


# --------------------------------------------------------------------------- #
# The comparison
# --------------------------------------------------------------------------- #
@dataclass
class Run:
    """One execution, as the contract compares it."""

    samples: list              # per member; one off the coalesced route
    iterations: list           # per member
    cost: Optional[dict]       # None: a served response carries no cost
    kernels: Optional[list] = None
    schedule: dict = field(default_factory=dict)
    plan: object = None
    step_tier: Optional[str] = None
    cluster: Optional[dict] = None   # sharded: per-shard accounting


def result_run(result, execution_plan=None, schedule=None):
    return Run(
        [result.samples], [list(result.iteration_counts)],
        result.cost.as_dict(),
        [(k.cost.as_dict(), k.num_warp_tasks) for k in result.kernels],
        schedule or {}, execution_plan,
        None if execution_plan is None else execution_plan.step_tier,
    )


def cluster_of(ran):
    """A sharded run's per-shard accounting, as the contract compares it."""
    return {
        "shard_costs": [cost.as_dict() for cost in ran.shard_costs],
        "shard_kernels": [[(k.name, k.num_warp_tasks, k.cost.as_dict())
                           for k in kernels] for kernels in ran.shard_kernels],
        "shard_admitted": ran.shard_admitted,
        "migrations": ran.migrations,
        "epochs": ran.epochs,
    }


def drain_run(ran, execution_plan=None):
    assert ran.cost.as_dict() == ran.sample.cost.as_dict()
    return result_run(ran.sample, execution_plan,
                      {name: getattr(ran, name) for name in SCHEDULE_FIELDS})


def batch_cost(results):
    """What one fused batch of these standalone runs charges: every counter
    summed, one launch per depth step of the longest member."""
    total = CostModel()
    for result in results:
        total.merge(result.cost)
    total.kernel_launches = max(r.cost.kernel_launches for r in results)
    return total.as_dict()


def assert_bit_identical(a, b, *, kernels=False, step_tier=None):
    """``b`` reproduces ``a``: samples (ids, seeds, edges, in order),
    iteration counts, cost totals, the OOM schedule, optionally the
    per-kernel records, and -- given ``step_tier`` -- ``b``'s plan tier."""
    assert len(a.samples) == len(b.samples)
    for member_a, member_b in zip(a.samples, b.samples):
        assert len(member_a) == len(member_b)
        for sa, sb in zip(member_a, member_b):
            assert sa.instance_id == sb.instance_id
            assert np.array_equal(sa.seeds, sb.seeds)
            assert np.array_equal(sa.edges, sb.edges)
    assert a.iterations == b.iterations
    if b.cost is not None:
        assert a.cost == b.cost
    if kernels:
        assert a.kernels == b.kernels
    assert a.schedule == b.schedule
    if step_tier is not None:
        assert b.step_tier == step_tier


# --------------------------------------------------------------------------- #
# Spies and switches
# --------------------------------------------------------------------------- #
@dataclass
class Seen:
    """What a run constructed: engines (declared kind or not), walk-kernel
    entry-point calls (``step``, ``expand``), ``InstanceState``
    constructions and ``record_edges`` calls."""

    engines: list = field(default_factory=list)
    walk_runs: int = 0
    states: int = 0
    record_edges: int = 0

    def step(self):
        assert self.engines and len(set(self.engines)) == 1, self.engines
        if not self.engines[0]:
            return "interpreted", "none"
        return "compiled", "walk" if self.walk_runs else "engine"


@contextlib.contextmanager
def observe():
    seen = Seen()
    init = BatchedStepEngine.__init__
    post_init, record = InstanceState.__post_init__, InstanceState.record_edges

    def spy_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        seen.engines.append(self.kind is not None)

    def spy_post_init(self):
        seen.states += 1
        post_init(self)

    def spy_record(self, *args):
        seen.record_edges += 1
        record(self, *args)

    def spy_entry(entry):  # the walk kernel's step and expand
        def spy(self, *args, **kwargs):
            seen.walk_runs += 1
            return entry(self, *args, **kwargs)
        return spy

    with mock.patch.object(BatchedStepEngine, "__init__", spy_init), \
            mock.patch.object(InstanceState, "__post_init__", spy_post_init), \
            mock.patch.object(InstanceState, "record_edges", spy_record), \
            mock.patch.object(CompiledWalkKernel, "step",
                              spy_entry(CompiledWalkKernel.step)), \
            mock.patch.object(CompiledWalkKernel, "expand",
                              spy_entry(CompiledWalkKernel.expand)):
        yield seen


@contextlib.contextmanager
def switched(settings):
    """The process-wide switches a cell moves: the compiled tier, telemetry
    and the profiler.  An enabled one must record; a disabled one must not."""
    telemetry = settings["telemetry"] == "on"
    profiling = settings["profiler"] == "on"
    was = tel.enabled(), profiler.enabled()
    tel.clear()
    tel.FEEDBACK.clear()
    profiler.clear()
    (tel.enable if telemetry else tel.disable)()
    (profiler.enable if profiling else profiler.disable)()
    try:
        with interpreted() if settings["compiled"] == "off" \
                else contextlib.nullcontext():
            yield
        assert bool(tel.spans()) == telemetry
        assert bool(profiler.stats()) == profiling
    finally:
        (tel.enable if was[0] else tel.disable)()
        (profiler.enable if was[1] else profiler.disable)()
        tel.clear()
        tel.FEEDBACK.clear()
        profiler.clear()


# --------------------------------------------------------------------------- #
# The runner
# --------------------------------------------------------------------------- #
class Matrix:
    """The graphs plus each reference, built once, for one test module.

    ``compacted`` is a ``(DeltaGraph, fresh CSR)`` pair: variants sample
    the mutated-then-compacted DeltaGraph, references the fresh build.
    ``served`` cells share one thread-worker service; :meth:`close` stops it.
    """

    def __init__(self, compacted):
        rng = np.random.default_rng(7)
        weighted = GRAPH.with_weights(rng.uniform(0.1, 2.0, GRAPH.num_edges))
        self.graphs = {"plain": (GRAPH, GRAPH), "weighted": (weighted, weighted),
                       "compacted": compacted}
        self._references = {}
        self._twins = {}
        self._drained = set()
        self._service = None

    def close(self):
        if self._service is not None:
            self._service.shutdown()

    def check(self, cell):
        tier, kernel = expected(cell)
        reference = self.reference(cell)
        twin = self.twin(cell)
        graph = self.graphs[cell.settings["graph"]][0]
        with observe() as seen:
            with switched(cell.settings):
                run = getattr(self, f"_{cell.route}")(cell, graph)
            # Reading the samples builds views, never instance state.
            assert_bit_identical(
                reference, run, step_tier=tier,
                kernels=cell.route == "in_memory" and run.kernels is not None,
            )
            assert sum(len(s.edges) for member in run.samples
                       for s in member) > 0
        if twin is not None:
            assert run.cluster == twin
        if run.plan is not None:
            assert run.plan.route == cell.route
            if tier == "compiled":
                assert run.plan.compiled_backend in ("numpy", "numba")
                assert run.plan.compiled_fallback is None
            else:
                reason = ("REPRO_COMPILED" if cell.settings["compiled"] == "off"
                          else STATEFUL[cell.algorithm])
                assert reason in run.plan.compiled_fallback
        if cell.settings["transport"] == "in_process":  # shards build here
            assert seen.step() == (tier, kernel)
            if kernel == "walk":
                assert (seen.states, seen.record_edges) == (0, 0)
            elif cell.route in ("in_memory", "out_of_memory"):
                assert seen.states == sum(len(m) for m in run.samples)
        key = self._key(cell)
        if (cell.route == "out_of_memory" and kernel == "walk"
                and (cell.algorithm, cell.settings["shape"]) not in ORACLE_DIVERGES
                and key not in self._drained):
            # The walk kernel's drain against the engine it stands in for, once
            # per reference (where the oracle diverges, that drain *is* it).
            leg = drain(graph, program_of(cell.algorithm), config_of(cell),
                        batch_of(cell.settings["shape"]), oom_of(cell),
                        declared=True)[1]
            assert_bit_identical(reference, drain_run(leg))
            self._drained.add(key)

    @staticmethod
    def _key(cell):
        s = cell.settings
        return (cell.algorithm, cell.route, s["graph"], s["shape"], s["preset"],
                s["members"], s["config"])

    def reference(self, cell):
        key = self._key(cell)
        if key not in self._references:
            self._references[key] = self._reference(cell)
        return self._references[key]

    def twin(self, cell):
        """A multi-shard walk cell's per-shard accounting on the interpreted
        envelope path at the same shard count and transport (``None`` for
        every other cell): the shard epoch must split work, costs, kernels
        and migrations exactly as the walkers' envelopes did."""
        s = cell.settings
        if cell.route != "sharded" or cell.algorithm not in WALKS \
                or s["shards"] == 1:
            return None
        key = self._key(cell) + (s["shards"], s["transport"])
        if key not in self._twins:
            with interpreted():
                self._twins[key] = self._sharded(
                    cell, self.graphs[s["graph"]][1]).cluster
        return self._twins[key]

    def _reference(self, cell):
        graph = self.graphs[cell.settings["graph"]][1]
        config, shape = config_of(cell), cell.settings["shape"]
        program, batch = program_of(cell.algorithm), batch_of(shape)
        if cell.route == "in_memory":
            return result_run(oracle_run(graph, program, config, batch))
        if cell.route == "coalesced":
            solo = [GraphSampler(graph, program_of(cell.algorithm), config)
                    .run(seeds, num_instances=count)
                    for seeds, count in MEMBERS[cell.settings["members"]]]
            return Run([r.samples for r in solo],
                       [list(r.iteration_counts) for r in solo], batch_cost(solo))
        if cell.route == "out_of_memory":
            if (cell.algorithm, shape) in ORACLE_DIVERGES:
                return drain_run(drain(graph, program, config, batch,
                                       oom_of(cell), declared=True)[1])
            return drain_run(oracle_run(graph, program, config, batch,
                                        oom=oom_of(cell)))
        seeds, count = SHAPES[shape]
        # Walks: the envelope path on the interpreted engine, planned and
        # run with the compiled tier off, so the reference never runs the
        # walk-kernel shards the variants test.
        with interpreted() if cell.algorithm in WALKS \
                else contextlib.nullcontext():
            return result_run(ShardedSamplingCluster(
                graph, cell.algorithm, config, num_shards=1,
                program_kwargs=PROGRAM_KWARGS.get(cell.algorithm),
            ).run(seeds, num_instances=count).result)

    # -- variants: what a user runs, with the cell's axes moved ----------- #
    def _in_memory(self, cell, graph):
        (seeds, count), config = SHAPES[cell.settings["shape"]], config_of(cell)
        if cell.settings["served"] == "thread":
            return self._served(graph, cell.algorithm, seeds, count, config)
        sampler = GraphSampler(graph, program_of(cell.algorithm), config)
        execution_plan = sampler.plan(seeds, num_instances=count)
        return result_run(sampler.run(seeds, num_instances=count),
                          execution_plan)

    def _coalesced(self, cell, graph):
        config, program = config_of(cell), program_of(cell.algorithm)
        members = [make_instances(seeds, num_instances=count)
                   for seeds, count in MEMBERS[cell.settings["members"]]]

        def request(batches):
            return PlanRequest(
                graph=as_csr(graph), program=program, config=config,
                members=batches, force_route="coalesced",
            )

        if program.supports_coalescing:
            execution_plan = plan(request(members))
            results = run_coalesced(graph, program, config, members)
            cost = results[0].cost.as_dict()  # the batch's, on every member
            assert all(r.cost.as_dict() == cost for r in results)
        else:
            # Stateful programs never fuse: the planner refuses the batch and
            # the service runs each member alone, on a fresh program.
            with pytest.raises(PlanError, match="stateful"):
                plan(request(members))
            execution_plan = plan(request(members[:1]))
            results = [
                run_coalesced(graph, program_of(cell.algorithm), config, [m])[0]
                for m in members
            ]
            cost = batch_cost(results)
        return Run([r.samples for r in results],
                   [list(r.iteration_counts) for r in results], cost,
                   plan=execution_plan, step_tier=execution_plan.step_tier)

    def _out_of_memory(self, cell, graph):
        config, program = config_of(cell), program_of(cell.algorithm)
        oom, (seeds, count) = oom_of(cell), SHAPES[cell.settings["shape"]]
        if callable(seeds):
            # No facade numbers instances like this: drive its executor.
            execution_plan, ran = drain(graph, program, config, seeds(), oom)
        else:
            sampler = OutOfMemorySampler(graph, program, config, oom)
            execution_plan = sampler.plan(seeds, num_instances=count)
            ran = sampler.run(seeds, num_instances=count)
        assert execution_plan.layout.oom is oom
        return drain_run(ran, execution_plan)

    def _sharded(self, cell, graph):
        seeds, count = SHAPES[cell.settings["shape"]]
        cluster = ShardedSamplingCluster(
            graph, cell.algorithm, config_of(cell),
            num_shards=cell.settings["shards"],
            transport=cell.settings["transport"],
            program_kwargs=PROGRAM_KWARGS.get(cell.algorithm),
            mp_context="fork",  # spawn costs a full interpreter per shard
        )
        execution_plan = cluster.plan(seeds, num_instances=count)
        assert execution_plan.layout.num_partitions == cluster.num_shards
        ran = cluster.run(seeds, num_instances=count)
        assert ran.num_shards == cluster.num_shards
        if ran.num_shards > 1:  # walkers really crossed shards
            assert ran.migrations > 0
        run = result_run(ran.result, execution_plan)
        run.cluster = cluster_of(ran)
        return run

    def _served(self, graph, algorithm, seeds, count, config):
        """One request through a thread-worker service: its stats report the
        tier the front-end planned, which the worker must have built."""
        if self._service is None:
            self._service = SamplingService(num_workers=1, mode="thread",
                                            cache_bytes=None)
            self._service.load_graph("g", graph)
        response = SamplingClient(self._service).sample(
            "g", algorithm, seeds, num_instances=count,
            program_kwargs=PROGRAM_KWARGS.get(algorithm),
            timeout=120, seed=config.seed,
        )
        assert response.ok, response.error
        assert response.route == "in_memory"
        assert response.stats["step_tier"] == response.plan["step_tier"]
        return Run([response.samples], [list(response.iteration_counts)], None,
                   step_tier=response.plan["step_tier"])
