"""Heterogeneous batches: many independent sampling runs in one engine drive.

The sampling service coalesces concurrently arriving requests into as few
engine invocations as possible.  A *member* is one request's worth of
instances (numbered ``0..n-1`` exactly as :func:`~repro.api.instance.
make_instances` numbers a standalone run); a *group* pairs a member list with
the program and config it runs under.

:func:`run_coalesced` executes several members that share one
``(program, config)`` in a single :class:`~repro.engine.step.
BatchedStepEngine` batch.  Per-member results are **bit-identical** to
standalone :class:`~repro.api.sampler.GraphSampler` runs because every
coordinate the counter RNG mixes is preserved:

* instance ids restart at 0 per member (the members' instances may therefore
  share ids -- the engine never keys state by instance id, only the RNG
  coordinates do, and those must collide exactly as they would standalone);
* warp ids are drawn from a per-member cursor starting at 0, in the same
  allocation order a standalone run over just that member would use
  (:meth:`BatchedStepEngine.set_warp_groups`);
* the counter RNG is stateless, so members sharing one seed share one stream
  by construction;
* selection, bias and cost arithmetic are per-segment (the engine-equivalence
  guarantee), so a segment's outcome does not depend on what else is in the
  batch.

The one thing that must *not* be shared is program-private mutable state:
hooks that consume their own RNG stream in call order (forest fire's
geometric draws, Metropolis-Hastings acceptance, jump/restart teleports)
would interleave across members.  Such programs set
``supports_coalescing = False`` and :func:`run_heterogeneous` runs them as
singleton groups, which is trivially standalone-identical.

Cost attribution: a coalesced batch is one sequence of fused kernels, so the
per-member results carry the *batch's* aggregate cost and kernel records
(tagged with ``coalesced_members`` metadata); sampled edges, seeds and
iteration counts are per member.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.api.bias import SamplingProgram
from repro.api.config import SamplingConfig
from repro.api.instance import InstanceBatch, InstanceState
from repro.api.results import SampleResult
from repro.gpusim.prng import CounterRNG

__all__ = [
    "InstanceGroup",
    "GroupedIterationSink",
    "member_map",
    "run_coalesced",
    "run_heterogeneous",
]


def member_map(
    members: Sequence[Sequence[InstanceState]],
) -> Tuple[Dict[int, int], List[InstanceState]]:
    """Identity map ``id(instance) -> member rank`` plus the flat instance list.

    The sharded cluster's per-walker warp grouping
    (:mod:`repro.distributed.shard`) keys the engine's warp-group cursors by
    instance identity; a coalesced run's member ranks are one ``np.repeat``
    over the member sizes (:meth:`Executor._run_coalesced`) and only become
    such a map when the engine, not the walk kernel, steps the batch.
    """
    member_of: Dict[int, int] = {}
    flat: List[InstanceState] = []
    for rank, insts in enumerate(members):
        for inst in insts:
            member_of[id(inst)] = rank
            flat.append(inst)
    return member_of, flat


@dataclass
class InstanceGroup:
    """One independent sampling run inside a heterogeneous batch."""

    program: SamplingProgram
    config: SamplingConfig
    instances: InstanceBatch


class GroupedIterationSink:
    """Routes the engine's per-selection iteration counts to their member.

    The engine calls :func:`repro.engine.step.record_iterations`, which
    dispatches to :meth:`extend_for` when the sink provides it; the owning
    member is resolved through an instance identity map.
    """

    def __init__(self, member_of: Dict[int, int], num_members: int):
        self._member_of = member_of
        self.lists: List[List[int]] = [[] for _ in range(num_members)]

    def extend_for(self, inst: InstanceState, iters: np.ndarray) -> None:
        # tolist() yields python ints in one C pass (see record_iterations).
        self.lists[self._member_of[id(inst)]].extend(iters.tolist())


def run_coalesced(
    graph,
    program: SamplingProgram,
    config: SamplingConfig,
    members: Sequence[InstanceBatch],
    *,
    algorithm: Optional[str] = None,
) -> List[SampleResult]:
    """Run several members of one ``(program, config)`` as a single batch.

    Returns one :class:`SampleResult` per member, whose samples, seeds and
    iteration counts are bit-identical to a standalone ``GraphSampler`` run
    of that member alone (cost/kernel records are the shared batch's).
    """
    from repro.graph.delta import as_csr
    from repro.planner.executor import Executor
    from repro.planner.planner import PlanRequest, plan

    graph = as_csr(graph)  # DeltaGraphs sample their canonical snapshot
    members = list(members)
    execution_plan = plan(PlanRequest(
        graph=graph,
        program=program,
        config=config,
        algorithm=algorithm,
        members=members,
        force_route="coalesced",
    ))
    from repro.compiled.step_engine import make_step_engine

    engine = make_step_engine(
        graph, program, config, CounterRNG(config.seed), "coalesced"
    )
    executor = Executor(execution_plan, graph, program=program, engine=engine)
    return executor.execute(members=members)


def run_heterogeneous(
    graph, groups: Sequence[InstanceGroup]
) -> List[SampleResult]:
    """Run a heterogeneous batch of instance groups with per-group configs.

    Groups that share the *same program object* and an equal config -- and
    whose program declares ``supports_coalescing`` -- are merged into one
    :func:`run_coalesced` batch; every other group runs as a singleton batch.
    Results come back in input order.
    """
    merged: Dict[Tuple[int, SamplingConfig], List[int]] = {}
    order: List[Tuple[int, SamplingConfig]] = []
    for index, group in enumerate(groups):
        if group.program.supports_coalescing:
            key = (id(group.program), group.config)
        else:
            key = (index, group.config)  # singleton: never shared
        if key not in merged:
            merged[key] = []
            order.append(key)
        merged[key].append(index)

    results: List[Optional[SampleResult]] = [None] * len(groups)
    for key in order:
        indices = merged[key]
        head = groups[indices[0]]
        batch = run_coalesced(
            graph,
            head.program,
            head.config,
            [groups[i].instances for i in indices],
        )
        for i, result in zip(indices, batch):
            results[i] = result
    return results  # type: ignore[return-value]
