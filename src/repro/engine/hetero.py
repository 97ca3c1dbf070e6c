"""Coalesced batches: many independent sampling runs in one engine drive.

The sampling service coalesces concurrently arriving requests into as few
engine invocations as possible.  A *member* is one request's worth of
instances (numbered ``0..n-1`` exactly as :func:`~repro.api.instance.
make_instances` numbers a standalone run); which requests may share a batch
-- same graph epoch, program and config -- is the service coalescer's call
(:mod:`repro.service`).

:func:`run_coalesced` executes several members that share one
``(program, config)`` in a single :class:`~repro.engine.step.
BatchedStepEngine` batch.  Per-member results are **bit-identical** to
standalone :class:`~repro.api.sampler.GraphSampler` runs because every
coordinate the counter RNG mixes is preserved:

* instance ids restart at 0 per member (the members' instances may therefore
  share ids -- the engine never keys state by instance id, only the RNG
  coordinates do, and those must collide exactly as they would standalone);
* warp ids are drawn from a per-member cursor starting at 0, in the same
  allocation order a standalone run over just that member would use (the
  ``groups`` column and ``cursors`` of :meth:`BatchedStepEngine.
  step_instances`);
* the counter RNG is stateless, so members sharing one seed share one stream
  by construction;
* selection, bias and cost arithmetic are per-segment (the engine-equivalence
  guarantee), so a segment's outcome does not depend on what else is in the
  batch.

The one thing that must *not* be shared is program-private mutable state:
hooks that consume their own RNG stream in call order (forest fire's
geometric draws, Metropolis-Hastings acceptance, jump/restart teleports)
would interleave across members.  Such programs set
``supports_coalescing = False``: the planner's
:func:`~repro.planner.planner.scale_plan` never makes their units
``"coalesced"``, so the service runs each of their requests alone, which is
trivially standalone-identical.

Cost attribution: a coalesced batch is one sequence of fused kernels, so the
per-member results carry the *batch's* aggregate cost and kernel records
(tagged with ``coalesced_members`` metadata); sampled edges, seeds and
iteration counts are per member.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.api.bias import SamplingProgram
from repro.api.config import SamplingConfig
from repro.api.instance import InstanceBatch
from repro.api.results import SampleResult

__all__ = ["run_coalesced"]


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
    executor = Executor(execution_plan, graph, program=program)
    return executor.execute(members=members)
