"""The C-SAW MAIN loop (Fig. 2(b)) executed on the simulated GPU.

:class:`GraphSampler` drives any :class:`~repro.api.bias.SamplingProgram`
over a graph for a set of instances:

1. select ``FrontierSize`` vertices from each instance's frontier pool using
   ``VERTEXBIAS`` (line 4);
2. gather the neighbors of every frontier vertex (line 5);
3. select ``NeighborSize`` neighbors using ``EDGEBIAS`` (line 6) -- per
   frontier vertex or per layer depending on the configured scope;
4. insert the vertices returned by ``UPDATE`` into the frontier pool
   (line 7) and append the sampled edges to the instance's sample (line 8);
5. repeat until the configured depth is reached or every instance runs out of
   frontier.

Each depth step is executed as one simulated kernel: all SELECT invocations
of the step are warp tasks inside it, which is how the result's kernel-time
and SEPS numbers are obtained.

The step body runs on the batched execution engine
(:class:`repro.engine.BatchedStepEngine`, its hook sites bound to the
program's declared shapes when those allow), which executes every instance's
gather / SELECT / UPDATE as flat array programs.  The original
instance-by-instance scalar loop lives on as the test oracle in
:mod:`repro.baselines.reference`; the engine equivalence tests assert both
produce bit-identical results for every registered algorithm.

:class:`GraphSampler` is a thin facade: :meth:`run` builds an in-memory
:class:`~repro.planner.plan.ExecutionPlan` (which also performs the uniform
plan-time seed validation) and executes it on the shared
:class:`~repro.planner.executor.Executor`.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.api.bias import SamplingProgram
from repro.api.config import SamplingConfig
from repro.api.instance import InstanceBatch, make_instances
from repro.api.results import SampleResult
from repro.gpusim.device import Device, make_device
from repro.gpusim.prng import CounterRNG
from repro.graph.csr import CSRGraph

__all__ = ["GraphSampler", "sample_graph"]


class GraphSampler:
    """In-memory C-SAW sampler for a single simulated GPU."""

    def __init__(
        self,
        graph: CSRGraph,
        program: SamplingProgram,
        config: SamplingConfig,
        device: Optional[Device] = None,
        *,
        algorithm: Optional[str] = None,
    ):
        from repro.graph.delta import as_csr

        graph = as_csr(graph)  # DeltaGraphs sample their canonical snapshot
        if graph.num_vertices == 0:
            raise ValueError("cannot sample an empty graph")
        self.graph = graph
        self.program = program
        self.config = config
        # Advisory label only (plan attribution / profiler keys); execution
        # is driven entirely by the program object.
        self.algorithm = algorithm
        self.device = device if device is not None else make_device("gpu")
        self.rng = CounterRNG(config.seed)
        from repro.compiled.compiler import resolve_step
        from repro.engine.step import BatchedStepEngine

        # Resolved once here: the engine is kept across runs.
        self.engine = BatchedStepEngine(
            graph, program, config, self.rng,
            resolve_step(config, program=program).kind,
        )

    # ------------------------------------------------------------------ #
    def _plan(self, instances: InstanceBatch):
        """Plan-time validation + the declarative plan for these instances."""
        from repro.planner.planner import PlanRequest, plan

        return plan(PlanRequest(
            graph=self.graph,
            program=self.program,
            config=self.config,
            algorithm=self.algorithm,
            instances=instances,
            force_route="in_memory",
        ))

    def plan(
        self,
        seeds: Union[Sequence[int], Sequence[Sequence[int]], np.ndarray],
        *,
        num_instances: Optional[int] = None,
    ):
        """The :class:`ExecutionPlan` a :meth:`run` with these seeds executes.

        Also validates the seeds (plan-time validation), so an invalid seed
        set fails here exactly as it would fail inside :meth:`run`.
        """
        return self._plan(make_instances(seeds, num_instances=num_instances))

    def run(
        self,
        seeds: Union[Sequence[int], Sequence[Sequence[int]], np.ndarray],
        *,
        num_instances: Optional[int] = None,
    ) -> SampleResult:
        """Run the MAIN loop for the given seeds and return the samples."""
        from repro.planner.executor import Executor

        instances = make_instances(seeds, num_instances=num_instances)
        executor = Executor(
            self._plan(instances),
            self.graph,
            program=self.program,
            engine=self.engine,
            device=self.device,
        )
        return executor.execute(instances)


def sample_graph(
    graph: CSRGraph,
    program: SamplingProgram,
    seeds: Union[Sequence[int], Sequence[Sequence[int]], np.ndarray],
    config: Optional[SamplingConfig] = None,
    *,
    num_instances: Optional[int] = None,
    device: Optional[Device] = None,
) -> SampleResult:
    """One-call convenience wrapper around :class:`GraphSampler`."""
    sampler = GraphSampler(graph, program, config or SamplingConfig(), device)
    return sampler.run(seeds, num_instances=num_instances)
