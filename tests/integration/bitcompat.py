"""Shared bit-compatibility scaffolding for the equivalence suites.

One comparison vocabulary for every bit-compat suite (engine vs scalar,
sharded invariance, dynamic-graph compaction, and the planner's cross-route
matrix): a :class:`~repro.api.results.SampleResult` is *bit-identical* to
another when the samples (ids, seeds, edges -- in order), the per-selection
iteration counts and the cost-model totals all match exactly.
"""

import os
from unittest import mock

import numpy as np

from repro.api.instance import make_instances
from repro.baselines.reference import ScalarMainLoop
from repro.gpusim.device import make_device
from repro.graph.partition import partition_graph
from repro.planner.executor import Executor
from repro.planner.planner import PlanRequest, plan

__all__ = ["assert_equivalent", "assert_same_samples", "fingerprint",
           "interpreted", "oracle_run"]


def interpreted():
    """``with`` block under the one compiled-tier switch, ``REPRO_COMPILED=0``.

    Samplers resolve their engine at construction and their plan at
    ``run()``, so build *and* run the interpreted twin inside the block.
    """
    return mock.patch.dict(os.environ, {"REPRO_COMPILED": "0"})


def oracle_run(graph, program, config, seeds, *, num_instances=None,
               oom_config=None):
    """Run the scalar MAIN-loop oracle through the unchanged Executor.

    It takes the engine's place on the in-memory (or, given ``oom_config``,
    the out-of-memory) route, planned with the compiled tier off so the
    executor steps what it was handed instead of fusing a walk kernel.
    """
    if oom_config is not None:
        seeds = list(np.asarray(seeds).reshape(-1))
    instances = make_instances(seeds, num_instances=num_instances)
    with interpreted():
        executor = Executor(
            plan(PlanRequest(
                graph=graph,
                program=program,
                config=config,
                instances=instances,
                oom_config=oom_config,
                force_route="in_memory" if oom_config is None else "out_of_memory",
            )),
            graph,
            program=program,
            engine=ScalarMainLoop(graph, program, config),
            device=make_device("gpu"),
            partitions=(
                None if oom_config is None
                else partition_graph(graph, oom_config.num_partitions)
            ),
        )
        return executor.execute(instances)


def assert_same_samples(a, b):
    """Per-instance samples match bitwise (ids, seeds, edges, in order)."""
    assert len(a.samples) == len(b.samples)
    for sa, sb in zip(a.samples, b.samples):
        assert sa.instance_id == sb.instance_id
        assert np.array_equal(sa.seeds, sb.seeds)
        assert np.array_equal(sa.edges, sb.edges)


def assert_equivalent(a, b, *, kernels=False):
    """Bitwise comparison of two SampleResults.

    Covers samples, iteration counts and cost totals; ``kernels=True``
    additionally compares the per-kernel records (the in-memory engine
    contract -- routes that reattribute kernels, like coalescing, skip it).
    """
    assert_same_samples(a, b)
    assert a.cost.as_dict() == b.cost.as_dict()
    assert a.iteration_counts == b.iteration_counts
    if kernels:
        assert len(a.kernels) == len(b.kernels)
        for ka, kb in zip(a.kernels, b.kernels):
            assert ka.cost.as_dict() == kb.cost.as_dict()
            assert ka.num_warp_tasks == kb.num_warp_tasks


def fingerprint(result):
    """Everything the bit-compat contract covers, as a comparable value."""
    return (
        tuple(
            (s.instance_id, tuple(map(int, s.seeds)), tuple(map(tuple, s.edges)))
            for s in result.samples
        ),
        tuple(result.iteration_counts),
        tuple(sorted(result.cost.as_dict().items())),
    )
