"""Crash regression: a killed worker loses only its own unit.

The scenario the claim protocol exists for: one process-mode worker is
SIGKILLed mid-unit while more units are queued behind it.  The survivors
must claim and complete every remaining unit, the killed unit's request
must fail with a :class:`ServiceError` (not hang), and the shared-memory
leak audit must come back clean afterwards.
"""

import os
import signal

import numpy as np
import pytest

from repro.algorithms.registry import ALGORITHM_REGISTRY
from repro.api.requests import SampleRequest
from repro.api.sampler import GraphSampler
from repro.graph import ring_graph
from repro.service import (
    SamplingService,
    ServiceError,
    SharedGraphStore,
    leaked_segments,
)


def test_survivors_complete_remaining_units_after_kill(watch_claims):
    prefix = "crashreg"
    store = SharedGraphStore(prefix=prefix)
    graph = ring_graph(64)
    svc = SamplingService(num_workers=2, mode="process",
                          batch_window_s=0.0, max_batch_requests=1,
                          memory_budget_bytes=None, store=store,
                          unit_timeout_s=150.0)
    try:
        svc.load_graph("g", graph)
        claimed_by = watch_claims(svc)

        # A unit far too large to finish before the signal lands; it pins
        # its worker while the remaining units queue up behind it.
        doomed = svc.submit(SampleRequest(
            graph="g", algorithm="simple_random_walk", seeds=tuple(range(64)),
            num_instances=5000, config_overrides={"depth": 5000, "seed": 1},
        ))
        victim = claimed_by()

        # The remaining work, submitted before the crash.
        survivors = [
            svc.submit(SampleRequest(
                graph="g", algorithm="deepwalk", seeds=(rank, rank + 1),
                config_overrides={"depth": 4, "seed": 7},
            ))
            for rank in range(5)
        ]

        os.kill(victim, signal.SIGKILL)

        with pytest.raises(ServiceError):
            doomed.result(timeout=120)

        # Every remaining unit completes on the surviving worker, with
        # results bit-identical to standalone runs.
        info = ALGORITHM_REGISTRY["deepwalk"]
        config = info.config_factory(depth=4, seed=7)
        for rank, future in enumerate(survivors):
            response = future.result(timeout=120)
            assert response.ok
            ref = GraphSampler(graph, info.program_factory(), config).run(
                [rank, rank + 1]
            )
            for a, b in zip(ref.samples, response.samples):
                assert np.array_equal(a.edges, b.edges)

        snap = svc.stats.snapshot()
        assert snap["requests_completed"] == 5
        assert snap["requests_failed"] == 1
    finally:
        svc.shutdown()
        store.close()

    # The /dev/shm leak audit: nothing with the store's prefix survives,
    # even though a worker died while attached to the segments.
    assert leaked_segments(prefix) == []
