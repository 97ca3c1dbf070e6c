"""Per-request determinism under coalescing (the service's acceptance bar).

A request with a fixed seed must return identical edges whether it ran alone
or coalesced into a batch with other requests.  The engine layer's
every-algorithm cells (``run_coalesced`` vs standalone ``GraphSampler``
runs, 2 and 3 members) are the ``members`` axis of
``tests/integration/test_bitcompat_matrix.py``; this module keeps the
batch-company and validation checks, and the service layer: responses from
a live :class:`SamplingService` under concurrent submission vs the same
standalone runs, for every registered algorithm.
"""

import threading

import numpy as np
import pytest

from repro.algorithms.registry import ALGORITHM_REGISTRY
from repro.api.instance import make_instances
from repro.api.sampler import GraphSampler
from repro.engine.hetero import run_coalesced
from repro.graph.generators import powerlaw_graph
from repro.service import SamplingClient, SamplingService


@pytest.fixture(scope="module")
def graph():
    return powerlaw_graph(300, 6.0, exponent=2.2, seed=3)


MEMBER_SEEDS = [
    list(range(0, 300, 17)),
    [5, 9, 250],
    list(range(1, 100, 7)),
]


def assert_member_equivalent(standalone, coalesced):
    assert len(standalone.samples) == len(coalesced.samples)
    for a, b in zip(standalone.samples, coalesced.samples):
        assert a.instance_id == b.instance_id
        assert np.array_equal(a.seeds, b.seeds)
        assert np.array_equal(a.edges, b.edges)
    assert standalone.iteration_counts == coalesced.iteration_counts


class TestEngineLayer:
    def test_coalesced_metadata_records_batch_size(self, graph):
        info = ALGORITHM_REGISTRY["deepwalk"]
        config = info.config_factory(seed=1)
        program = info.program_factory()
        results = run_coalesced(
            graph, program, config,
            [make_instances([1, 2]), make_instances([3])],
        )
        assert all(r.metadata["coalesced_members"] == 2 for r in results)

    def test_run_alone_equals_run_in_any_company(self, graph):
        """The same member is bit-identical across differently-sized batches."""
        info = ALGORITHM_REGISTRY["node2vec"]
        config = info.config_factory(seed=5)
        target = [4, 44, 144]
        alone = run_coalesced(
            graph, info.program_factory(), config, [make_instances(target)]
        )[0]
        for company in ([[9]], [[9], [10, 11]], [list(range(0, 200, 13))]):
            members = [make_instances(target)] + [
                make_instances(seeds) for seeds in company
            ]
            batched = run_coalesced(
                graph, info.program_factory(), config, members
            )[0]
            assert_member_equivalent(alone, batched)

    def test_rejects_out_of_range_seeds(self, graph):
        info = ALGORITHM_REGISTRY["deepwalk"]
        with pytest.raises(ValueError):
            run_coalesced(
                graph, info.program_factory(), info.config_factory(seed=1),
                [make_instances([graph.num_vertices + 5])],
            )


class TestServiceLayer:
    @pytest.fixture(scope="class")
    def service(self, graph):
        svc = SamplingService(
            num_workers=1, mode="thread", batch_window_s=0.02,
            memory_budget_bytes=None,
        )
        svc.load_graph("g", graph)
        yield svc
        svc.shutdown()

    @pytest.mark.parametrize("name", sorted(ALGORITHM_REGISTRY))
    def test_concurrent_requests_match_standalone(self, graph, service, name):
        info = ALGORITHM_REGISTRY[name]
        config = info.config_factory(seed=13)
        client = SamplingClient(service)
        responses = {}

        def issue(rank, seeds):
            responses[rank] = client.sample(
                "g", name, seeds, seed=13, timeout=60
            )

        threads = [
            threading.Thread(target=issue, args=(rank, seeds))
            for rank, seeds in enumerate(MEMBER_SEEDS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        for rank, seeds in enumerate(MEMBER_SEEDS):
            ref = GraphSampler(graph, info.program_factory(), config).run(seeds)
            got = responses[rank]
            assert got.ok and got.route == "in_memory"
            assert len(ref.samples) == len(got.samples)
            for a, b in zip(ref.samples, got.samples):
                assert a.instance_id == b.instance_id
                assert np.array_equal(a.seeds, b.seeds)
                assert np.array_equal(a.edges, b.edges)
            assert ref.iteration_counts == got.iteration_counts
