"""End-to-end sampling-service behaviour: coalescing, routing, clients,
process workers, shutdown hygiene."""

import asyncio
import threading

import numpy as np
import pytest

from repro.algorithms.registry import ALGORITHM_REGISTRY
from repro.api.requests import SampleRequest
from repro.api.sampler import GraphSampler
from repro.graph.generators import powerlaw_graph
from repro.oom.scheduler import OutOfMemorySampler
from repro.service import (
    AsyncSamplingClient,
    SamplingClient,
    SamplingService,
    ServiceError,
    leaked_segments,
)


@pytest.fixture(scope="module")
def graph():
    return powerlaw_graph(400, 6.0, seed=2)


@pytest.fixture()
def service(graph):
    svc = SamplingService(
        num_workers=1, mode="thread", batch_window_s=0.01,
        memory_budget_bytes=None,
    )
    svc.load_graph("g", graph)
    yield svc
    svc.shutdown()


class TestRequestHandling:
    def test_single_request_roundtrip(self, service):
        client = SamplingClient(service)
        response = client.sample("g", "deepwalk", [1, 2, 3], depth=4, seed=1,
                                 timeout=30)
        assert response.ok
        assert response.num_instances == 3
        assert response.total_sampled_edges > 0
        assert response.stats["latency_s"] > 0
        assert response.all_edges().shape[1] == 2

    def test_num_instances_round_robin(self, service):
        client = SamplingClient(service)
        response = client.sample("g", "deepwalk", [1, 2], num_instances=5,
                                 depth=3, seed=1, timeout=30)
        assert response.num_instances == 5
        assert [int(s.seeds[0]) for s in response.samples] == [1, 2, 1, 2, 1]

    def test_concurrent_compatible_requests_coalesce(self, service):
        client = SamplingClient(service)
        responses = {}

        def issue(rank):
            responses[rank] = client.sample(
                "g", "simple_random_walk", [rank, rank + 50], depth=5, seed=3,
                timeout=30,
            )

        threads = [threading.Thread(target=issue, args=(r,)) for r in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert max(r.coalesced_with for r in responses.values()) > 1

    def test_incompatible_configs_do_not_share_a_class(self, service):
        client = SamplingClient(service)
        responses = {}

        def issue(rank):
            responses[rank] = client.sample(
                "g", "simple_random_walk", [rank], depth=5, seed=rank,
                timeout=30,
            )

        threads = [threading.Thread(target=issue, args=(r,)) for r in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Different RNG seeds -> different class keys -> never coalesced.
        assert all(r.coalesced_with == 1 for r in responses.values())

    def test_non_coalescable_requests_get_one_unit_each(self, service):
        client = SamplingClient(service)
        responses = {}

        def issue(rank):
            responses[rank] = client.sample(
                "g", "forest_fire_sampling", [rank], depth=2, seed=4,
                timeout=30,
            )

        before = service.stats.units_dispatched
        threads = [threading.Thread(target=issue, args=(r,)) for r in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Stateful programs never fuse: even identically-configured
        # concurrent requests must each get their own work unit.
        assert service.stats.units_dispatched - before == 4
        assert all(r.coalesced_with == 1 for r in responses.values())

    def test_coalesced_batch_failure_isolates_requests(self, graph):
        from repro.api.bias import SamplingProgram
        from repro.service.workers import RequestSpec, WorkUnit, execute_unit
        from repro.service.store import SharedGraphStore
        from repro.algorithms import registry as registry_module
        from repro.algorithms.registry import ALGORITHM_REGISTRY, AlgorithmInfo

        class ExplodingProgram(SamplingProgram):
            name = "exploding"
            supports_coalescing = True  # claims purity, then violates it

            def update(self, edges, sampled):
                if edges.instance.seeds[0] == 13:
                    raise RuntimeError("boom")
                return sampled

        info = ALGORITHM_REGISTRY["unbiased_neighbor_sampling"]
        registry_module.ALGORITHM_REGISTRY["exploding"] = AlgorithmInfo(
            name="exploding", bias="unbiased", neighbor_shape="constant",
            scope="per_vertex", is_random_walk=False,
            program_factory=ExplodingProgram,
            config_factory=info.config_factory,
        )
        try:
            unit = WorkUnit(
                unit_id=1, handle=None, algorithm="exploding",
                config=info.config_factory(seed=1, depth=2),
                program_kwargs=(),
                requests=(
                    RequestSpec(request_id=100, seeds=(5,)),
                    RequestSpec(request_id=101, seeds=(13,)),
                    RequestSpec(request_id=102, seeds=(7,)),
                ),
            )
            with pytest.warns(UserWarning, match="coalesced batch failed"):
                result = execute_unit(graph, unit)
            assert result.error is None
            by_id = {p.request_id: p for p in result.payloads}
            # The faulty member fails alone; its batch peers still succeed,
            # and every solo rerun is marked as a fallback.
            assert by_id[101].error is not None
            assert by_id[100].error is None and by_id[102].error is None
            assert by_id[100].stats["coalesced_fallback"] == 1.0
        finally:
            del registry_module.ALGORITHM_REGISTRY["exploding"]

    def test_unknown_graph_rejected(self, service):
        with pytest.raises(KeyError):
            service.submit(SampleRequest(graph="nope", algorithm="deepwalk",
                                         seeds=(1,)))

    def test_out_of_range_seeds_rejected(self, service, graph):
        with pytest.raises(ValueError):
            service.submit(SampleRequest(
                graph="g", algorithm="deepwalk",
                seeds=(graph.num_vertices + 1,),
            ))

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(KeyError):
            SampleRequest(graph="g", algorithm="not_an_algorithm", seeds=(1,))

    def test_bad_config_override_fails_fast(self, service):
        with pytest.raises(TypeError):
            service.submit(SampleRequest(
                graph="g", algorithm="deepwalk", seeds=(1,),
                config_overrides={"not_a_field": 3},
            ))

    def test_unhashable_program_kwargs_fail_at_submit(self, service):
        # Must raise synchronously, not kill the dispatcher thread later.
        with pytest.raises(TypeError):
            service.submit(SampleRequest(
                graph="g", algorithm="node2vec", seeds=(1,),
                program_kwargs={"p": [1, 2]},
            ))
        client = SamplingClient(service)
        assert client.sample("g", "deepwalk", [1], depth=2, seed=1,
                             timeout=30).ok

    def test_program_kwargs_separate_classes(self, service):
        client = SamplingClient(service)
        a = client.sample("g", "node2vec", [3], seed=2,
                          program_kwargs={"p": 4.0}, timeout=30)
        b = client.sample("g", "node2vec", [3], seed=2,
                          program_kwargs={"p": 0.25}, timeout=30)
        assert a.ok and b.ok


class TestAsyncClient:
    def test_async_fanout(self, service, graph):
        client = AsyncSamplingClient(service)

        async def fanout():
            tasks = [
                client.sample("g", "simple_random_walk", [i], depth=4, seed=5)
                for i in range(8)
            ]
            return await asyncio.gather(*tasks)

        responses = asyncio.run(fanout())
        assert len(responses) == 8
        info = ALGORITHM_REGISTRY["simple_random_walk"]
        config = info.config_factory(depth=4, seed=5)
        for i, response in enumerate(responses):
            ref = GraphSampler(graph, info.program_factory(), config).run([i])
            assert np.array_equal(ref.samples[0].edges, response.samples[0].edges)


class TestAdmissionRouting:
    def test_oversized_graph_routes_out_of_memory(self, graph):
        svc = SamplingService(
            num_workers=1, mode="thread", batch_window_s=0.0,
            memory_budget_bytes=1024,
        )
        try:
            assert svc.load_graph("big", graph) == "out_of_memory"
            client = SamplingClient(svc)
            response = client.sample("big", "unbiased_neighbor_sampling",
                                     [3, 5, 7], depth=2, neighbor_size=3,
                                     seed=9, timeout=60)
            assert response.route == "out_of_memory"
            info = ALGORITHM_REGISTRY["unbiased_neighbor_sampling"]
            ref = OutOfMemorySampler(
                graph, info.program_factory(),
                info.config_factory(depth=2, neighbor_size=3, seed=9),
                svc._epochs.get("big").layout.oom,
            ).run([3, 5, 7])
            for a, b in zip(ref.sample.samples, response.samples):
                assert np.array_equal(a.edges, b.edges)
            # OOM requests never fuse: identical concurrent requests must
            # still get one unit each (spread across workers).
            before = svc.stats.units_dispatched
            responses = {}

            def issue(rank):
                responses[rank] = client.sample(
                    "big", "simple_random_walk", [rank], depth=3, seed=2,
                    timeout=60,
                )

            threads = [threading.Thread(target=issue, args=(r,))
                       for r in range(3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert svc.stats.units_dispatched - before == 3
            assert all(r.coalesced_with == 1 for r in responses.values())
        finally:
            svc.shutdown()

    @pytest.mark.parametrize("seeds", [[[1, 2], [3, 4], [5, 6]], [[1, 2], [3]]],
                             ids=["nested", "ragged"])
    def test_multi_seed_instances_survive_every_route(self, graph, seeds):
        """A multi-seed request keeps its instances on every route (the
        out-of-memory sampler used to flatten them to one seed each, and to
        reject a ragged request)."""
        over_budget = graph.nbytes // 4
        for route, kwargs in (
            ("in_memory", {"memory_budget_bytes": None}),
            ("out_of_memory", {"memory_budget_bytes": over_budget}),
            ("sharded", {"memory_budget_bytes": over_budget,
                         "cluster_shards": 3}),
        ):
            with SamplingService(num_workers=1, mode="thread", **kwargs) as svc:
                assert svc.load_graph("g", graph) == route
                response = SamplingClient(svc).sample(
                    "g", "deepwalk", seeds, timeout=60)
            assert response.ok and response.route == route
            assert [s.seeds.tolist() for s in response.samples] == seeds

    def test_small_graph_routes_in_memory(self, graph):
        svc = SamplingService(num_workers=1, mode="thread",
                              memory_budget_bytes=64 * 1024 * 1024)
        try:
            assert svc.load_graph("small", graph) == "in_memory"
        finally:
            svc.shutdown()


class TestProcessWorkers:
    def test_process_pool_end_to_end_and_no_leaks(self, graph):
        svc = SamplingService(num_workers=2, mode="process",
                              batch_window_s=0.01, memory_budget_bytes=None)
        prefix = svc.store.prefix
        try:
            svc.load_graph("g", graph)
            client = SamplingClient(svc)
            responses = {}

            def issue(rank):
                responses[rank] = client.sample(
                    "g", "simple_random_walk", [rank, rank + 1], depth=4,
                    seed=6, timeout=120,
                )

            threads = [threading.Thread(target=issue, args=(r,))
                       for r in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            info = ALGORITHM_REGISTRY["simple_random_walk"]
            config = info.config_factory(depth=4, seed=6)
            for rank, response in responses.items():
                ref = GraphSampler(graph, info.program_factory(), config).run(
                    [rank, rank + 1]
                )
                for a, b in zip(ref.samples, response.samples):
                    assert np.array_equal(a.edges, b.edges)
        finally:
            svc.shutdown()
        assert leaked_segments(prefix) == []

    def test_worker_crash_fails_its_unit_but_not_the_service(
            self, graph, watch_claims, diagnosis):
        import os
        import signal
        from concurrent.futures import TimeoutError as FutureTimeout

        from repro.service import ServiceError

        svc = SamplingService(num_workers=2, mode="process",
                              batch_window_s=0.0, max_batch_requests=1,
                              memory_budget_bytes=None)
        try:
            svc.load_graph("g", graph)
            claimed_by = watch_claims(svc)
            # A walk far too large to ever finish before the signal lands
            # (the kill interrupts it milliseconds after the claim arrives).
            future = svc.submit(SampleRequest(
                graph="g", algorithm="simple_random_walk", seeds=tuple(range(200)),
                num_instances=5000, config_overrides={"depth": 5000, "seed": 1},
            ))
            os.kill(claimed_by(), signal.SIGKILL)
            try:
                with pytest.raises(ServiceError):
                    future.result(timeout=30)
            except FutureTimeout:
                pytest.fail("killed unit never failed; " + diagnosis(svc))
            # The surviving worker keeps serving.
            client = SamplingClient(svc)
            assert client.sample("g", "deepwalk", [1], depth=3, seed=1,
                                 timeout=60).ok
        finally:
            svc.shutdown()

    def test_shutdown_is_idempotent(self, graph):
        svc = SamplingService(num_workers=1, mode="thread")
        svc.load_graph("g", graph)
        svc.shutdown()
        svc.shutdown()
        with pytest.raises(RuntimeError):
            svc.submit(SampleRequest(graph="g", algorithm="deepwalk",
                                     seeds=(1,)))


class TestStatsAndSlicing:
    def test_stats_counters(self, graph):
        svc = SamplingService(num_workers=1, mode="thread",
                              batch_window_s=0.01)
        try:
            svc.load_graph("g", graph)
            client = SamplingClient(svc)
            for i in range(3):
                client.sample("g", "deepwalk", [i], depth=3, seed=1, timeout=30)
            snap = svc.stats.snapshot()
            assert snap["requests_submitted"] == 3
            assert snap["requests_completed"] == 3
            assert snap["requests_failed"] == 0
        finally:
            svc.shutdown()

    def test_mean_unit_size_ignores_cache_hits(self, graph):
        """A cache hit completes without dispatching: the repeat must not
        inflate the mean size of the one unit that did run."""
        svc = SamplingService(num_workers=1, mode="inline")
        try:
            svc.load_graph("g", graph)
            client = SamplingClient(svc)
            for _ in range(2):
                client.sample("g", "deepwalk", [1], depth=3, seed=1, timeout=30)
            snap = svc.stats()
            assert snap["requests_completed"] == 2
            assert snap["cache_hits"] == 1
            assert snap["units_dispatched"] == 1
            assert snap["mean_unit_size"] == 1.0
        finally:
            svc.shutdown()

    def test_raising_dispatch_fails_the_batch_not_the_thread(self, graph):
        from repro.service import ServiceError

        svc = SamplingService(num_workers=1, mode="inline", batch_window_s=0.0)
        try:
            svc.load_graph("g", graph)
            dispatch_batch = svc._dispatch_batch

            def explode(batch):
                raise RuntimeError("boom")

            svc._dispatch_batch = explode
            doomed = svc.submit(SampleRequest(
                graph="g", algorithm="deepwalk", seeds=(1,),
            ))
            with pytest.raises(ServiceError, match="dispatch failed.*boom"):
                doomed.result(timeout=30)
            svc._dispatch_batch = dispatch_batch
            # The dispatcher survived, nothing is left pending or pinned,
            # and the next request is served.
            assert svc._dispatcher.is_alive()
            assert len(svc._requests) == 0
            assert svc._epochs.get("g").active == 0
            client = SamplingClient(svc)
            assert client.sample("g", "deepwalk", [2], depth=3, seed=1,
                                 timeout=30).ok
            snap = svc.stats()
            assert snap["requests_failed"] == 1
            assert snap["requests_completed"] == 1
        finally:
            svc.shutdown()

    def test_sample_result_slice_instances(self, graph):
        info = ALGORITHM_REGISTRY["deepwalk"]
        result = GraphSampler(
            graph, info.program_factory(), info.config_factory(seed=1)
        ).run([1, 2, 3, 4])
        part = result.slice_instances(1, 3, iteration_counts=[7],
                                      metadata={"tag": "x"})
        assert [s.instance_id for s in part.samples] == [1, 2]
        assert part.iteration_counts == [7]
        assert part.metadata["tag"] == "x"
        assert part.metadata["program"] == "deepwalk"
        with pytest.raises(ValueError):
            result.slice_instances(2, 9)


class TestExecuteUnit:
    """The worker runs the unit's plan as shipped: no second plan, no
    facade, and a plan-less unit gets its plan from its flat fields."""

    ALGORITHM = "deepwalk"
    SEEDS = ((3, 5, 7), (11, 13), (17,))

    def units(self, graph, route, requests):
        """Units built the way the service builds them: admission, class
        plan, then ``scale_plan`` over the unit's requests."""
        from dataclasses import replace

        from repro.planner.planner import (
            PlanRequest, plan, plan_admission, scale_plan,
        )
        from repro.service.workers import RequestSpec, WorkUnit

        budget = None if route == "in_memory" else graph.nbytes // 4
        admitted, layout = plan_admission(
            num_vertices=graph.num_vertices, num_edges=graph.num_edges,
            nbytes=graph.nbytes, memory_budget_bytes=budget,
            cluster_shards=3 if route == "sharded" else 0,
        )
        assert admitted == route
        config = ALGORITHM_REGISTRY[self.ALGORITHM].config_factory(seed=5)
        class_plan = replace(plan(PlanRequest(
            config=config, algorithm=self.ALGORITHM, num_instances=1,
            memory_budget_bytes=budget, oom_config=layout.oom,
            force_route=route, graph_num_vertices=graph.num_vertices,
            graph_num_edges=graph.num_edges, graph_nbytes=graph.nbytes,
        )), layout=layout)
        unit_plan = scale_plan(class_plan, [len(s) for s in requests])
        return WorkUnit(
            unit_id=0, handle=None, algorithm=self.ALGORITHM, config=config,
            program_kwargs=(),
            requests=tuple(RequestSpec(request_id=i, seeds=seeds)
                           for i, seeds in enumerate(requests)),
            route=route, oom_config=layout.oom, plan=unit_plan,
        )

    @pytest.mark.parametrize("route, requests", [
        ("in_memory", SEEDS[:1]),
        ("coalesced", SEEDS),
        ("out_of_memory", SEEDS),
        ("sharded", SEEDS),
    ])
    def test_planned_unit_is_not_planned_again(self, graph, monkeypatch,
                                               route, requests):
        from repro.distributed import ShardedSamplingCluster
        from repro.planner import planner
        from repro.service import workers

        unit = self.units(
            graph, "in_memory" if route == "coalesced" else route, requests
        )
        assert unit.plan.route == route
        calls = []

        def spy(name, original):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(planner, "plan", spy("plan", planner.plan))
        monkeypatch.setattr(workers, "plan", spy("plan", planner.plan),
                            raising=False)
        for facade in (GraphSampler, OutOfMemorySampler,
                       ShardedSamplingCluster):
            monkeypatch.setattr(facade, "__init__",
                                spy(facade.__name__, facade.__init__))
        result = workers.execute_unit(graph, unit)
        assert result.error is None
        assert all(p.error is None for p in result.payloads)
        assert len(result.payloads) == len(requests)
        assert calls == []
        fused = len(requests) if route == "coalesced" else 1
        assert all(p.coalesced_with == fused for p in result.payloads)

    @pytest.mark.parametrize("route, requests, keys", [
        ("in_memory", SEEDS[:1], ()),
        ("coalesced", SEEDS, ()),
        ("out_of_memory", SEEDS, ("makespan",)),
        ("sharded", SEEDS, ("makespan", "num_shards", "migrations")),
    ])
    def test_planned_unit_response_shape(self, graph, route, requests, keys):
        """Each route's payload keeps its admitted route (a fused unit reports
        ``in_memory``), its fusion width and its schedule stats."""
        from repro.service.workers import execute_unit

        unit = self.units(
            graph, "in_memory" if route == "coalesced" else route, requests
        )
        result = execute_unit(graph, unit)
        fused = len(requests) if route == "coalesced" else 1
        by_id = {p.request_id: p for p in result.payloads}
        assert sorted(by_id) == list(range(len(requests)))
        for request_id, seeds in enumerate(requests):
            payload = by_id[request_id]
            assert payload.route == unit.route
            assert payload.coalesced_with == fused
            assert len(payload.samples) == len(seeds)
            assert isinstance(payload.stats["step_tier"], str)
            assert "coalesced_fallback" not in payload.stats
            for key in keys:
                assert payload.stats[key] >= 0.0
        if route == "sharded":
            shards = float(unit.plan.layout.num_partitions)
            assert all(p.stats["num_shards"] == shards
                       for p in result.payloads)

    @pytest.mark.parametrize("route", ["in_memory", "out_of_memory",
                                       "sharded"])
    def test_plan_less_unit_matches_the_facade(self, graph, route):
        """A unit carrying only the flat fields (no plan) samples exactly
        what the route's facade samples."""
        from repro.distributed import ShardedSamplingCluster
        from repro.oom.scheduler import OutOfMemoryConfig
        from repro.service.workers import RequestSpec, WorkUnit, execute_unit

        info = ALGORITHM_REGISTRY[self.ALGORITHM]
        config = info.config_factory(seed=5)
        oom = OutOfMemoryConfig.fully_optimized(num_partitions=3)
        seeds = list(self.SEEDS[0])
        unit = WorkUnit(
            unit_id=0, handle=None, algorithm=self.ALGORITHM, config=config,
            program_kwargs=(),
            requests=(RequestSpec(request_id=0, seeds=tuple(seeds)),),
            route=route,
            oom_config=oom if route == "out_of_memory" else None,
            cluster_shards=3 if route == "sharded" else None,
        )
        [payload] = execute_unit(graph, unit).payloads
        assert payload.error is None and payload.route == route
        if route == "in_memory":
            expected = GraphSampler(graph, info.program_factory(),
                                    config).run(seeds)
        elif route == "out_of_memory":
            expected = OutOfMemorySampler(graph, info.program_factory(),
                                          config, oom).run(seeds).sample
        else:
            expected = ShardedSamplingCluster(
                graph, self.ALGORITHM, config, num_shards=3,
            ).run(seeds).result
            assert payload.stats["num_shards"] == 3.0
        assert list(payload.iteration_counts) == list(
            expected.iteration_counts)
        for ours, theirs in zip(payload.samples, expected.samples):
            assert np.array_equal(ours.edges, theirs.edges)
