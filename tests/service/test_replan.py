"""Budget-change semantics: frozen admission plans and explicit replan().

Changing ``SamplingService.memory_budget_bytes`` after admission must not
silently resize or re-route an already-admitted graph (its plan sizing is
frozen); ``replan(name)`` is the explicit way to drain the graph's requests
and re-admit it under the settings now in force.
"""

import pytest

from repro.api.requests import SampleRequest
from repro.graph.generators import powerlaw_graph
from repro.planner.errors import SeedValidationError
from repro.service.server import SamplingService


@pytest.fixture(scope="module")
def graph():
    return powerlaw_graph(400, 6.0, seed=2)


def make_service(**kwargs):
    defaults = dict(num_workers=1, mode="thread", batch_window_s=0.0)
    defaults.update(kwargs)
    return SamplingService(**defaults)


def sample_once(svc, name, **overrides):
    request = SampleRequest(
        graph=name, algorithm="deepwalk", seeds=(1, 2, 3),
        config_overrides={"seed": 7, **overrides},
    )
    return svc.submit(request).result(timeout=60)


class TestFrozenAdmission:
    def test_budget_change_does_not_reroute_until_replan(self, graph):
        with make_service(memory_budget_bytes=graph.nbytes + 1) as svc:
            assert svc.load_graph("g", graph) == "in_memory"
            # Shrink the budget: the admitted graph keeps its frozen plan.
            svc.memory_budget_bytes = 1024
            assert svc.route_of("g") == "in_memory"
            response = sample_once(svc, "g")
            assert response.route == "in_memory"
            # Explicit replan applies the new budget.
            assert svc.replan("g") == "out_of_memory"
            assert svc.route_of("g") == "out_of_memory"
            response = sample_once(svc, "g")
            assert response.route == "out_of_memory"
            assert response.plan["route"] == "out_of_memory"
            assert response.plan["num_partitions"] >= 2

    def test_replan_back_to_in_memory(self, graph):
        with make_service(memory_budget_bytes=1024) as svc:
            assert svc.load_graph("g", graph) == "out_of_memory"
            svc.memory_budget_bytes = graph.nbytes + 1
            assert svc.replan("g") == "in_memory"
            response = sample_once(svc, "g")
            assert response.route == "in_memory"

    def test_replan_to_sharded(self, graph):
        with make_service(
            memory_budget_bytes=graph.nbytes + 1, cluster_shards=2
        ) as svc:
            assert svc.load_graph("g", graph) == "in_memory"
            svc.memory_budget_bytes = graph.nbytes // 3
            assert svc.replan("g") == "sharded"
            response = sample_once(svc, "g")
            assert response.route == "sharded"
            # Shard count re-sized under the *new* budget: >= ceil(nbytes/budget).
            assert response.plan["num_partitions"] >= 3

    def test_replan_unknown_graph_raises(self, graph):
        with make_service() as svc:
            with pytest.raises(KeyError):
                svc.replan("nope")

    def test_replan_invalidates_cached_class_plans(self, graph):
        with make_service(memory_budget_bytes=graph.nbytes + 1) as svc:
            svc.load_graph("g", graph)
            sample_once(svc, "g")
            assert svc._epochs.get("g").plans
            svc.memory_budget_bytes = 1024
            svc.replan("g")
            assert not svc._epochs.get("g").plans
            response = sample_once(svc, "g")
            assert response.plan["route"] == "out_of_memory"

    def test_replan_waits_for_inflight_requests(self, graph):
        """replan must drain, not yank plans out from under running units."""
        with make_service(memory_budget_bytes=graph.nbytes + 1,
                          batch_window_s=0.002) as svc:
            svc.load_graph("g", graph)
            futures = [
                svc.submit(SampleRequest(
                    graph="g", algorithm="deepwalk", seeds=(i,),
                    config_overrides={"seed": i, "depth": 6},
                ))
                for i in range(8)
            ]
            svc.memory_budget_bytes = 1024
            route = svc.replan("g", timeout=30.0)
            assert route == "out_of_memory"
            for future in futures:
                response = future.result(timeout=60)
                # Requests admitted before the replan ran on the old plan.
                assert response.route == "in_memory"


class TestIntakePause:
    def test_replan_pauses_intake_while_draining(self, graph):
        """A submit racing a replan either lands before the drain or waits
        for the re-admission -- it can never run on the stale plan."""
        import threading
        import time

        with make_service(memory_budget_bytes=graph.nbytes + 1,
                          batch_window_s=0.002) as svc:
            svc.load_graph("g", graph)
            sample_once(svc, "g")
            svc.memory_budget_bytes = 1024

            release = threading.Event()
            routes = []

            def submit_during_replan():
                release.wait(5.0)
                # Issued while the gate is (likely) closed: blocks until
                # the replan finishes, then runs on the NEW plan.
                routes.append(sample_once(svc, "g").route)

            thread = threading.Thread(target=submit_during_replan)
            thread.start()

            table_admit = svc._epochs.admit

            def admit_with_pause(*admission):
                # The gate is closed here; let the submitter run into it.
                release.set()
                time.sleep(0.05)
                return table_admit(*admission)

            svc._epochs.admit = admit_with_pause
            try:
                assert svc.replan("g", timeout=30.0) == "out_of_memory"
            finally:
                svc._epochs.admit = table_admit
            thread.join(timeout=30.0)
            assert not thread.is_alive()
            assert routes == ["out_of_memory"]

    def test_paused_intake_times_out_transient(self, graph):
        """Submitters blocked past intake_pause_timeout_s fail transient
        (the clients' retry machinery resubmits them)."""
        from repro.service.server import ServiceError

        with make_service(intake_pause_timeout_s=0.05) as svc:
            svc.load_graph("g", graph)
            with svc._requests.intake_paused():  # simulate a wedged replan
                with pytest.raises(ServiceError) as info:
                    svc.submit(SampleRequest(
                        graph="g", algorithm="deepwalk", seeds=(1,),
                    ))
                assert info.value.transient

    def test_replan_waits_for_submit_past_the_gate(self, graph):
        """_intake_open > 0 keeps the drain busy: a submit that already
        passed the gate finishes before re-admission proceeds."""
        with make_service(memory_budget_bytes=graph.nbytes + 1) as svc:
            svc.load_graph("g", graph)
            assert svc._requests.enter_intake()  # a submit is past the gate
            import threading
            import time

            def land_later():
                time.sleep(0.1)
                svc._requests.leave_intake()

            thread = threading.Thread(target=land_later)
            thread.start()
            svc.memory_budget_bytes = 1024
            started = time.perf_counter()
            assert svc.replan("g", timeout=10.0) == "out_of_memory"
            assert time.perf_counter() - started >= 0.09
            thread.join()


class TestResponsePlanMetadata:
    def test_response_carries_plan_and_explain(self, graph):
        with make_service(memory_budget_bytes=graph.nbytes + 1) as svc:
            svc.load_graph("g", graph)
            response = sample_once(svc, "g")
            assert response.plan is not None
            assert response.plan["route"] == "in_memory"
            assert response.plan["algorithm"] == "deepwalk"
            assert response.plan["predicted_time_s"] > 0
            assert "ExecutionPlan" in response.plan["explain"]

    def test_submit_time_seed_validation_is_uniform(self, graph):
        with make_service() as svc:
            svc.load_graph("g", graph)
            with pytest.raises(SeedValidationError):
                svc.submit(SampleRequest(
                    graph="g", algorithm="deepwalk",
                    seeds=(graph.num_vertices + 1,),
                ))
            # Duplicates inside one instance pool: rejected for
            # without-replacement programs, allowed for walks.
            with pytest.raises(SeedValidationError, match="duplicate"):
                svc.submit(SampleRequest(
                    graph="g", algorithm="unbiased_neighbor_sampling",
                    seeds=((1, 1, 2),),
                ))
            response = svc.submit(SampleRequest(
                graph="g", algorithm="deepwalk", seeds=((1, 1, 2),),
            )).result(timeout=60)
            assert response.ok
