"""Unit tests of the execution planner: routing, layout, explain, scaling."""

import pickle

import numpy as np
import pytest

from repro.algorithms.registry import default_config, get_algorithm
from repro.api.instance import make_instances
from repro.graph.generators import powerlaw_graph
from repro.oom.scheduler import OutOfMemoryConfig
from repro.planner.errors import PlanError, SeedValidationError
from repro.planner.plan import ExecutionPlan, PartitionLayout
from repro.planner.planner import (
    GraphStats,
    PlanRequest,
    plan,
    plan_admission,
    plan_route,
    scale_plan,
)


@pytest.fixture(scope="module")
def graph():
    return powerlaw_graph(200, 6.0, seed=3)


def make_plan(graph, algorithm="deepwalk", **overrides):
    info = get_algorithm(algorithm)
    defaults = dict(
        graph=graph,
        program=info.program_factory(),
        config=info.config_factory(),
        instances=make_instances([0, 1, 2]),
        force_route="in_memory",
    )
    defaults.update(overrides)
    return plan(PlanRequest(**defaults))


class TestRouting:
    def test_within_budget_routes_in_memory(self, graph):
        assert plan_route(
            graph.nbytes,
            memory_budget_bytes=graph.nbytes + 1,
            cluster_shards=4,
        ) == "in_memory"

    def test_no_budget_routes_in_memory(self, graph):
        assert plan_route(
            graph.nbytes, memory_budget_bytes=None, cluster_shards=0
        ) == "in_memory"

    def test_over_budget_without_shards_routes_oom(self, graph):
        assert plan_route(
            graph.nbytes, memory_budget_bytes=1024, cluster_shards=0
        ) == "out_of_memory"

    def test_over_budget_with_shards_routes_sharded(self, graph):
        assert plan_route(
            graph.nbytes, memory_budget_bytes=1024, cluster_shards=2
        ) == "sharded"

    def test_admission_freezes_oom_layout(self, graph):
        route, layout = plan_admission(
            num_vertices=graph.num_vertices,
            num_edges=graph.num_edges,
            nbytes=graph.nbytes,
            memory_budget_bytes=graph.nbytes // 3,
            cluster_shards=0,
        )
        assert route == "out_of_memory"
        assert layout.kind == "oom_partitions"
        assert layout.oom.num_partitions >= 3
        assert layout.oom.batched and layout.oom.workload_aware

    def test_admission_sizes_shards_to_budget(self, graph):
        route, layout = plan_admission(
            num_vertices=graph.num_vertices,
            num_edges=graph.num_edges,
            nbytes=graph.nbytes,
            memory_budget_bytes=graph.nbytes // 5,
            cluster_shards=2,
        )
        assert route == "sharded"
        # Floor of 2, but the budget needs at least 5 shards.
        assert layout.num_partitions >= 5

    def test_explicit_oom_config_wins(self, graph):
        oom = OutOfMemoryConfig.baseline(num_partitions=7)
        _, layout = plan_admission(
            num_vertices=graph.num_vertices,
            num_edges=graph.num_edges,
            nbytes=graph.nbytes,
            memory_budget_bytes=1024,
            cluster_shards=0,
            oom_config=oom,
        )
        assert layout.oom is oom
        assert layout.num_partitions == 7


class TestPlanConstruction:
    def test_in_memory_plan_shape(self, graph):
        p = make_plan(graph, force_route="in_memory")
        assert p.route == "in_memory"
        assert p.num_instances == 3
        assert p.member_sizes == (3,)
        assert p.warp_cursors == "global"
        assert p.layout.kind == "none"
        assert p.predicted_time_s > 0
        assert p.predicted_cost.rng_draws > 0

    def test_coalesced_plan_members(self, graph):
        info = get_algorithm("deepwalk")
        p = plan(PlanRequest(
            graph=graph,
            program=info.program_factory(),
            config=info.config_factory(),
            members=[make_instances([0, 1]), make_instances([2, 3, 4])],
            force_route="coalesced",
        ))
        assert p.member_sizes == (2, 3)
        assert p.num_instances == 5
        assert p.warp_cursors == "per_member"

    def test_stateful_program_cannot_coalesce(self, graph):
        info = get_algorithm("forest_fire_sampling")
        with pytest.raises(PlanError, match="stateful"):
            plan(PlanRequest(
                graph=graph,
                program=info.program_factory(),
                config=info.config_factory(),
                members=[make_instances([0]), make_instances([1])],
                force_route="coalesced",
            ))

    def test_sharded_plan_uses_boundaries(self, graph):
        import numpy as np

        p = make_plan(
            graph,
            force_route="sharded",
            boundaries=np.array([0, 100, 200]),
        )
        assert p.layout.kind == "shard_ranges"
        assert p.layout.num_partitions == 2
        assert p.warp_cursors == "per_walker"

    def test_empty_graph_rejected(self):
        from repro.graph.csr import CSRGraph
        import numpy as np

        empty = CSRGraph(np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.int64))
        with pytest.raises(PlanError, match="empty graph"):
            make_plan(empty, instances=make_instances([0]))

    def test_plan_is_picklable(self, graph):
        p = make_plan(graph)
        clone = pickle.loads(pickle.dumps(p))
        assert clone.route == p.route
        assert clone.predicted_cost.as_dict() == p.predicted_cost.as_dict()

    def test_route_is_required(self, graph):
        """plan() never routes: admission (or the facade's tier) names it."""
        with pytest.raises(PlanError, match="force_route"):
            make_plan(graph, force_route=None)

    def test_unknown_route_rejected(self, graph):
        with pytest.raises(ValueError, match="unknown route"):
            ExecutionPlan(route="warp_drive", config=default_config("deepwalk"))


class TestExplain:
    def test_explain_mentions_route_layout_and_cost(self, graph):
        p = make_plan(
            graph,
            force_route="out_of_memory",
            oom_config=OutOfMemoryConfig.fully_optimized(num_partitions=4),
            memory_budget_bytes=graph.nbytes // 4,
        )
        text = p.explain()
        assert "route=out_of_memory" in text
        assert "over budget" in text
        assert "4 scheduled partitions" in text
        assert "BA+WS+BAL" in text
        assert "predicted:" in text

    def test_summary_is_flat_and_picklable(self, graph):
        summary = make_plan(graph).summary()
        assert summary["route"] == "in_memory"
        assert "explain" in summary
        pickle.dumps(summary)


class TestScalePlan:
    def test_multi_member_unit_becomes_coalesced(self, graph):
        base = make_plan(graph, force_route="in_memory")
        unit = scale_plan(base, [2, 3, 1])
        assert unit.route == "coalesced"
        assert unit.warp_cursors == "per_member"
        assert unit.member_sizes == (2, 3, 1)
        assert unit.num_instances == 6
        # One member of a fused unit (its fallback run) is never coalesced.
        solo = scale_plan(unit, [2])
        assert (solo.route, solo.warp_cursors) == ("in_memory", "global")

    def test_non_coalescable_class_keeps_its_route(self, graph):
        """Fusion is decided here alone: a stateful class never fuses, and
        an over-budget class keeps its route with one entry per member."""
        stateful = scale_plan(
            make_plan(graph, "forest_fire_sampling"), [2, 3, 1]
        )
        assert not stateful.coalescable
        assert stateful.route == "in_memory"
        assert stateful.warp_cursors == "global"
        assert stateful.member_sizes == (2, 3, 1)
        oom = make_plan(graph, force_route="out_of_memory",
                        oom_config=OutOfMemoryConfig.baseline())
        assert scale_plan(oom, [2, 3, 1]).route == "out_of_memory"

    def test_predicted_cost_scales_with_instances(self, graph):
        base = make_plan(graph, force_route="in_memory")
        small = scale_plan(base, [10])
        large = scale_plan(base, [1000])
        assert large.predicted_cost.rng_draws == 100 * small.predicted_cost.rng_draws
        assert large.predicted_time_s > small.predicted_time_s

    def test_sharded_route_survives_scaling(self, graph):
        import numpy as np

        base = make_plan(
            graph, force_route="sharded", boundaries=np.array([0, 100, 200])
        )
        unit = scale_plan(base, [4])
        assert unit.route == "sharded"
        assert unit.warp_cursors == "per_walker"


class TestSeedValidationUniformity:
    """One error type across every entry point (the satellite contract)."""

    def test_batch_validator_flags(self):
        with pytest.raises(SeedValidationError, match="at least one seed"):
            make_instances(())
        with pytest.raises(SeedValidationError, match="instance 1 .* outside"):
            make_instances((5, 12)).validate(10)
        with pytest.raises(SeedValidationError, match="instance 0 .* outside"):
            make_instances(((-1, 2), (3,))).validate(10)
        with pytest.raises(SeedValidationError, match="instance 0 has no seed"):
            make_instances(((), (1,))).validate(10)
        with pytest.raises(SeedValidationError, match="instance 1 .* duplicate"):
            make_instances(((1, 2), (2, 1, 2))).validate(
                10, reject_duplicates=True
            )
        # The same vertex in two instances is not a duplicate.
        make_instances(((1, 2), (2, 1))).validate(10, reject_duplicates=True)
        make_instances(((1, 1, 2),)).validate(10)  # walks: allowed
        batch = make_instances((1, 2), num_instances=8)
        batch.validate(10)
        assert len(batch) == 8

    def test_truncation_drops_seeds_before_validation(self):
        """num_instances < len(seeds) drops the tail before instances are
        built, so the dropped seeds are never validated -- through the
        service's submit-time check exactly as through a standalone sampler."""
        make_instances((5, 10**9), num_instances=1).validate(100)
        with pytest.raises(SeedValidationError, match="outside"):
            make_instances((10**9, 5), num_instances=1).validate(100)
        make_instances(((1,), (10**9,)), num_instances=1).validate(100)

    def test_graph_sampler_raises_seed_validation_error(self, graph):
        from repro.api.sampler import GraphSampler

        info = get_algorithm("unbiased_neighbor_sampling")
        sampler = GraphSampler(graph, info.program_factory(), info.config_factory())
        with pytest.raises(SeedValidationError):
            sampler.run([graph.num_vertices + 5])
        with pytest.raises(SeedValidationError, match="duplicate"):
            sampler.run([[1, 1, 2]])

    def test_oom_sampler_raises_seed_validation_error(self, graph):
        from repro.oom.scheduler import OutOfMemorySampler

        info = get_algorithm("deepwalk")
        sampler = OutOfMemorySampler(
            graph, info.program_factory(), info.config_factory()
        )
        with pytest.raises(SeedValidationError):
            sampler.run([-1])

    def test_run_coalesced_raises_seed_validation_error(self, graph):
        from repro.engine.hetero import run_coalesced

        info = get_algorithm("deepwalk")
        with pytest.raises(SeedValidationError):
            run_coalesced(
                graph, info.program_factory(), info.config_factory(),
                [make_instances([0]), make_instances([graph.num_vertices])],
            )

    def test_cluster_raises_seed_validation_error(self, graph):
        from repro.distributed import ShardedSamplingCluster

        cluster = ShardedSamplingCluster(graph, "deepwalk", num_shards=2)
        with pytest.raises(SeedValidationError):
            cluster.run([0, graph.num_vertices + 1])

    def test_error_is_a_value_error(self):
        assert issubclass(SeedValidationError, ValueError)
        assert issubclass(SeedValidationError, PlanError)

    def test_empty_seed_list_is_uniform_too(self, graph):
        from repro.api.instance import make_instances as mk
        from repro.api.requests import SampleRequest

        with pytest.raises(SeedValidationError, match="at least one seed"):
            mk([])
        with pytest.raises(SeedValidationError, match="at least one seed"):
            SampleRequest(graph="g", algorithm="deepwalk", seeds=())


class TestCostModelPrediction:
    def test_graph_stats_average_degree(self):
        stats = GraphStats(100, 500, 8000)
        assert stats.average_degree == 5.0
        assert GraphStats(0, 0, 0).average_degree == 0.0

    def test_oom_prediction_charges_transfers(self, graph):
        from repro.planner.cost import predict_cost

        cfg = default_config("deepwalk")
        in_mem = predict_cost(graph, cfg, 100)
        oom = predict_cost(
            graph, cfg, 100,
            route="out_of_memory", num_partitions=4, max_resident_partitions=2,
        )
        assert in_mem.h2d_bytes == 0
        assert oom.h2d_bytes > 0
        assert oom.partition_transfers > 0

    def test_sharded_prediction_beats_serial(self, graph):
        from repro.planner.cost import predict_time_s

        cfg = default_config("deepwalk")
        sharded = predict_time_s(graph, cfg, 1000, route="sharded", num_shards=8)
        serial = predict_time_s(graph, cfg, 1000)
        assert sharded < serial


class TestExecutorContracts:
    def test_coalesced_plan_needs_members(self, graph):
        from repro.planner.executor import Executor

        info = get_algorithm("deepwalk")
        p = plan(PlanRequest(
            graph=graph,
            program=info.program_factory(),
            config=info.config_factory(),
            members=[make_instances([0]), make_instances([1])],
            force_route="coalesced",
        ))
        with pytest.raises(ValueError, match="member instance lists"):
            Executor(p, graph).execute(instances=make_instances([0]))

    def test_standalone_plan_needs_instances(self, graph):
        from repro.planner.executor import Executor

        p = make_plan(graph, force_route="in_memory")
        with pytest.raises(ValueError, match="needs instances"):
            Executor(p, graph).execute()

    @staticmethod
    def registry_plan(graph, **overrides):
        """A plan that names its registry algorithm, as the service's do."""
        return plan(PlanRequest(**{
            "graph": graph, "algorithm": "deepwalk",
            "config": default_config("deepwalk"),
            "instances": make_instances([0, 1, 2]),
            "force_route": "in_memory", **overrides,
        }))

    def test_registry_program_when_none_is_given(self, graph):
        """Left out, the program and its engine come from the registry."""
        from repro.planner.executor import Executor

        info = get_algorithm("deepwalk")
        p = self.registry_plan(graph)
        derived = Executor(p, graph).execute(make_instances([0, 1, 2]))
        given = Executor(p, graph, program=info.program_factory()).execute(
            make_instances([0, 1, 2])
        )
        assert derived.iteration_counts == given.iteration_counts
        for ours, theirs in zip(derived.samples, given.samples):
            assert np.array_equal(ours.edges, theirs.edges)

    def test_oom_partitions_come_from_the_layout(self, graph):
        """Without a caller's PartitionSet the run splits the graph as the
        plan's ``layout.oom`` says, and samples what the explicit split
        samples."""
        from repro.graph.partition import partition_graph
        from repro.planner.executor import Executor

        p = self.registry_plan(
            graph, force_route="out_of_memory",
            oom_config=OutOfMemoryConfig.baseline(num_partitions=3),
        )
        derived = Executor(p, graph)
        ran = derived.execute(make_instances([0, 1, 2]))
        assert derived.partitions.num_partitions == 3
        explicit = Executor(
            p, graph, partitions=partition_graph(graph, 3)
        ).execute(make_instances([0, 1, 2]))
        assert ran.partition_transfers == explicit.partition_transfers
        assert ran.sample.iteration_counts == explicit.sample.iteration_counts
        for ours, theirs in zip(ran.sample.samples, explicit.sample.samples):
            assert np.array_equal(ours.edges, theirs.edges)

    def test_sharded_bounds_come_from_the_layout(self, graph):
        """Admission leaves a sharded layout's boundaries empty; the run then
        splits the graph into ``num_partitions`` shards itself, exactly as
        if the boundaries had been planned."""
        from dataclasses import replace

        from repro.graph.partition import partition_bounds
        from repro.planner.executor import Executor

        seeds = list(range(0, 200, 9))
        planned = self.registry_plan(graph, instances=make_instances(seeds),
                                     force_route="sharded",
                                     boundaries=partition_bounds(graph, 3))
        empty = replace(planned, layout=replace(planned.layout, boundaries=()))
        assert empty.layout.num_partitions == 3
        ran = Executor(empty, graph).execute(make_instances(seeds))
        expected = Executor(planned, graph).execute(make_instances(seeds))
        assert ran.num_shards == expected.num_shards == 3
        assert ran.migrations == expected.migrations
        assert ran.result.iteration_counts == expected.result.iteration_counts
        for ours, theirs in zip(ran.result.samples, expected.result.samples):
            assert np.array_equal(ours.edges, theirs.edges)

    @pytest.mark.parametrize("route", ["in_memory", "out_of_memory"])
    def test_each_run_resolves_its_step_once(self, graph, route, resolve_calls):
        """One step decision per run, as the service's worker runs a plan:
        the engine the executor builds and the walk kernel both follow it."""
        from repro.planner.executor import Executor

        p = self.registry_plan(
            graph, force_route=route,
            oom_config=OutOfMemoryConfig.baseline(num_partitions=3),
        )
        resolve_calls.clear()
        Executor(p, graph).execute(make_instances([0, 1, 2]))
        assert len(resolve_calls) == 1

    def test_plan_without_graph_needs_stats(self):
        with pytest.raises(PlanError, match="graph or explicit graph stats"):
            plan(PlanRequest(algorithm="deepwalk"))

    def test_plan_without_config_or_algorithm(self, graph):
        with pytest.raises(PlanError, match="config or a registry algorithm"):
            plan(PlanRequest(graph=graph, instances=make_instances([0])))


class TestPartitionLayoutDescribe:
    def test_describe_variants(self):
        nbytes = 10 * 1024 * 1024
        assert "no partitioning" in PartitionLayout().describe(nbytes)
        oom = PartitionLayout(
            kind="oom_partitions", num_partitions=4,
            oom=OutOfMemoryConfig.batched_only(num_partitions=4),
        )
        assert "BA" in oom.describe(nbytes)
        shards = PartitionLayout(
            kind="shard_ranges", num_partitions=2, boundaries=(0, 5, 10)
        )
        assert "2 cluster shards" in shards.describe(nbytes)
