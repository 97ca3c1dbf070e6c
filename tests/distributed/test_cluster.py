"""Unit tests for the sharded cluster: router, shard runtime, coordinator."""

import numpy as np
import pytest

from repro.api.instance import InstanceBatch, InstanceState, make_instances
from repro.api.sampler import GraphSampler
from repro.algorithms.registry import default_config, get_algorithm
from repro.distributed import (
    ClusterTransportError,
    MigrationRouter,
    ShardRuntime,
    ShardedSamplingCluster,
    WalkerBatch,
    WalkerEnvelope,
    bucket_by_shard,
    routing_vertex,
    walker_program_seed,
)
from repro.gpusim.costmodel import CostModel
from repro.graph.generators import powerlaw_graph, ring_graph
from repro.graph.partition import partition_bounds
from repro.service.store import SharedGraphStore, leaked_segments


def envelope(instance_id: int, vertex: int) -> WalkerEnvelope:
    return WalkerEnvelope(
        instance=InstanceState(
            instance_id=instance_id,
            frontier_pool=np.array([vertex], dtype=np.int64),
        )
    )


def walker_batch(pairs) -> WalkerBatch:
    """Unstepped walk-kernel walkers, one ``(instance id, vertex)`` row each."""
    ids, vertices = (np.asarray(column, dtype=np.int64) for column in zip(*pairs))
    return WalkerBatch.seeded(
        InstanceBatch(ids, np.arange(ids.size + 1, dtype=np.int64), vertices)
    )


class TestRouter:
    def test_routing_vertex_is_first_pool_vertex(self):
        inst = InstanceState(instance_id=0, frontier_pool=np.array([5, 2, 9]))
        assert routing_vertex(inst) == 5

    def test_bucket_by_shard_vectorised(self):
        bounds = np.array([0, 10, 20, 30], dtype=np.int64)
        envelopes = [envelope(i, v) for i, v in enumerate([3, 15, 25, 9, 29])]
        buckets = bucket_by_shard(envelopes, bounds)
        assert sorted(buckets) == [0, 1, 2]
        assert [env.instance_id for env in buckets[0]] == [0, 3]
        assert [env.instance_id for env in buckets[1]] == [1]
        assert [env.instance_id for env in buckets[2]] == [2, 4]

    def test_bucket_empty(self):
        assert bucket_by_shard([], np.array([0, 10])) == {}

    def test_exchange_merges_in_source_order(self):
        router = MigrationRouter(3)
        outboxes = [
            {1: [envelope(0, 12)]},
            {},
            {1: [envelope(1, 14)], 0: [envelope(2, 3)]},
        ]
        inboxes = router.exchange(outboxes)
        assert [env.instance_id for env in inboxes[1]] == [0, 1]
        assert [env.instance_id for env in inboxes[0]] == [2]
        assert router.migrations == 3

    def test_exchange_rejects_self_routing(self):
        router = MigrationRouter(2)
        with pytest.raises(ValueError, match="itself"):
            router.exchange([{0: [envelope(0, 1)]}, {}])

    def test_exchange_rejects_unknown_destination(self):
        router = MigrationRouter(2)
        with pytest.raises(ValueError, match="unknown shard"):
            router.exchange([{7: [envelope(0, 1)]}, {}])

    def test_exchange_requires_one_outbox_per_shard(self):
        with pytest.raises(ValueError, match="one outbox per shard"):
            MigrationRouter(2).exchange([{}])

    def test_exchange_merges_column_batches_in_source_order(self):
        router = MigrationRouter(3)
        outboxes = [
            {1: walker_batch([(0, 12), (4, 13)])},
            {},
            {1: walker_batch([(1, 14)]), 0: walker_batch([(2, 3)])},
        ]
        inboxes = router.exchange(outboxes)
        assert all(isinstance(b, WalkerBatch) for b in inboxes.values())
        assert inboxes[1].ids.tolist() == [0, 4, 1]
        assert inboxes[1].heads().tolist() == [12, 13, 14]
        assert inboxes[0].ids.tolist() == [2]
        # Migrations count walkers, not batches.
        assert router.migrations == 4

    def test_exchange_skips_empty_column_batches(self):
        router = MigrationRouter(2)
        assert router.exchange([{1: WalkerBatch.empty()}, {}]) == {}
        assert router.migrations == 0

    def test_exchange_rejects_column_self_routing(self):
        router = MigrationRouter(2)
        with pytest.raises(ValueError, match="itself"):
            router.exchange([{0: walker_batch([(0, 1)])}, {}])

    def test_exchange_rejects_column_unknown_destination(self):
        router = MigrationRouter(2)
        with pytest.raises(ValueError, match="unknown shard"):
            router.exchange([{7: walker_batch([(0, 1)])}, {}])

    def test_column_batch_keeps_pools_and_trace_context(self):
        batch = WalkerBatch.seeded(
            make_instances([[5, 2, 9], [7], [1, 3]]), trace_ctx=("t", "s")
        )
        taken = batch.take(np.array([2, 0]))
        assert taken.ids.tolist() == [2, 0]
        assert taken.counts.tolist() == [2, 3]
        assert taken.pool.tolist() == [1, 3, 5, 2, 9]
        assert taken.heads().tolist() == [1, 5]
        assert taken.trace_ctx == ("t", "s")
        merged = WalkerBatch.empty() + taken
        assert len(merged) == 2 and merged.trace_ctx == ("t", "s")


class TestShardRuntime:
    """Walk-kernel shards: residents are columns, arrivals column batches."""

    ALGORITHM = "deepwalk"

    @staticmethod
    def arrivals(pairs):
        return walker_batch(pairs)

    @staticmethod
    def heads(walkers):
        return walkers.heads().tolist()

    @pytest.fixture(scope="class")
    def graph(self):
        return powerlaw_graph(40, 6.0, seed=3)

    def shard(self, graph, index, bounds):
        return ShardRuntime(index, graph, bounds, self.ALGORITHM, {},
                            default_config(self.ALGORITHM))

    def test_owned_range_and_admit(self, graph):
        bounds = partition_bounds(graph, 2)
        shard = self.shard(graph, 0, bounds)
        assert shard.lo == 0 and shard.hi == int(bounds[1])
        shard.admit(self.arrivals([(0, 1), (1, 2)]))
        assert shard.resident_count() == 2
        assert shard.active_count() == 2

    def test_double_admit_rejected(self, graph):
        bounds = partition_bounds(graph, 2)
        shard = self.shard(graph, 0, bounds)
        shard.admit(self.arrivals([(0, 1)]))
        with pytest.raises(ValueError, match="already resident"):
            shard.admit(self.arrivals([(0, 1)]))

    def test_step_emigrates_walkers_leaving_the_range(self, graph):
        bounds = partition_bounds(graph, 4)
        shard = self.shard(graph, 0, bounds)
        shard.admit(self.arrivals(list(enumerate(range(0, int(bounds[1]))))))
        outboxes = shard.step(0)
        for dst, walkers in outboxes.items():
            assert dst != 0
            for vertex in self.heads(walkers):
                assert bounds[dst] <= vertex < bounds[dst + 1]
        # Every walker is either still resident or in an outbox.
        shipped = sum(len(v) for v in outboxes.values())
        assert shard.resident_count() + shipped == int(bounds[1])
        assert shard.emigrated == shipped

    def test_invalid_shard_index(self, graph):
        bounds = partition_bounds(graph, 2)
        with pytest.raises(ValueError, match="outside the partitioning|outside"):
            self.shard(graph, 5, bounds)

    def test_kernels_record_one_launch_per_active_step(self, graph):
        bounds = partition_bounds(graph, 1)
        shard = self.shard(graph, 0, bounds)
        shard.admit(self.arrivals([(0, 1)]))
        for depth in range(default_config(self.ALGORITHM).depth):
            shard.step(depth)
        assert len(shard.kernels) == shard.steps
        assert all(k.cost.sampled_edges >= 0 for k in shard.kernels)

    def test_resolves_its_step_once(self, graph, resolve_calls):
        """One step decision per shard: its shared engine, the walk kernel
        and every private engine it builds bind that one kind."""
        shard = self.shard(graph, 0, partition_bounds(graph, 1))
        shard.admit(self.arrivals([(0, 1), (1, 2), (2, 3)]))
        shard.step(0)
        assert len(resolve_calls) == 1

    def test_rejects_the_other_resident_form(self, graph):
        shard = self.shard(graph, 0, partition_bounds(graph, 2))
        other = (
            [envelope(0, 1)] if self.ALGORITHM == "deepwalk"
            else walker_batch([(0, 1)])
        )
        with pytest.raises(TypeError):
            shard.admit(other)


class TestEnvelopeShardRuntime(TestShardRuntime):
    """The same contract on envelope shards (a stateful program)."""

    ALGORITHM = "random_walk_with_jump"

    @staticmethod
    def arrivals(pairs):
        return [envelope(i, v) for i, v in pairs]

    @staticmethod
    def heads(walkers):
        return [routing_vertex(env.instance) for env in walkers]


class TestCoordinator:
    @pytest.fixture(scope="class")
    def graph(self):
        return powerlaw_graph(60, 6.0, seed=11)

    def test_invalid_arguments(self, graph):
        with pytest.raises(ValueError, match="transport"):
            ShardedSamplingCluster(graph, "deepwalk", transport="carrier-pigeon")
        with pytest.raises(ValueError, match="num_shards"):
            ShardedSamplingCluster(graph, "deepwalk", num_shards=0)

    def test_shard_count_collapses_on_tiny_graphs(self):
        graph = ring_graph(3)
        cluster = ShardedSamplingCluster(graph, "deepwalk", num_shards=8)
        assert cluster.num_shards == 3

    def test_early_termination_stops_epochs(self):
        # A star graph's leaves dead-end immediately under NEXT_LAYER when
        # the centre is never revisited; walks die well before full depth.
        from repro.graph.generators import star_graph

        graph = star_graph(8)  # directed leaves
        cluster = ShardedSamplingCluster(
            graph, "unbiased_neighbor_sampling", num_shards=2
        )
        result = cluster.run(list(range(8)))
        config = default_config("unbiased_neighbor_sampling")
        assert result.epochs <= config.depth

    def test_result_reassembly_order_and_metadata(self, graph):
        cluster = ShardedSamplingCluster(graph, "deepwalk", num_shards=4)
        seeds = [5, 1, 9, 3]
        result = cluster.run(seeds)
        assert [s.instance_id for s in result.result.samples] == [0, 1, 2, 3]
        for sample, seed in zip(result.result.samples, seeds):
            assert list(sample.seeds) == [seed]
        assert result.result.metadata["sharded"] is True
        assert result.result.cost.kernel_launches == result.epochs

    def test_seed_validation(self, graph):
        cluster = ShardedSamplingCluster(graph, "deepwalk", num_shards=2)
        with pytest.raises(ValueError):
            cluster.run([graph.num_vertices + 5])

    def test_num_instances_round_robin(self, graph):
        cluster = ShardedSamplingCluster(graph, "deepwalk", num_shards=2)
        result = cluster.run([1, 2], num_instances=6)
        assert result.result.num_instances == 6

    def test_makespan_and_seps(self, graph):
        result = ShardedSamplingCluster(graph, "deepwalk", num_shards=2).run(
            list(range(8))
        )
        busy = result.shard_busy_times()
        assert len(busy) == 2
        assert result.makespan() == max(busy)
        assert result.seps() > 0

    def test_edge_balanced_partitioning(self, graph):
        cluster = ShardedSamplingCluster(
            graph, "deepwalk", num_shards=4, balance="edges"
        )
        reference = ShardedSamplingCluster(graph, "deepwalk", num_shards=1)
        seeds = list(range(10))
        sharded = cluster.run(seeds)
        solo = reference.run(seeds)
        assert all(
            np.array_equal(a.edges, b.edges)
            for a, b in zip(sharded.result.samples, solo.result.samples)
        )


class TestMultiprocessTransport:
    def test_shard_error_propagates(self):
        graph = powerlaw_graph(30, 5.0, seed=2)
        cluster = ShardedSamplingCluster(
            graph, "deepwalk", num_shards=2, transport="multiprocess",
            mp_context="fork",
        )
        # Sabotage after construction: an unknown algorithm only explodes
        # inside the shard process, at runtime construction.
        cluster.algorithm = "definitely-not-an-algorithm"
        with pytest.raises(ClusterTransportError):
            cluster.run([1, 2])

    def test_no_shared_memory_leak(self):
        prefix = "shardleak"
        store = SharedGraphStore(prefix=prefix)
        graph = powerlaw_graph(30, 5.0, seed=2)
        cluster = ShardedSamplingCluster(
            graph, "deepwalk", num_shards=2, transport="multiprocess",
            mp_context="fork", store=store, graph_name="g",
        )
        result = cluster.run([1, 2, 3])
        assert result.result.total_sampled_edges > 0
        store.close()
        assert leaked_segments(prefix) == []

    def test_reuses_already_published_graph(self):
        store = SharedGraphStore()
        graph = powerlaw_graph(30, 5.0, seed=2)
        store.put("g", graph)
        cluster = ShardedSamplingCluster(
            graph, "deepwalk", num_shards=2, transport="multiprocess",
            mp_context="fork", store=store, graph_name="g",
        )
        cluster.run([1, 2])
        # The cluster must not release a graph it did not publish.
        assert "g" in store.names()
        store.close()

    def test_rejects_mismatched_stored_graph(self):
        """A name collision must not serve shards a different graph."""
        store = SharedGraphStore()
        store.put("g", powerlaw_graph(30, 5.0, seed=2))
        other = powerlaw_graph(60, 5.0, seed=9)
        cluster = ShardedSamplingCluster(
            other, "deepwalk", num_shards=2, transport="multiprocess",
            mp_context="fork", store=store, graph_name="g",
        )
        with pytest.raises(ValueError, match="does not match"):
            cluster.run([1, 2])
        store.close()


class TestStreamSemantics:
    """The contract behind shard-count invariance (whose cells live in the
    bit-compat matrix): every walker replays a standalone stream."""

    SEEDS = list(range(0, 72, 6))

    @pytest.fixture(scope="class")
    def graph(self):
        return powerlaw_graph(80, 6.0, seed=7)

    @pytest.mark.parametrize(
        "algorithm", ["deepwalk", "biased_neighbor_sampling", "forest_fire_sampling"]
    )
    def test_walker_equals_standalone_single_instance_run(self, graph, algorithm):
        info = get_algorithm(algorithm)
        config = info.config_factory()
        coalescable = info.program_factory().supports_coalescing
        sharded = ShardedSamplingCluster(graph, algorithm, num_shards=4).run(
            self.SEEDS
        )
        for rank, seed in enumerate(self.SEEDS):
            inst = InstanceState(
                instance_id=rank, frontier_pool=np.array([seed], dtype=np.int64)
            )
            if coalescable:
                program = info.program_factory()
            else:
                # Stateful programs: the cluster seeds one replica per
                # walker so their private hook streams are independent.
                program = info.program_factory(seed=walker_program_seed(0, rank))
            sampler = GraphSampler(graph, program, config)
            iteration_counts = []
            for depth in range(config.depth):
                stepped = sampler.engine.step_instances(
                    [inst], depth, CostModel(), iteration_counts
                )
                if stepped is None:
                    break
            assert np.array_equal(
                inst.sampled_edges(), sharded.result.samples[rank].edges
            )

    def test_stateful_walkers_have_independent_hook_streams(self, graph):
        """Per-walker program replicas must not replay one shared stream.

        With a common replica seed, every jump walker would teleport to the
        same vertex at the same step ordinal; jump_probability=1 makes the
        walk *be* the teleport sequence, so correlated streams show up as
        identical walks from a shared start vertex.
        """
        result = ShardedSamplingCluster(
            graph,
            "random_walk_with_jump",
            num_shards=2,
            program_kwargs={"jump_probability": 1.0},
        ).run([1] * 6)
        walks = [tuple(s.edges[:, 1]) for s in result.result.samples]
        assert len(set(walks)) > 1

    def test_cost_totals_are_sums_of_shard_costs(self, graph):
        result = ShardedSamplingCluster(graph, "deepwalk", num_shards=4).run(
            self.SEEDS
        )
        summed = CostModel()
        for shard_cost in result.shard_costs:
            summed.merge(shard_cost)
        summed.kernel_launches = result.epochs
        assert summed.as_dict() == result.result.cost.as_dict()
