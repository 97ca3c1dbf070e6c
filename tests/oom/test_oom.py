"""Tests for out-of-memory scheduling, batching, balancing and multi-GPU division."""

from unittest import mock

import numpy as np
import pytest

from repro.algorithms import (
    BiasedNeighborSampling,
    MultiDimensionalRandomWalk,
    SimpleRandomWalk,
    UnbiasedNeighborSampling,
)
from repro.api.config import SamplingConfig
from repro.api.sampler import sample_graph
from repro.gpusim.costmodel import CostModel
from repro.gpusim.device import Device, V100_SPEC
from repro.gpusim.memory import TransferEngine
from repro.graph.partition import partition_graph
from repro.oom.balancing import block_fractions
from repro.oom.batching import group_entries_by_instance, single_batch
from repro.oom.multigpu import run_multi_gpu_sampling, run_multi_gpu_walks
from repro.oom.scheduler import OutOfMemoryConfig, OutOfMemorySampler
from repro.oom.transfer import PartitionResidency
from repro.planner.errors import SeedValidationError
from repro.planner.executor import Executor
from repro.planner.plan import PartitionLayout


class TestPartitionResidency:
    def make(self, graph, max_resident=2):
        parts = partition_graph(graph, 4)
        return parts, PartitionResidency(parts, max_resident, TransferEngine(1e9))

    def test_transfer_once_until_evicted(self, small_powerlaw_graph):
        _, residency = self.make(small_powerlaw_graph)
        cost = CostModel()
        first = residency.ensure_resident(0, cost)
        again = residency.ensure_resident(0, cost)
        assert first > 0 and again == 0.0
        assert residency.transfer_count == 1
        assert cost.partition_transfers == 1

    def test_lru_eviction(self, small_powerlaw_graph):
        _, residency = self.make(small_powerlaw_graph, max_resident=2)
        residency.ensure_resident(0)
        residency.ensure_resident(1)
        residency.ensure_resident(2)  # evicts 0
        assert not residency.is_resident(0)
        assert residency.is_resident(1) and residency.is_resident(2)
        # Re-loading 0 counts as a new transfer.
        residency.ensure_resident(0)
        assert residency.transfer_count == 4

    def test_protected_partitions_not_evicted(self, small_powerlaw_graph):
        _, residency = self.make(small_powerlaw_graph, max_resident=2)
        residency.ensure_resident(0)
        residency.ensure_resident(1)
        residency.ensure_resident(2, protect={1})
        assert residency.is_resident(1)
        assert not residency.is_resident(0)

    def test_all_protected_raises(self, small_powerlaw_graph):
        _, residency = self.make(small_powerlaw_graph, max_resident=1)
        residency.ensure_resident(0)
        with pytest.raises(RuntimeError):
            residency.ensure_resident(1, protect={0, 1})

    def test_release(self, small_powerlaw_graph):
        _, residency = self.make(small_powerlaw_graph)
        residency.ensure_resident(3)
        residency.release(3)
        assert not residency.is_resident(3)

    def test_out_of_range(self, small_powerlaw_graph):
        _, residency = self.make(small_powerlaw_graph)
        with pytest.raises(IndexError):
            residency.ensure_resident(9)


class TestBatchingHelpers:
    def test_group_by_instance(self):
        vertices = np.array([1, 2, 3, 4])
        instances = np.array([0, 1, 0, 1])
        depths = np.array([0, 0, 1, 1])
        groups = group_entries_by_instance(vertices, instances, depths)
        assert len(groups) == 2
        assert list(groups[0][0]) == [1, 3]
        assert list(groups[1][0]) == [2, 4]

    def test_single_batch(self):
        groups = single_batch(np.array([1, 2]), np.array([0, 1]), np.array([0, 0]))
        assert len(groups) == 1
        assert groups[0][0].size == 2
        assert single_batch(np.array([]), np.array([]), np.array([])) == []

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            group_entries_by_instance(np.array([1]), np.array([1, 2]), np.array([1]))


class TestBlockFractions:
    def test_unbalanced_equal_shares(self):
        fractions = block_fractions([10, 1, 1], balanced=False)
        assert np.allclose(fractions, 1 / 3)

    def test_balanced_proportional(self):
        fractions = block_fractions([30, 10], balanced=True)
        assert fractions[0] == pytest.approx(0.75)
        assert fractions.sum() == pytest.approx(1.0)

    def test_floor_protects_tiny_workloads(self):
        fractions = block_fractions([1000, 1], balanced=True, floor=0.1)
        assert fractions[1] >= 0.09

    def test_validation(self):
        with pytest.raises(ValueError):
            block_fractions([], balanced=True)
        with pytest.raises(ValueError):
            block_fractions([-1, 2], balanced=True)


class TestOutOfMemorySampler:
    def run_config(self, graph, oom_config, instances=40, depth=2):
        program = UnbiasedNeighborSampling()
        config = program.default_config(depth=depth, neighbor_size=2, seed=3)
        sampler = OutOfMemorySampler(graph, program, config, oom_config,
                                     device=Device(V100_SPEC.scaled(concurrent_warps=128)))
        return sampler.run(list(range(instances)))

    def test_produces_valid_samples(self, small_powerlaw_graph):
        result = self.run_config(small_powerlaw_graph, OutOfMemoryConfig.batched_only())
        assert result.total_sampled_edges > 0
        for sample in result.sample.samples:
            for src, dst in sample.edges:
                assert small_powerlaw_graph.has_edge(int(src), int(dst))
        assert result.makespan > 0
        assert result.partition_transfers >= 1
        assert result.rounds >= 1

    def test_engine_run_is_deterministic(self, small_powerlaw_graph):
        """Two fresh samplers of one configuration are bit-identical."""
        a, b = (self.run_config(small_powerlaw_graph,
                                OutOfMemoryConfig.batched_only())
                for _ in range(2))
        assert np.array_equal(a.sample.samples.edges, b.sample.samples.edges)
        assert np.array_equal(a.sample.samples.edge_offsets,
                              b.sample.samples.edge_offsets)
        assert a.sample.iteration_counts == b.sample.iteration_counts
        assert a.cost.as_dict() == b.cost.as_dict()
        assert a.makespan == b.makespan

    def test_matches_in_memory_edge_volume(self, small_powerlaw_graph):
        """Out-of-memory scheduling changes the order, not the amount, of sampling."""
        program = UnbiasedNeighborSampling()
        config = program.default_config(depth=2, neighbor_size=2, seed=3)
        in_memory = sample_graph(small_powerlaw_graph, program, seeds=list(range(40)),
                                 config=config)
        oom = self.run_config(small_powerlaw_graph, OutOfMemoryConfig.fully_optimized())
        ratio = oom.total_sampled_edges / max(in_memory.total_sampled_edges, 1)
        assert 0.6 < ratio < 1.4

    def test_all_optimisation_configs_run(self, small_powerlaw_graph):
        makespans = {}
        for name, factory in [
            ("baseline", OutOfMemoryConfig.baseline),
            ("BA", OutOfMemoryConfig.batched_only),
            ("BA+WS", OutOfMemoryConfig.batched_scheduled),
            ("BA+WS+BAL", OutOfMemoryConfig.fully_optimized),
        ]:
            result = self.run_config(small_powerlaw_graph, factory())
            makespans[name] = result.makespan
        assert makespans["BA"] < makespans["baseline"]
        assert makespans["BA+WS"] <= makespans["BA"] * 1.05

    def test_workload_aware_never_more_transfers(self, small_powerlaw_graph):
        ba = self.run_config(small_powerlaw_graph, OutOfMemoryConfig.batched_only(), depth=3)
        ws = self.run_config(small_powerlaw_graph, OutOfMemoryConfig.batched_scheduled(), depth=3)
        assert ws.partition_transfers <= ba.partition_transfers

    def test_random_walk_program_supported(self, small_powerlaw_graph):
        program = SimpleRandomWalk()
        config = program.default_config(depth=4, seed=1)
        sampler = OutOfMemorySampler(small_powerlaw_graph, program, config,
                                     OutOfMemoryConfig.fully_optimized())
        result = sampler.run(list(range(20)))
        assert result.total_sampled_edges > 0
        # A walk samples at most `depth` edges per instance.
        assert result.total_sampled_edges <= 20 * 4

    def test_invalid_seeds(self, small_powerlaw_graph):
        program = BiasedNeighborSampling()
        config = program.default_config(seed=0)
        sampler = OutOfMemorySampler(small_powerlaw_graph, program, config)
        with pytest.raises(ValueError):
            sampler.run([10**6])

    def test_invalid_oom_config(self):
        with pytest.raises(ValueError):
            OutOfMemoryConfig(num_partitions=0)
        with pytest.raises(ValueError):
            OutOfMemoryConfig(num_kernels=0)

    def test_metrics_accessible(self, small_powerlaw_graph):
        result = self.run_config(small_powerlaw_graph, OutOfMemoryConfig.fully_optimized())
        assert result.seps() > 0
        assert result.kernel_time_std() >= 0.0
        assert result.stream_imbalance() >= 0.0
        assert len(result.stream_busy_times) == 2


class TestMultiGPU:
    def test_walks_split_across_gpus(self, small_powerlaw_graph):
        single = run_multi_gpu_walks(small_powerlaw_graph, np.arange(50), num_walkers=200,
                                     walk_length=10, num_gpus=1, seed=2)
        multi = run_multi_gpu_walks(small_powerlaw_graph, np.arange(50), num_walkers=200,
                                    walk_length=10, num_gpus=4, seed=2)
        assert multi.num_gpus == 4
        # Same total amount of work gets done.
        assert abs(multi.total_sampled_edges - single.total_sampled_edges) < 0.2 * single.total_sampled_edges
        assert multi.makespan() <= single.makespan() * 1.05
        assert multi.speedup_over(single) >= 0.95

    def test_sampling_split_across_gpus(self, small_powerlaw_graph):
        program = BiasedNeighborSampling()
        config = program.default_config(depth=2, neighbor_size=2, seed=0)
        result = run_multi_gpu_sampling(small_powerlaw_graph, program, config,
                                        np.arange(64), num_instances=128, num_gpus=2)
        assert result.num_gpus == 2
        assert result.total_sampled_edges > 0
        assert result.seps() > 0

    def test_invalid_arguments(self, small_powerlaw_graph):
        program = BiasedNeighborSampling()
        config = program.default_config()
        with pytest.raises(ValueError):
            run_multi_gpu_sampling(small_powerlaw_graph, program, config, [0],
                                   num_instances=10, num_gpus=0)
        with pytest.raises(ValueError):
            run_multi_gpu_walks(small_powerlaw_graph, [], num_walkers=10,
                                walk_length=5, num_gpus=2)

    def test_fewer_instances_than_gpus_skips_idle_devices(self, small_powerlaw_graph):
        """Surplus GPUs get no (degenerate) empty runs and counts stay honest."""
        program = BiasedNeighborSampling()
        config = program.default_config(depth=2, neighbor_size=2, seed=0)
        result = run_multi_gpu_sampling(small_powerlaw_graph, program, config,
                                        [0, 1], num_instances=2, num_gpus=4)
        assert result.num_gpus == 2
        assert result.requested_gpus == 4
        assert result.instances_per_gpu() == [1, 1]
        assert [d.device_id for d in result.devices] == [0, 1]
        assert all(r.num_instances == 1 for r in result.per_gpu)
        assert result.seps() >= 0

    def test_fewer_walkers_than_gpus(self, small_powerlaw_graph):
        result = run_multi_gpu_walks(small_powerlaw_graph, [3], num_walkers=2,
                                     walk_length=4, num_gpus=5, seed=1)
        assert result.num_gpus == 2
        assert result.requested_gpus == 5
        assert result.instances_per_gpu() == [1, 1]
        assert result.total_sampled_edges > 0

    def test_nested_pools_keep_their_pools(self, small_powerlaw_graph):
        """Each instance keeps its whole pool (once flattened to ``[0]`` and
        ``[1]``)."""
        program = MultiDimensionalRandomWalk()
        config = program.default_config(depth=3, seed=0)
        result = run_multi_gpu_sampling(small_powerlaw_graph, program, config,
                                        [[0, 1, 2], [3, 4, 5]],
                                        num_instances=2, num_gpus=2)
        assert [[s.seeds.tolist() for s in r.samples] for r in result.per_gpu] \
            == [[[0, 1, 2]], [[3, 4, 5]]]

    def test_ragged_pools_run(self, small_powerlaw_graph):
        program = MultiDimensionalRandomWalk()
        config = program.default_config(depth=3, seed=0)
        result = run_multi_gpu_sampling(small_powerlaw_graph, program, config,
                                        [[0, 1], [2, 3, 4], [5]],
                                        num_instances=4, num_gpus=2)
        assert [[s.seeds.tolist() for s in r.samples] for r in result.per_gpu] \
            == [[[0, 1], [2, 3, 4]], [[5], [0, 1]]]
        assert result.total_sampled_edges > 0

    def test_out_of_range_seeds_raise_seed_validation_error(self, small_powerlaw_graph):
        program = BiasedNeighborSampling()
        config = program.default_config()
        with pytest.raises(SeedValidationError, match="outside the graph"):
            run_multi_gpu_sampling(small_powerlaw_graph, program, config,
                                   [0, small_powerlaw_graph.num_vertices],
                                   num_instances=4, num_gpus=2)

    def test_explain_names_the_device_layout(self, small_powerlaw_graph):
        """One in-memory plan, its layout the device groups, runs through
        the Executor."""
        plans, execute = [], Executor.execute

        def spy(self, *args, **kwargs):
            plans.append(self.plan)
            return execute(self, *args, **kwargs)

        program = BiasedNeighborSampling()
        config = program.default_config(depth=2, neighbor_size=2, seed=0)
        with mock.patch.object(Executor, "execute", spy):
            run_multi_gpu_sampling(small_powerlaw_graph, program, config,
                                   np.arange(8), num_instances=8, num_gpus=3)
        [ran] = plans
        assert ran.route == "in_memory"
        assert ran.layout == PartitionLayout(kind="device_groups", num_partitions=3)
        assert "layout: 3 device groups" in ran.explain()
        assert "group g runs at seed + g" in ran.explain()
