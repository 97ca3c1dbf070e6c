"""Tests for SamplingConfig, FrontierQueue and InstanceState."""

import numpy as np
import pytest

from repro.api.config import PoolPolicy, SamplingConfig, SelectionScope
from repro.api.frontier import FrontierEntry, FrontierQueue
from repro.api.instance import InstanceState, make_instances
from repro.selection.collision import CollisionStrategy


class TestSamplingConfig:
    def test_defaults(self):
        cfg = SamplingConfig()
        assert cfg.neighbor_size == 1
        assert cfg.strategy is CollisionStrategy.BIPARTITE
        assert cfg.scope is SelectionScope.PER_VERTEX

    def test_string_coercion(self):
        cfg = SamplingConfig(scope="per_layer", pool_policy="replace_selected",
                             strategy="repeated")
        assert cfg.scope is SelectionScope.PER_LAYER
        assert cfg.pool_policy is PoolPolicy.REPLACE_SELECTED
        assert cfg.strategy is CollisionStrategy.REPEATED

    def test_replace_creates_modified_copy(self):
        cfg = SamplingConfig(depth=2)
        other = cfg.replace(depth=5, neighbor_size=3)
        assert other.depth == 5 and other.neighbor_size == 3
        assert cfg.depth == 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"frontier_size": -1},
            {"neighbor_size": 0},
            {"depth": 0},
            {"detector": "wishful_thinking"},
            {"strategy": "nonexistent"},
            {"scope": "everywhere"},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises((ValueError, KeyError)):
            SamplingConfig(**kwargs)


class TestFrontierQueue:
    def test_push_and_pop_all(self):
        q = FrontierQueue()
        q.push(3, 0, 1)
        q.push_many(np.array([4, 5]), instance=1, depth=2)
        assert len(q) == 3
        vertices, instances, depths = q.pop_all()
        assert list(vertices) == [3, 4, 5]
        assert list(instances) == [0, 1, 1]
        assert list(depths) == [1, 2, 2]
        assert len(q) == 0

    def test_drain_partial(self):
        q = FrontierQueue(FrontierEntry(v, 0, 0) for v in range(5))
        vertices, _, _ = q.drain(3)
        assert list(vertices) == [0, 1, 2]
        assert len(q) == 2
        with pytest.raises(ValueError):
            q.drain(-1)

    def test_extend_and_iteration(self):
        a = FrontierQueue([FrontierEntry(1, 0, 0)])
        b = FrontierQueue([FrontierEntry(2, 1, 3)])
        a.extend(b)
        entries = list(a)
        assert entries[-1] == FrontierEntry(2, 1, 3)

    def test_instances_present(self):
        q = FrontierQueue([FrontierEntry(1, 4, 0), FrontierEntry(2, 2, 0), FrontierEntry(3, 4, 0)])
        assert list(q.instances_present()) == [2, 4]

    def test_bool_and_nbytes(self):
        q = FrontierQueue()
        assert not q
        q.push(1, 0, 0)
        assert q and q.nbytes() == 24

    def test_push_batch_matches_push_many(self):
        q1, q2 = FrontierQueue(), FrontierQueue()
        q1.push_many(np.array([4, 5, 6]), instance=2, depth=3)
        q2.push_batch(np.array([4, 5, 6]), np.array([2, 2, 2]), np.array([3, 3, 3]))
        assert list(q1) == list(q2)
        # Scalar broadcast form.
        q3 = FrontierQueue()
        q3.push_batch(np.array([4, 5, 6]), 2, 3)
        assert list(q1) == list(q3)


class TestInstanceState:
    def test_record_edges_and_arrays(self):
        inst = InstanceState(instance_id=0, frontier_pool=np.array([4]))
        inst.record_edges(4, np.array([5, 6]))
        inst.record_edges(5, np.array([7]))
        edges = inst.sampled_edges()
        assert edges.shape == (3, 2)
        assert list(edges[:, 0]) == [4, 4, 5]
        assert inst.num_sampled_edges == 3
        assert 7 in inst.sampled_vertices()

    def test_seeds_preserved_after_pool_changes(self):
        inst = InstanceState(instance_id=1, frontier_pool=np.array([2, 3]))
        inst.set_pool(np.array([9]))
        assert list(inst.seeds) == [2, 3]
        assert list(inst.frontier_pool) == [9]

    def test_visited_tracking(self):
        inst = InstanceState(instance_id=0, frontier_pool=np.array([1]))
        inst.mark_visited(np.array([2, 3]))
        fresh = inst.unvisited(np.array([1, 2, 3, 4]))
        assert list(fresh) == [4]

    def test_empty_sample(self):
        inst = InstanceState(instance_id=0, frontier_pool=np.array([0]))
        assert inst.sampled_edges().shape == (0, 2)


class TestMakeInstances:
    def test_flat_seeds(self):
        instances = make_instances([1, 2, 3])
        assert len(instances) == 3
        assert instances[2].frontier_pool.tolist() == [3]

    def test_round_robin_expansion(self):
        instances = make_instances([1, 2], num_instances=5)
        assert len(instances) == 5
        assert instances[4].frontier_pool.tolist() == [1]

    def test_nested_seeds(self):
        instances = make_instances([[1, 2, 3], [4, 5, 6]])
        assert instances[0].pool_size == 3
        assert instances[1].frontier_pool.tolist() == [4, 5, 6]

    def test_nested_truncation(self):
        instances = make_instances([[1, 2]] * 5, num_instances=2)
        assert len(instances) == 2

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError):
            make_instances([])
