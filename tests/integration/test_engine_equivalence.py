"""Scalar-loop vs batched-engine equivalence (the engine's acceptance bar).

The batched execution engine must be a pure performance transformation: for a
fixed seed it has to produce *bit-identical* results to the
instance-by-instance scalar loop (the ``ScalarMainLoop`` oracle in
``repro.baselines.reference``, driven through the same ``Executor``) -- the
same sampled edges in the same order, the same per-selection iteration
counts, the same cost-model totals and the same per-kernel statistics.  These tests assert that for every registered
algorithm, for both samplers (in-memory and out-of-memory), across collision
strategies, detectors and frontier-selection configurations.
"""

import numpy as np
import pytest

from repro.algorithms.registry import ALGORITHM_REGISTRY
from repro.api.sampler import GraphSampler
from repro.graph.generators import powerlaw_graph
from repro.oom.scheduler import OutOfMemoryConfig, OutOfMemorySampler

from bitcompat import assert_equivalent as _assert_equivalent, oracle_run


@pytest.fixture(scope="module")
def graph():
    return powerlaw_graph(300, 6.0, exponent=2.2, seed=3)


@pytest.fixture(scope="module")
def weighted_graph(graph):
    rng = np.random.default_rng(7)
    return graph.with_weights(rng.uniform(0.1, 2.0, size=graph.num_edges))


SEEDS = list(range(0, 300, 11))


def assert_equivalent(scalar, engine):
    """Bitwise comparison incl. per-kernel records (shared scaffolding)."""
    _assert_equivalent(scalar, engine, kernels=True)


def run_both(graph, info, config, seeds, **run_kwargs):
    scalar = oracle_run(graph, info.program_factory(), config, seeds, **run_kwargs)
    engine = GraphSampler(
        graph, info.program_factory(), config
    ).run(seeds, **run_kwargs)
    return scalar, engine


class TestInMemoryEquivalence:
    @pytest.mark.parametrize("name", sorted(ALGORITHM_REGISTRY))
    def test_every_registered_algorithm(self, graph, name):
        info = ALGORITHM_REGISTRY[name]
        scalar, engine = run_both(
            graph, info, info.config_factory(seed=11), SEEDS, num_instances=30
        )
        assert_equivalent(scalar, engine)

    @pytest.mark.parametrize("name", sorted(ALGORITHM_REGISTRY))
    def test_every_registered_algorithm_weighted(self, weighted_graph, name):
        info = ALGORITHM_REGISTRY[name]
        scalar, engine = run_both(
            weighted_graph, info, info.config_factory(seed=5), SEEDS, num_instances=20
        )
        assert_equivalent(scalar, engine)

    @pytest.mark.parametrize("strategy", ["bipartite", "repeated", "updated"])
    @pytest.mark.parametrize("detector", ["strided_bitmap", "bitmap", "linear"])
    def test_collision_strategy_matrix(self, graph, strategy, detector):
        info = ALGORITHM_REGISTRY["unbiased_neighbor_sampling"]
        config = info.config_factory(seed=3, neighbor_size=3, depth=3).replace(
            strategy=strategy, detector=detector
        )
        scalar, engine = run_both(graph, info, config, SEEDS, num_instances=20)
        assert_equivalent(scalar, engine)

    @pytest.mark.parametrize(
        "name", ["multidimensional_random_walk", "unbiased_neighbor_sampling",
                 "node2vec", "layer_sampling"]
    )
    def test_frontier_selection_interleaving(self, graph, name):
        """Multi-seed pools force line-4 SELECT warps between per-vertex warps."""
        info = ALGORITHM_REGISTRY[name]
        # choice(replace=False): duplicate seeds inside one instance's pool
        # are rejected by the planner's plan-time seed validation.
        nested = [
            [int(v) for v in np.random.default_rng(i).choice(300, 5, replace=False)]
            for i in range(10)
        ]
        config = info.config_factory(seed=7).replace(frontier_size=2)
        scalar, engine = run_both(graph, info, config, nested)
        assert_equivalent(scalar, engine)

    def test_device_cost_accumulation_matches(self, graph):
        info = ALGORITHM_REGISTRY["simple_random_walk"]
        config = info.config_factory(seed=1)
        # The in-memory result's cost is a copy of the executing device's.
        scalar = oracle_run(
            graph, info.program_factory(), config, SEEDS, num_instances=10
        )
        sampler = GraphSampler(graph, info.program_factory(), config)
        sampler.run(SEEDS, num_instances=10)
        assert scalar.cost.as_dict() == sampler.device.cost.as_dict()


class TestOutOfMemoryEquivalence:
    @pytest.mark.parametrize("name", sorted(ALGORITHM_REGISTRY))
    @pytest.mark.parametrize(
        "oom_config",
        [OutOfMemoryConfig.baseline(), OutOfMemoryConfig.batched_only(),
         OutOfMemoryConfig.fully_optimized()],
        ids=["baseline", "BA", "BA+WS+BAL"],
    )
    def test_oom_paths(self, graph, name, oom_config):
        info = ALGORITHM_REGISTRY[name]
        config = info.config_factory(seed=9)
        scalar = oracle_run(
            graph, info.program_factory(), config, SEEDS, num_instances=15,
            oom_config=oom_config,
        )
        engine = OutOfMemorySampler(
            graph, info.program_factory(), config, oom_config
        ).run(SEEDS, num_instances=15)
        assert_equivalent(scalar.sample, engine.sample)
        assert scalar.rounds == engine.rounds
        assert scalar.partition_transfers == engine.partition_transfers
        assert scalar.makespan == pytest.approx(engine.makespan)

    def test_oom_engine_run_is_deterministic(self, graph):
        """Two engine runs of the same configuration are bit-identical."""
        info = ALGORITHM_REGISTRY["simple_random_walk"]
        config = info.config_factory(seed=2, depth=4)
        runs = [
            OutOfMemorySampler(
                graph, info.program_factory(), config,
                OutOfMemoryConfig.batched_only(),
            ).run(SEEDS, num_instances=10)
            for _ in range(2)
        ]
        assert_equivalent(runs[0].sample, runs[1].sample)
        assert runs[0].makespan == runs[1].makespan


class TestEngineContracts:
    @pytest.mark.parametrize("stepper", ["oracle", "engine"])
    def test_prev_vertex_only_set_for_single_vertex_frontiers(self, graph, stepper):
        """Multi-vertex frontiers must not clobber prev_vertex (the node2vec bug)."""
        from repro.api.instance import make_instances
        from repro.baselines.reference import ScalarMainLoop
        from repro.gpusim.costmodel import CostModel

        info = ALGORITHM_REGISTRY["unbiased_neighbor_sampling"]
        program, config = info.program_factory(), info.config_factory(seed=1, depth=2)
        if stepper == "engine":
            engine = GraphSampler(graph, program, config).engine
        else:
            engine = ScalarMainLoop(graph, program, config)
        insts = make_instances([[1, 2, 3]])
        engine.step_instances(insts, 0, CostModel(), [])
        assert insts[0].prev_vertex == -1  # three-vertex frontier: untouched

    def test_walk_prev_vertex_still_tracked(self, graph):
        """Single-vertex (walk) frontiers keep feeding node2vec's dynamic bias."""
        from repro.api.instance import make_instances
        from repro.gpusim.costmodel import CostModel

        info = ALGORITHM_REGISTRY["simple_random_walk"]
        sampler = GraphSampler(
            graph, info.program_factory(), info.config_factory(seed=1),
        )
        insts = make_instances([5])
        sampler.engine.step_instances(insts, 0, CostModel(), [])
        assert insts[0].prev_vertex == 5

    def test_push_batch_matches_push_many(self):
        from repro.api.frontier import FrontierQueue

        q1, q2 = FrontierQueue(), FrontierQueue()
        q1.push_many(np.array([4, 5, 6]), instance=2, depth=3)
        q2.push_batch(np.array([4, 5, 6]), np.array([2, 2, 2]), np.array([3, 3, 3]))
        assert list(q1) == list(q2)
        # Scalar broadcast form.
        q3 = FrontierQueue()
        q3.push_batch(np.array([4, 5, 6]), 2, 3)
        assert list(q1) == list(q3)
