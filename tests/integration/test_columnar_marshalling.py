"""The walk-kernel routes build no per-instance objects -- and stay that way.

A walk-shaped plan goes columns in (``InstanceBatch``), columns out
(``SampleColumns``): boxing every walker into an ``InstanceState`` and
writing its edges back through ``record_edges`` used to cost three quarters
of a 4000-walker ``sample_graph``.  These spies count both on the in-memory,
the coalesced and the out-of-memory walk routes (zero), and on an
engine-route algorithm, which still steps one ``InstanceState`` per instance
(exactly ``n``) on the same routes.
"""

import pytest

from repro.algorithms.registry import ALGORITHM_REGISTRY
from repro.api.instance import InstanceState, make_instances
from repro.api.sampler import sample_graph
from repro.compiled import resolve_step
from repro.engine.hetero import run_coalesced
from repro.graph.generators import powerlaw_graph
from repro.oom.scheduler import OutOfMemoryConfig, OutOfMemorySampler

SEEDS = list(range(0, 150, 15))
WALK_ALGORITHMS = sorted(
    name for name, info in ALGORITHM_REGISTRY.items()
    if resolve_step(
        info.config_factory(), "in_memory", program=info.program_factory()
    ).kernel == "walk"
)


@pytest.fixture(scope="module")
def graph():
    return powerlaw_graph(150, 6.0, exponent=2.2, seed=5)


@pytest.fixture()
def boxed(monkeypatch):
    """Spy: counts of ``InstanceState`` constructions and ``record_edges`` calls."""
    counts = {"states": 0, "record_edges": 0}
    post_init, record = InstanceState.__post_init__, InstanceState.record_edges

    def spy_post_init(self):
        counts["states"] += 1
        post_init(self)

    def spy_record(self, src, dst):
        counts["record_edges"] += 1
        record(self, src, dst)

    monkeypatch.setattr(InstanceState, "__post_init__", spy_post_init)
    monkeypatch.setattr(InstanceState, "record_edges", spy_record)
    return counts


def test_the_walk_algorithms_are_the_expected_ones():
    assert WALK_ALGORITHMS == [
        "biased_random_walk", "deepwalk", "node2vec", "simple_random_walk",
    ]


@pytest.mark.parametrize("algorithm", WALK_ALGORITHMS)
def test_walk_kernel_sample_graph_boxes_nothing(graph, boxed, algorithm):
    info = ALGORITHM_REGISTRY[algorithm]
    result = sample_graph(
        graph, info.program_factory(), SEEDS, info.config_factory(seed=11)
    )
    assert result.total_sampled_edges > 0
    assert boxed == {"states": 0, "record_edges": 0}
    # Reading the samples builds views, still no instance state.
    assert [s.instance_id for s in result.samples] == list(range(len(SEEDS)))
    assert boxed == {"states": 0, "record_edges": 0}


@pytest.mark.parametrize("algorithm", WALK_ALGORITHMS)
def test_walk_kernel_run_coalesced_boxes_nothing(graph, boxed, algorithm):
    info = ALGORITHM_REGISTRY[algorithm]
    results = run_coalesced(
        graph, info.program_factory(), info.config_factory(seed=11),
        [make_instances(SEEDS[:4]), make_instances(SEEDS[4:])],
    )
    assert [len(r.samples) for r in results] == [4, len(SEEDS) - 4]
    assert sum(r.total_sampled_edges for r in results) > 0
    assert boxed == {"states": 0, "record_edges": 0}


@pytest.mark.parametrize("algorithm", WALK_ALGORITHMS)
def test_walk_kernel_out_of_memory_boxes_nothing(graph, boxed, algorithm):
    info = ALGORITHM_REGISTRY[algorithm]
    config = info.config_factory(seed=11)
    assert resolve_step(
        config, "out_of_memory", program=info.program_factory()
    ).kernel == "walk"
    ran = OutOfMemorySampler(
        graph, info.program_factory(), config,
        OutOfMemoryConfig.fully_optimized(num_partitions=3),
    ).run(SEEDS)
    assert ran.total_sampled_edges > 0
    assert boxed == {"states": 0, "record_edges": 0}
    assert [s.instance_id for s in ran.sample.samples] == list(range(len(SEEDS)))
    assert boxed == {"states": 0, "record_edges": 0}


def test_engine_algorithm_out_of_memory_still_builds_one_state_each(graph, boxed):
    info = ALGORITHM_REGISTRY["unbiased_neighbor_sampling"]
    config = info.config_factory(seed=11)
    assert resolve_step(
        config, "out_of_memory", program=info.program_factory()
    ).kernel == "engine"
    ran = OutOfMemorySampler(
        graph, info.program_factory(), config,
        OutOfMemoryConfig.fully_optimized(num_partitions=3),
    ).run(SEEDS)
    assert ran.total_sampled_edges > 0
    assert boxed["states"] == len(SEEDS)
    assert boxed["record_edges"] > 0


def test_engine_route_still_steps_one_state_per_instance(graph, boxed):
    info = ALGORITHM_REGISTRY["unbiased_neighbor_sampling"]
    config = info.config_factory(seed=11)
    assert resolve_step(
        config, "in_memory", program=info.program_factory()
    ).kernel == "engine"
    result = sample_graph(graph, info.program_factory(), SEEDS, config)
    assert result.total_sampled_edges > 0
    assert boxed["states"] == len(SEEDS)
    assert boxed["record_edges"] > 0
