"""``run_random_walks`` / ``run_multi_gpu_walks`` are facades over the product path.

Each is one call on the walk program -- ``sample_graph`` and
``run_multi_gpu_sampling`` respectively -- so it runs the compiled walk kernel
and returns exactly what that call returns.
"""

import numpy as np
import pytest

from repro.algorithms import BiasedRandomWalk, SimpleRandomWalk, run_random_walks
from repro.api import sample_graph
from repro.compiled.walk_kernel import CompiledWalkKernel
from repro.oom.multigpu import run_multi_gpu_sampling, run_multi_gpu_walks

SEEDS = np.arange(0, 60, 3)


@pytest.fixture
def kernels_built(monkeypatch):
    """Count ``CompiledWalkKernel`` constructions."""
    built = []
    init = CompiledWalkKernel.__init__

    def spy_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(CompiledWalkKernel, "__init__", spy_init)
    return built


def assert_same_result(a, b):
    for column in ("instance_ids", "seed_offsets", "seeds", "edge_offsets", "edges"):
        assert np.array_equal(getattr(a.samples, column), getattr(b.samples, column))
    assert a.cost == b.cost
    assert a.kernels == b.kernels


def expected_walks(graph, program, *, walkers, length, seed):
    return sample_graph(graph, program, SEEDS,
                        program.default_config(depth=length, seed=seed),
                        num_instances=walkers)


@pytest.mark.parametrize("biased", (False, True))
def test_run_random_walks_is_sample_graph(small_weighted_graph, kernels_built, biased):
    result = run_random_walks(small_weighted_graph, SEEDS, walk_length=6,
                              num_walkers=50, biased=biased, seed=4)
    assert len(kernels_built) == 1
    program = BiasedRandomWalk() if biased else SimpleRandomWalk()
    expected = expected_walks(small_weighted_graph, program, walkers=50, length=6, seed=4)
    assert_same_result(result, expected)
    assert result.total_sampled_edges > 0


def test_biased_on_unweighted_graph_is_uniform(small_powerlaw_graph):
    result = run_random_walks(small_powerlaw_graph, SEEDS, walk_length=5,
                              num_walkers=40, biased=True, seed=1)
    uniform = expected_walks(small_powerlaw_graph, SimpleRandomWalk(),
                             walkers=40, length=5, seed=1)
    assert_same_result(result, uniform)


@pytest.mark.parametrize("biased", (False, True))
def test_run_multi_gpu_walks_is_run_multi_gpu_sampling(small_weighted_graph, kernels_built,
                                                        biased):
    result = run_multi_gpu_walks(small_weighted_graph, SEEDS, num_walkers=90,
                                 walk_length=4, num_gpus=3, biased=biased, seed=2)
    assert len(kernels_built) == 3  # one sampler per simulated GPU
    program = BiasedRandomWalk() if biased else SimpleRandomWalk()
    expected = run_multi_gpu_sampling(
        small_weighted_graph, program, program.default_config(depth=4, seed=2),
        SEEDS, num_instances=90, num_gpus=3)
    assert result.num_gpus == expected.num_gpus == 3
    assert [d.device_id for d in result.devices] == [0, 1, 2]
    for ours, theirs in zip(result.per_gpu, expected.per_gpu):
        assert_same_result(ours, theirs)
    assert result.makespan() == expected.makespan()
