"""Direct equivalence scenarios for the fused walk kernel.

The cross-route matrix covers every registry algorithm at its default
config; these tests push the compiled kernel through the shapes that stress
its array program specifically: ragged multi-vertex pools, weighted biases,
non-trivial node2vec parameters, fanout > 1, dead-end early termination and
warp-counter continuity across runs of one sampler.  The pool, fanout and
dead-end scenarios run on every walk route: the in-memory depth loop, the
out-of-memory drain and the sharded cluster, where the closing edge log and
the shards' per-row warp groups must not reorder a single draw.
"""

import numpy as np
import pytest

from repro.algorithms.node2vec import Node2Vec
from repro.algorithms.random_walk import BiasedRandomWalk, SimpleRandomWalk
from repro.algorithms.registry import get_algorithm
from repro.api.sampler import GraphSampler
from repro.compiled import NUMBA_AVAILABLE, force_backend
from repro.compiled.walk_kernel import CompiledWalkKernel
from repro.distributed import ShardedSamplingCluster
from repro.graph.builder import from_edge_list
from repro.oom.scheduler import OutOfMemoryConfig, OutOfMemorySampler


def assert_bit_identical(a, b, *, kernels=True):
    assert len(a.samples) == len(b.samples)
    for sa, sb in zip(a.samples, b.samples):
        assert sa.instance_id == sb.instance_id
        assert np.array_equal(sa.seeds, sb.seeds)
        assert np.array_equal(sa.edges, sb.edges)
    assert a.cost.as_dict() == b.cost.as_dict()
    assert a.iteration_counts == b.iteration_counts
    if kernels:
        assert len(a.kernels) == len(b.kernels)
        for ka, kb in zip(a.kernels, b.kernels):
            assert ka.name == kb.name
            assert ka.cost.as_dict() == kb.cost.as_dict()
            assert ka.num_warp_tasks == kb.num_warp_tasks


def run_both(graph, program_factory, config, seeds):
    compiled_sampler = GraphSampler(graph, program_factory(), config)
    assert compiled_sampler.plan(seeds).step_tier == "compiled"
    compiled = compiled_sampler.run(seeds)
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_COMPILED", "0")
        interp = GraphSampler(graph, program_factory(), config).run(seeds)
    assert_bit_identical(interp, compiled)
    return compiled


#: Every walk route: the depth loop, the drain (two presets, 3 partitions)
#: and the sharded cluster (1 and 3 shards).
ROUTES = ("in_memory", "oom-baseline", "oom-fully_optimized",
          "sharded-1", "sharded-3")


def kernel_records(kernels):
    return [(k.name, k.num_warp_tasks, k.cost.as_dict()) for k in kernels]


def run_route(route, graph, algorithm, config, seeds, program_kwargs):
    """``(result, route records)``: the run's :class:`SampleResult` plus what
    else the route reports (kernel records, drain schedule, shard work)."""
    info = get_algorithm(algorithm)
    if route == "in_memory":
        result = GraphSampler(
            graph, info.program_factory(**program_kwargs), config
        ).run(seeds)
        return result, kernel_records(result.kernels)
    if route.startswith("oom-"):
        oom = getattr(OutOfMemoryConfig, route[4:])(num_partitions=3)
        run = OutOfMemorySampler(
            graph, info.program_factory(**program_kwargs), config,
            oom_config=oom,
        ).run(seeds)
        return run.sample, (run.kernel_times, run.rounds, run.makespan)
    run = ShardedSamplingCluster(
        graph, algorithm, config, num_shards=int(route[len("sharded-"):]),
        program_kwargs=program_kwargs,
    ).run(seeds)
    return run.result, (
        run.epochs, run.migrations, run.shard_admitted,
        [kernel_records(kernels) for kernels in run.shard_kernels],
    )


def run_both_on(route, graph, algorithm, config, seeds, program_kwargs=None):
    """Compiled against ``REPRO_COMPILED=0`` on ``route``; the compiled run
    must step the walk kernel."""
    program_kwargs = program_kwargs or {}
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        for entry in ("step", "expand"):
            original = getattr(CompiledWalkKernel, entry)

            def spy(self, *args, _original=original, **kwargs):
                calls.append(1)
                return _original(self, *args, **kwargs)

            patch.setattr(CompiledWalkKernel, entry, spy)
        compiled, compiled_records = run_route(
            route, graph, algorithm, config, seeds, program_kwargs
        )
    assert calls, f"{route}: the compiled run never stepped the walk kernel"
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_COMPILED", "0")
        interp, interp_records = run_route(
            route, graph, algorithm, config, seeds, program_kwargs
        )
    assert_bit_identical(interp, compiled, kernels=False)
    assert interp_records == compiled_records
    return compiled


class TestWalkKernelScenarios:
    @pytest.mark.parametrize("route", ROUTES)
    def test_ragged_multi_vertex_pools(self, small_powerlaw_graph, route):
        # Seed *groups*: instances start with pools of different sizes, so
        # every depth step is a ragged segmented batch.
        seeds = [[0], [3, 7, 11], [20, 21], [30, 31, 32, 33], [40]]
        config = SimpleRandomWalk.default_config(depth=5, seed=7)
        run_both_on(route, small_powerlaw_graph, "simple_random_walk",
                    config, seeds)

    def test_weighted_biased_walk(self, small_weighted_graph):
        config = BiasedRandomWalk.default_config(depth=6, seed=3)
        run_both(small_weighted_graph, BiasedRandomWalk, config, list(range(0, 500, 11)))

    def test_unweighted_biased_walk_uses_degrees(self, small_powerlaw_graph):
        config = BiasedRandomWalk.default_config(depth=6, seed=3)
        run_both(small_powerlaw_graph, BiasedRandomWalk, config, list(range(0, 500, 11)))

    @pytest.mark.parametrize("p,q", [(0.25, 4.0), (4.0, 0.25), (1.0, 1.0)])
    def test_node2vec_parameters(self, small_weighted_graph, p, q):
        config = Node2Vec.default_config(depth=6, seed=5)
        run_both(
            small_weighted_graph, lambda: Node2Vec(p=p, q=q), config,
            list(range(0, 500, 17)),
        )

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("algorithm,fanout", [
        ("simple_random_walk", 3), ("node2vec", 2), ("biased_random_walk", 2),
    ])
    def test_fanout_above_one(self, small_weighted_graph, route, algorithm,
                              fanout):
        # neighbor_size > 1 keeps walks eligible (fixed fanout, with
        # replacement); pools now grow by ns per vertex per depth, and in
        # the drain one walker's branches spread over partitions.
        config = get_algorithm(algorithm).config_factory(
            depth=3, neighbor_size=fanout, seed=2
        )
        run_both_on(route, small_weighted_graph, algorithm, config,
                    list(range(0, 100, 9)))

    @pytest.mark.parametrize("route", ROUTES)
    def test_dead_ends_terminate_early(self, route):
        # Directed chain into sinks: walkers die before the configured depth,
        # so the kernel must stop emitting depth kernels exactly where the
        # interpreted loop does (and mark everything finished).
        edges = [(0, 1), (1, 2), (2, 3), (4, 3), (5, 4)]
        graph = from_edge_list(edges, num_vertices=7, symmetrize=False)
        config = SimpleRandomWalk.default_config(depth=8, seed=1)
        result = run_both_on(route, graph, "simple_random_walk", config,
                             [0, 2, 3, 5, 6])
        assert result.total_sampled_edges < 5 * config.depth
        if route == "in_memory":
            assert len(result.kernels) < config.depth

    def test_warp_counter_continuity_across_runs(
        self, small_powerlaw_graph, monkeypatch
    ):
        # Two runs on one sampler continue the warp-id sequence; compiled and
        # interpreted samplers must stay aligned run after run.
        config = SimpleRandomWalk.default_config(depth=4, seed=13)
        seed_sets = ([0, 1, 2], [10, 20], [33])
        compiled_sampler = GraphSampler(
            small_powerlaw_graph, SimpleRandomWalk(), config
        )
        compiled_runs = [compiled_sampler.run(seeds) for seeds in seed_sets]
        monkeypatch.setenv("REPRO_COMPILED", "0")
        interp_sampler = GraphSampler(
            small_powerlaw_graph, SimpleRandomWalk(), config
        )
        for seeds, compiled in zip(seed_sets, compiled_runs):
            assert_bit_identical(interp_sampler.run(seeds), compiled)
        assert (
            compiled_sampler.engine.warp_counter
            == interp_sampler.engine.warp_counter
            > 0
        )

    def test_iteration_counts_are_python_ints(
        self, small_powerlaw_graph, monkeypatch
    ):
        # The sink micro-fix contract: plain python ints, on both tiers.
        config = SimpleRandomWalk.default_config(depth=4, seed=1)
        for switch in ("1", "0"):
            monkeypatch.setenv("REPRO_COMPILED", switch)
            result = GraphSampler(
                small_powerlaw_graph, SimpleRandomWalk(), config
            ).run([0, 1, 2])
            assert result.iteration_counts
            assert all(type(i) is int for i in result.iteration_counts)

    def test_node2vec_rejects_a_key_space_past_int64(self):
        """(prev, vertex) packs into one int64 row key only while V**2 <
        2**63; past that the kernel refuses before touching the cache."""
        from types import SimpleNamespace

        from repro.compiled import structure_cache_stats
        from repro.compiled.walk_kernel import CompiledWalkKernel
        from repro.gpusim.prng import CounterRNG

        stand_in = SimpleNamespace(
            graph=SimpleNamespace(num_vertices=3_037_000_500),
            program=Node2Vec(), config=Node2Vec.default_config(),
            rng=CounterRNG(0),
        )
        before = structure_cache_stats()
        with pytest.raises(ValueError, match="REPRO_COMPILED=0"):
            CompiledWalkKernel(stand_in, kind="node2vec", backend="numpy")
        assert structure_cache_stats() == before


class TestBackends:
    def test_forced_numpy_matches_default(self, small_powerlaw_graph):
        config = SimpleRandomWalk.default_config(depth=5, seed=4)
        seeds = list(range(0, 200, 7))
        with force_backend("numpy"):
            forced = GraphSampler(
                small_powerlaw_graph, SimpleRandomWalk(), config
            ).run(seeds)
        default = GraphSampler(
            small_powerlaw_graph, SimpleRandomWalk(), config
        ).run(seeds)
        assert_bit_identical(forced, default)

    @pytest.mark.skipif(not NUMBA_AVAILABLE, reason="numba not installed")
    def test_numba_backend_is_bit_identical(self, small_powerlaw_graph):
        config = SimpleRandomWalk.default_config(depth=6, seed=4)
        seeds = list(range(0, 500, 7))
        with force_backend("numba"):
            jitted = GraphSampler(
                small_powerlaw_graph, SimpleRandomWalk(), config
            ).run(seeds)
        with force_backend("numpy"):
            plain = GraphSampler(
                small_powerlaw_graph, SimpleRandomWalk(), config
            ).run(seeds)
        assert_bit_identical(jitted, plain)

    def test_force_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            with force_backend("cuda"):
                pass  # pragma: no cover

    @pytest.mark.skipif(NUMBA_AVAILABLE, reason="numba is installed")
    def test_force_numba_without_numba_raises(self):
        with pytest.raises(RuntimeError):
            with force_backend("numba"):
                pass  # pragma: no cover
