"""Warp groups are a positional column: any layout equals standalone runs.

``BatchedStepEngine.step_instances(..., groups=, cursors=)`` names each
instance's warp group by *position*.  The routes only ever hand it two
layouts -- ``np.repeat(arange)`` (coalesced members) and ``arange`` (sharded
walkers) -- so these property tests drive the general case: interleaved,
non-contiguous group columns, groups whose instances all finish early,
groups with no instance at all, and non-zero starting cursors.  Whatever the
layout, every group must come out exactly as one standalone (ungrouped)
engine run over just that group's instances -- samples, iteration counts,
final warp cursor -- and the batch's cost must be the sum of the standalone
costs, for a per-vertex, a per-layer and a frontier-selecting algorithm, on
the hook-dispatching and the declared-shape sites alike.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.algorithms.registry import ALGORITHM_REGISTRY
from repro.api.instance import make_instances
from repro.compiled import resolve_step
from repro.engine.step import BatchedStepEngine
from repro.gpusim.costmodel import CostModel
from repro.gpusim.prng import CounterRNG
from repro.graph.generators import powerlaw_graph

GRAPH = powerlaw_graph(150, 6.0, exponent=2.2, seed=5)
SINK = 30  # no out-edges: an instance seeded here finishes at its first step
assert GRAPH.degrees[SINK] == 0

SHAPES = {
    "per_vertex": ("unbiased_neighbor_sampling", {"depth": 3}),
    "per_layer": ("layer_sampling", {"depth": 3}),
    # Pools of up to four seeds against FrontierSize 2: line 4 really
    # selects, so frontier warps interleave with the per-vertex ones.
    "frontier_selecting": (
        "multidimensional_random_walk", {"frontier_size": 2, "depth": 5},
    ),
}

seed_tuples = st.lists(
    st.sampled_from([0, 3, 15, SINK, 45, 60, 75, 140, 149]),
    min_size=1, max_size=4, unique=True,
)
#: One (group, seeds) pair per instance, in batch order.
layouts = st.lists(
    st.tuples(st.integers(0, 3), seed_tuples), min_size=1, max_size=7
)
start_cursors = st.lists(st.integers(0, 40), min_size=4, max_size=4)


def run_engine(engine, instances, depth, iterations, *grouped):
    """Drive the depth loop; returns the summed cost and per-step tasks."""
    total, tasks = CostModel(), []
    for step in range(depth):
        cost = CostModel()
        stepped = engine.step_instances(
            instances, step, cost, iterations, *grouped
        )
        if stepped is None:
            break
        tasks.append(stepped)
        total.merge(cost)
    return total, tasks


@pytest.mark.parametrize("sites", ["hooks", "declared"])
@pytest.mark.parametrize("shape", sorted(SHAPES))
@given(layout=layouts, starts=start_cursors)
@example(  # the issue's column: interleaved, group 1 dead on arrival, 3 empty
    layout=[(2, [0, 15, 45, 60]), (0, [3]), (2, [140]), (1, [SINK])],
    starts=[7, 0, 3, 11],
)
@settings(max_examples=25, deadline=None)
def test_any_group_layout_equals_standalone_runs(shape, sites, layout, starts):
    algorithm, overrides = SHAPES[shape]
    info = ALGORITHM_REGISTRY[algorithm]
    config = info.config_factory(seed=11, **overrides)
    program = info.program_factory()
    kind = (
        resolve_step(config, program=program).kind
        if sites == "declared" else None
    )
    groups = np.array([group for group, _ in layout], dtype=np.int64)

    def build():
        """Fresh states: ids restart at 0 per group, like coalesced members."""
        states = [None] * len(layout)
        for group in range(4):
            where = np.flatnonzero(groups == group)
            if where.size:
                member = make_instances([layout[i][1] for i in where])
                for position, state in zip(where, member.states()):
                    states[position] = state
        return states

    def engine():
        return BatchedStepEngine(
            GRAPH, program, config, CounterRNG(config.seed), kind
        )

    batch = build()
    cursors = np.array(starts, dtype=np.int64)
    iterations = [[] for _ in range(4)]
    cost, tasks = run_engine(
        engine(), batch, config.depth, iterations, groups, cursors
    )

    alone = build()
    alone_cost, alone_tasks = CostModel(), np.zeros(config.depth, dtype=np.int64)
    for group in range(4):
        where = np.flatnonzero(groups == group)
        standalone = engine()
        standalone.warp_cursor[0] = starts[group]
        flat = []
        group_cost, group_tasks = run_engine(
            standalone, [alone[i] for i in where], config.depth, flat
        )
        alone_cost.merge(group_cost)
        alone_tasks[: len(group_tasks)] += np.asarray(group_tasks, dtype=np.int64)
        assert iterations[group] == flat
        assert cursors[group] == standalone.warp_counter
    for got, ref in zip(batch, alone):
        assert np.array_equal(got.sampled_edges(), ref.sampled_edges())
        assert np.array_equal(got.frontier_pool, ref.frontier_pool)
        assert (got.depth, got.finished) == (ref.depth, ref.finished)
    assert cost.as_dict() == alone_cost.as_dict()
    assert tasks == alone_tasks[: len(tasks)].tolist()
    assert not alone_tasks[len(tasks):].any()
    assert cost.sampled_edges > 0 or all(s == [SINK] for _, s in layout)
