"""The columnar containers against their per-instance definitions.

``InstanceBatch`` (seeds in) and ``SampleColumns`` (samples out) replace
per-instance object lists on every hop from ``make_instances`` to the
served response.  These tests hold the columns to what the per-instance
loops they replaced computed -- the loops live on here as the reference --
over ragged inputs: instances without edges, multi-seed instances, no edges
at all.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api.instance import InstanceState, make_instances
from repro.api.results import SampleColumns, SampleResult
from repro.gpusim.costmodel import CostModel
from repro.graph import ring_graph
from repro.planner.errors import SeedValidationError
from repro.service import SamplingClient, SamplingService
from repro.service.workers import RequestPayload

vertex = st.integers(0, 40)
#: One instance: its seeds (multi-seed allowed) and the chunks of edges it
#: recorded, each chunk one source fanned out to some destinations.
instance = st.tuples(
    st.lists(vertex, min_size=1, max_size=4),
    st.lists(st.tuples(vertex, st.lists(vertex, max_size=5)), max_size=4),
)
ragged = st.lists(instance, min_size=1, max_size=8)


def finished_states(spec):
    states = []
    for rank, (seeds, chunks) in enumerate(spec):
        state = InstanceState(instance_id=rank, frontier_pool=np.array(seeds))
        for src, dsts in chunks:
            state.record_edges(src, np.array(dsts, dtype=np.int64))
        states.append(state)
    return states


def assert_columns_equal(a: SampleColumns, b: SampleColumns):
    for left, right in zip(a.arrays(), b.arrays()):
        assert left.dtype == right.dtype == np.int64
        assert left.shape == right.shape
        assert np.array_equal(left, right)


class TestSampleColumns:
    @given(ragged)
    @settings(max_examples=80, deadline=None)
    def test_from_instances_is_the_per_instance_definition(self, spec):
        states = finished_states(spec)
        columns = SampleColumns.from_instances(states)
        assert len(columns) == len(states)
        assert columns.edges.flags.c_contiguous and columns.edges.shape[1] == 2
        assert columns.seed_offsets[0] == columns.edge_offsets[0] == 0
        assert columns.edge_offsets[-1] == columns.num_edges
        for sample, state in zip(columns, states):
            assert sample.instance_id == state.instance_id
            assert np.array_equal(sample.seeds, state.seeds)
            assert np.array_equal(sample.edges, state.sampled_edges())
            assert sample.edges.shape == (state.num_sampled_edges, 2)
        counts = [state.num_sampled_edges for state in states]
        assert columns.edges_per_instance().tolist() == counts
        assert columns.num_edges == sum(counts)
        result = SampleResult(samples=columns, cost=CostModel())
        assert result.total_sampled_edges == sum(counts)
        assert np.array_equal(
            result.all_edges(),
            np.vstack([state.sampled_edges() for state in states]),
        )

    @given(ragged, st.data())
    @settings(max_examples=80, deadline=None)
    def test_from_owner_edges_groups_draws_in_order(self, spec, data):
        # The walk kernel's output: draws of all owners interleaved, in
        # sampling order.  Shuffle each state's rows into one flat stream
        # that keeps every owner's own order.
        states = finished_states(spec)
        owner = np.repeat(
            np.arange(len(states)), [s.num_sampled_edges for s in states]
        )
        owner = np.array(data.draw(st.permutations(owner.tolist())), dtype=np.int64)
        cursor = [0] * len(states)
        rows = np.empty((owner.size, 2), dtype=np.int64)
        for position, rank in enumerate(owner.tolist()):
            rows[position] = states[rank].sampled_edges()[cursor[rank]]
            cursor[rank] += 1
        batch = make_instances([seeds for seeds, _ in spec])
        columns = SampleColumns.from_owner_edges(
            batch.instance_ids, batch.seed_offsets, batch.seeds,
            owner, rows[:, 0], rows[:, 1],
        )
        assert_columns_equal(columns, SampleColumns.from_instances(states))

    @given(ragged, st.data())
    @settings(max_examples=80, deadline=None)
    def test_slices_are_views_and_reslice(self, spec, data):
        states = finished_states(spec)
        result = SampleResult(
            samples=SampleColumns.from_instances(states), cost=CostModel()
        )
        start = data.draw(st.integers(0, len(states)))
        stop = data.draw(st.integers(start, len(states)))
        part = result.slice_instances(start, stop).samples
        assert_columns_equal(
            part, SampleColumns.from_instances(states[start:stop])
        )
        for name in ("instance_ids", "seeds", "edges"):
            if getattr(part, name).size:
                assert np.shares_memory(
                    getattr(part, name), getattr(result.samples, name)
                )
        inner_start = data.draw(st.integers(0, len(part)))
        inner_stop = data.draw(st.integers(inner_start, len(part)))
        assert_columns_equal(
            part[inner_start:inner_stop],
            result.samples[start + inner_start:start + inner_stop],
        )

    def test_a_view_writes_through_to_the_container(self):
        columns = SampleColumns.from_instances(
            finished_states([([1], [(1, [2, 3])]), ([4], [(4, [5])])])
        )
        held = columns[1]
        held.edges[:] = -7
        assert columns.edges[2].tolist() == [-7, -7]
        assert columns[1] is held  # built once

    def test_no_edges_at_all(self):
        columns = SampleColumns.from_instances(finished_states([([3, 4], [])]))
        assert columns.num_edges == 0 and columns.edges.shape == (0, 2)
        assert columns[0].seeds.tolist() == [3, 4]
        assert len(SampleColumns.empty()) == 0
        assert len(columns[0:0]) == 0

    def test_strided_slices_are_refused(self):
        columns = SampleColumns.from_instances(
            finished_states([([1], []), ([2], []), ([3], [])])
        )
        with pytest.raises(ValueError, match="contiguous"):
            columns[::2]

    @given(ragged, st.data())
    @settings(max_examples=60, deadline=None)
    def test_payload_pickle_round_trip_is_bit_identical(self, spec, data):
        states = finished_states(spec)
        columns = SampleColumns.from_instances(states)
        start = data.draw(st.integers(0, len(states)))
        stop = data.draw(st.integers(start, len(states)))
        payload = RequestPayload(
            request_id=9, samples=columns[start:stop], iteration_counts=[1, 2]
        )
        list(payload.samples)  # built views must not ride along
        loaded = pickle.loads(pickle.dumps(payload))
        assert_columns_equal(loaded.samples, payload.samples)
        assert loaded.iteration_counts == [1, 2]
        # A slice ships its own rows, not the fused unit's.
        assert not np.shares_memory(loaded.samples.edges, columns.edges)
        assert loaded.samples.edges.shape[0] == payload.samples.num_edges


class TestInstanceBatch:
    @given(st.lists(st.lists(vertex, max_size=4), min_size=1, max_size=8),
           st.one_of(st.none(), st.integers(1, 12)))
    @settings(max_examples=80, deadline=None)
    def test_make_instances_is_the_per_instance_definition(self, pools, count):
        batch = make_instances(pools, num_instances=count)
        wanted = pools if count is None else [
            pools[i % len(pools)] for i in range(count)
        ]
        assert len(batch) == len(wanted)
        assert batch.instance_ids.tolist() == list(range(len(wanted)))
        for rank, (state, pool) in enumerate(zip(batch, wanted)):
            assert state.instance_id == rank
            assert state.frontier_pool.tolist() == pool
            assert state.seeds.tolist() == pool
        flat = make_instances([p[0] for p in pools if p] or [0], num_instances=count)
        assert all(state.pool_size == 1 for state in flat)

    @given(st.lists(st.lists(st.integers(-2, 12), max_size=4), min_size=1,
                    max_size=6), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_validate_matches_the_per_instance_loop(self, pools, reject):
        def reference():
            for rank, pool in enumerate(pools):
                pool = np.asarray(pool, dtype=np.int64)
                if pool.size == 0:
                    return f"instance {rank} has no seed vertices"
            # One min/max over the flat array comes before the duplicate
            # pass, so an out-of-range seed anywhere wins over a duplicate.
            for rank, pool in enumerate(pools):
                if min(pool) < 0 or max(pool) >= 10:
                    return f"instance {rank} has seed vertices outside the graph"
            for rank, pool in enumerate(pools):
                if reject and len(set(pool)) != len(pool):
                    return (f"instance {rank} has duplicate seed vertices "
                            "(sampling without replacement)")
            return None

        batch = make_instances(pools)
        wanted = reference()
        if wanted is None:
            batch.validate(10, reject_duplicates=reject)
        else:
            with pytest.raises(SeedValidationError) as raised:
                batch.validate(10, reject_duplicates=reject)
            assert str(raised.value) == wanted

    def test_visited_set_is_seeded_on_first_touch(self):
        state = make_instances([[3, 5]])[0]
        assert state._visited is None
        state.set_pool(np.array([9]))
        assert state.visited == {3, 5}  # the seeds, not the current pool
        state.mark_visited(np.array([9]))
        assert state.unvisited(np.array([3, 9, 4])).tolist() == [4]


def test_cache_entry_is_isolated_from_a_mutated_response():
    with SamplingService(num_workers=1, mode="inline") as svc:
        svc.load_graph("g", ring_graph(24))
        client = SamplingClient(svc)
        args = ("g", "deepwalk", [0, 5, 9])
        kwargs = dict(depth=4, seed=3, timeout=30)
        served = client.sample(*args, **kwargs)
        assert served.stats["cache_hit"] is False
        original = served.samples.copy()
        served.samples.edges[:] = -1  # the container ...
        served.samples[1].seeds[:] = -1  # ... and through a view
        hit = client.sample(*args, **kwargs)
        assert hit.stats["cache_hit"] is True
        assert_columns_equal(hit.samples, original)
        hit.samples.edges[:] = -2
        assert_columns_equal(client.sample(*args, **kwargs).samples, original)
        (key,) = svc.gateway.cache.keys()
        entry = svc.gateway.cache.get(key)
        assert entry.nbytes == 512 + original.nbytes + 8 * len(hit.iteration_counts)
