"""Trace propagation: every planner route yields one connected span tree.

Satellite of the telemetry tentpole: for each route the facade run must
produce spans under a single trace id forming a single rooted tree --
including across process boundaries for the multiprocess shard transport,
whose spans are drained in the shard and ingested by the coordinator.
"""

from __future__ import annotations

import os

import pytest

from repro.algorithms.registry import get_algorithm
from repro.api.instance import make_instances
from repro.api.sampler import GraphSampler
from repro.distributed import ShardedSamplingCluster
from repro.engine.hetero import run_coalesced
from repro.oom.multigpu import run_multi_gpu_sampling
from repro.oom.scheduler import OutOfMemoryConfig, OutOfMemorySampler
from repro.telemetry import is_connected, span_tree, write_chrome_trace

NUM_SEEDS = 8


@pytest.fixture()
def seeds(small_powerlaw_graph):
    step = small_powerlaw_graph.num_vertices // NUM_SEEDS
    return [int(s) for s in range(0, small_powerlaw_graph.num_vertices, step)][:NUM_SEEDS]


def _deepwalk():
    info = get_algorithm("deepwalk")
    return info.program_factory(), info.config_factory(seed=3, depth=5)


def _single_tree(tel):
    """The run's spans as (root, records); asserts one connected tree."""
    roots = [r for r in tel.spans() if r.parent_id is None]
    assert len(roots) == 1, "expected exactly one root span, got %r" % (
        [(r.name, r.trace_id) for r in roots],)
    root = roots[0]
    records = tel.spans_for(root.trace_id)
    assert is_connected(records, root.trace_id), (
        "disconnected span tree:\n%s" % "\n".join(
            "%s parent=%s" % (r.name, r.parent_id) for r in records))
    return root, records


class TestInMemory:
    def test_compiled_tier_trace(self, telemetry, small_powerlaw_graph, seeds):
        program, config = _deepwalk()
        GraphSampler(small_powerlaw_graph, program, config).run(seeds)
        root, records = _single_tree(telemetry)
        assert root.name == "execute"
        assert root.attrs["route"] == "in_memory"
        assert root.attrs["step_tier"] == "compiled"
        assert "compiled_run" in {r.name for r in records}

    def test_compiled_tier_records_depth_steps(self, telemetry,
                                               small_powerlaw_graph, seeds):
        program, config = _deepwalk()
        GraphSampler(small_powerlaw_graph, program, config).run(seeds)
        root, records = _single_tree(telemetry)
        assert root.attrs["step_tier"] == "compiled"
        (run,) = [r for r in records if r.name == "compiled_run"]
        assert run.parent_id == root.span_id
        depth_steps = [r for r in records if r.name == "depth_step"]
        assert all(r.parent_id == run.span_id for r in depth_steps)
        assert [r.attrs["depth"] for r in depth_steps] == list(range(config.depth))

    def test_interpreted_tier_records_depth_steps(self, telemetry, monkeypatch,
                                                  small_powerlaw_graph, seeds):
        program, config = _deepwalk()
        monkeypatch.setenv("REPRO_COMPILED", "0")
        GraphSampler(small_powerlaw_graph, program, config).run(seeds)
        root, records = _single_tree(telemetry)
        assert root.attrs["step_tier"] == "interpreted"
        depth_steps = [r for r in records if r.name == "depth_step"]
        assert len(depth_steps) == config.depth
        assert all(r.parent_id == root.span_id for r in depth_steps)
        assert [r.attrs["depth"] for r in depth_steps] == list(range(config.depth))


class TestCoalesced:
    def test_fused_members_share_one_trace(self, telemetry,
                                           small_powerlaw_graph, seeds):
        program, config = _deepwalk()
        halves = [seeds[:4], seeds[4:]]
        run_coalesced(small_powerlaw_graph, program, config,
                      [make_instances(h) for h in halves])
        root, records = _single_tree(telemetry)
        assert root.name == "execute"
        assert root.attrs["route"] == "coalesced"


class TestOutOfMemory:
    def test_partition_rounds_nest_under_execute(self, telemetry,
                                                 small_powerlaw_graph, seeds):
        program, config = _deepwalk()
        sampler = OutOfMemorySampler(
            small_powerlaw_graph, program, config,
            OutOfMemoryConfig.fully_optimized(num_partitions=3),
        )
        sampler.run(seeds)
        root, records = _single_tree(telemetry)
        assert root.attrs["route"] == "out_of_memory"
        names = {r.name for r in records}
        assert "oom_round" in names
        assert "partition_drain" in names
        rounds = [r for r in records if r.name == "oom_round"]
        assert all(r.parent_id == root.span_id for r in rounds)
        drains = [r for r in records if r.name == "partition_drain"]
        round_ids = {r.span_id for r in rounds}
        assert all(r.parent_id in round_ids for r in drains)


class TestDeviceGroups:
    def test_device_groups_nest_under_execute(self, telemetry,
                                              small_powerlaw_graph, seeds):
        program, config = _deepwalk()
        run_multi_gpu_sampling(small_powerlaw_graph, program, config, seeds,
                               num_instances=len(seeds), num_gpus=3)
        root, records = _single_tree(telemetry)
        assert root.attrs["route"] == "in_memory"
        groups = [r for r in records if r.name == "device_group"]
        assert [(r.attrs["device"], r.attrs["instances"]) for r in groups] == [
            (0, 3), (1, 3), (2, 2)]
        assert all(r.parent_id == root.span_id for r in groups)
        runs = [r for r in records if r.name == "compiled_run"]
        assert sorted(r.parent_id for r in runs) == sorted(
            r.span_id for r in groups)


class TestSharded:
    def test_in_process_shards_join_the_epoch_spans(self, telemetry,
                                                    small_powerlaw_graph, seeds):
        cluster = ShardedSamplingCluster(
            small_powerlaw_graph, "deepwalk", num_shards=3)
        cluster.run(seeds)
        root, records = _single_tree(telemetry)
        assert root.attrs["route"] == "sharded"
        names = {r.name for r in records}
        assert {"shard_epoch", "shard_step", "reassemble"} <= names
        epochs = {r.span_id for r in records if r.name == "shard_epoch"}
        steps = [r for r in records if r.name == "shard_step"]
        assert steps and all(r.parent_id in epochs for r in steps)

    def test_multiprocess_shards_ship_spans_home(self, telemetry,
                                                 small_powerlaw_graph, seeds):
        cluster = ShardedSamplingCluster(
            small_powerlaw_graph, "deepwalk", num_shards=2,
            transport="multiprocess")
        cluster.run(seeds)
        root, records = _single_tree(telemetry)
        assert root.attrs["route"] == "sharded"
        steps = [r for r in records if r.name == "shard_step"]
        assert steps
        # the shard processes really produced them: foreign pids in the tree
        assert {r.pid for r in steps} - {os.getpid()}
        # shipped spans hang off the coordinator's execute span
        assert all(r.parent_id == root.span_id for r in steps)

    def test_multiprocess_tree_exports_to_chrome_format(self, telemetry,
                                                        small_powerlaw_graph,
                                                        seeds, tmp_path):
        import json

        cluster = ShardedSamplingCluster(
            small_powerlaw_graph, "deepwalk", num_shards=2,
            transport="multiprocess")
        cluster.run(seeds)
        _, records = _single_tree(telemetry)
        path = write_chrome_trace(records, tmp_path / "trace.json")
        events = json.loads(path.read_text())["traceEvents"]
        pids = {e["pid"] for e in events if e["ph"] == "X"}
        assert len(pids) >= 2  # coordinator + at least one shard process
        roots, children = span_tree(records)
        assert len(roots) == 1
