"""Hand-written tier checks that are not algorithm x route shaped.

Every cell of the bit-compat matrix (``test_bitcompat_matrix.py``) already
holds its plan to what was constructed and run.  Two checks stay by hand: a
legacy calibration key must not split the plan from the engine, and the
out-of-memory drain's node2vec ``prev`` column must track every walker's
``prev_vertex`` after every kernel.
"""

import json

import numpy as np
import pytest

from repro.algorithms.registry import ALGORITHM_REGISTRY
from repro.api.sampler import GraphSampler
from repro.compiled import clear_kernel_cache
from repro.compiled.walk_kernel import CompiledWalkKernel
from repro.engine.step import BatchedStepEngine
from repro.graph.partition import partition_graph
from repro.oom.scheduler import OutOfMemoryConfig
from repro.planner import calibration

from bitcompat import (GRAPH, PAIRS, PRESETS, SEEDS, batch_of, drain,
                       observe, program_of)


def test_calibration_cannot_split_plan_from_engine(monkeypatch, tmp_path):
    # A calibration written before the tier stopped being cost-guessed: its
    # huge compiled overhead used to make plan() report "interpreted" while
    # the sampler had built a compiled engine.  The key must load
    # (ignored) and move nothing.
    legacy = tmp_path / "calibration.json"
    legacy.write_text(json.dumps({
        "time_scale": 1.0, "compiled_speedup": 3.0, "compiled_overhead_s": 1e9,
    }))
    monkeypatch.setenv("REPRO_CALIBRATION", str(legacy))
    calibration.clear_calibration_cache()
    clear_kernel_cache()
    try:
        assert calibration.load_calibration() == calibration.Calibration(
            time_scale=1.0, compiled_speedup=3.0
        )
        info = ALGORITHM_REGISTRY["simple_random_walk"]
        with observe() as seen:
            sampler = GraphSampler(GRAPH, info.program_factory(),
                                   info.config_factory(seed=11))
            sampler.run(SEEDS)
        assert sampler.plan(SEEDS).step_tier == "compiled"
        assert seen.step() == ("compiled", "walk")
    finally:
        calibration.clear_calibration_cache()


@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("shape", ("flat", "multi_seed", "scattered_ids"))
def test_node2vec_prev_column_tracks_prev_vertex(monkeypatch, preset, shape):
    """After every kernel, ``prev[rank]`` is that instance's ``prev_vertex``."""
    config = ALGORITHM_REGISTRY["node2vec"].config_factory(seed=11)
    oom = getattr(OutOfMemoryConfig, preset)(num_partitions=3)
    if shape == "multi_seed":
        owners = partition_graph(GRAPH, 3).owner(np.asarray(PAIRS))
        assert any(a != b for a, b in owners)  # two partitions, one round
        assert any(a == b for a, b in owners)  # two entries, one kernel

    column_trace, state_trace = [], []
    expand = CompiledWalkKernel.expand
    expand_entries = BatchedStepEngine.expand_entries

    def spy_expand(self, rows, *args):
        out = expand(self, rows, *args)
        column_trace.append(rows.prevs.tolist())
        return out

    def spy_expand_entries(self, v, i, d, instance_map, *rest):
        out = expand_entries(self, v, i, d, instance_map, *rest)
        # The map is built in batch order: row k is the k-th state.
        state_trace.append([s.prev_vertex for s in instance_map.values()])
        return out

    monkeypatch.setattr(CompiledWalkKernel, "expand", spy_expand)
    monkeypatch.setattr(BatchedStepEngine, "expand_entries", spy_expand_entries)
    for declared in (False, True):  # the walk kernel, then the engine
        drain(GRAPH, program_of("node2vec"), config, batch_of(shape), oom,
              declared=declared)
    assert len(column_trace) > len(batch_of(shape))
    assert column_trace == state_trace
