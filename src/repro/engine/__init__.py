"""Batched execution engine for the C-SAW MAIN loop.

The engine executes one Fig. 2(b) depth step for *all* active instances as a
flat NumPy array program -- one batched CSR gather, one batched bias
evaluation, one segmented SELECT -- instead of nesting Python loops over
instances and frontier vertices.  Both the in-memory
:class:`~repro.api.sampler.GraphSampler` and the out-of-memory
:class:`~repro.oom.scheduler.OutOfMemorySampler` delegate their per-depth
step to it, so the gather/select/update sequence lives in exactly one place.

The engine is bit-compatible with the scalar path: for a fixed seed it
produces the same sampled edges, the same per-selection iteration counts and
the same cost-model totals (see ``tests/integration/test_bitcompat_matrix.py``
and ``docs/engine.md`` for the contract with stateful user hooks).
"""

from repro.engine.gather import batch_gather_neighbors
from repro.engine.hetero import run_coalesced
from repro.engine.step import BatchedStepEngine, validate_biases

__all__ = [
    "BatchedStepEngine",
    "batch_gather_neighbors",
    "run_coalesced",
    "validate_biases",
]
