"""Baselines: reference implementations and the paper's comparator systems.

* :mod:`~repro.baselines.reference` -- correctness oracles for the test
  suite: straightforward NumPy reference samplers (no cost model, no GPU
  semantics; just the mathematically expected behaviour) and
  :class:`~repro.baselines.reference.ScalarMainLoop`, the scalar MAIN loop
  the batched engines must match bit for bit.
* :mod:`~repro.baselines.knightking` -- a KnightKing-like walker-centric CPU
  random-walk engine (alias tables for static biases, rejection sampling for
  dynamic ones, BSP stepping) used as the comparator of Fig. 9(a).
* :mod:`~repro.baselines.graphsaint` -- a GraphSAINT-like CPU
  multi-dimensional random-walk (frontier) sampler used as the comparator of
  Fig. 9(b).
"""

from repro.baselines.reference import (
    ScalarMainLoop,
    reference_select_with_replacement,
    reference_select_without_replacement,
    reference_random_walk,
    reference_neighbor_sampling,
)
from repro.baselines.knightking import KnightKingEngine, KnightKingResult
from repro.baselines.graphsaint import GraphSAINTSampler, GraphSAINTResult

__all__ = [
    "ScalarMainLoop",
    "reference_select_with_replacement",
    "reference_select_without_replacement",
    "reference_random_walk",
    "reference_neighbor_sampling",
    "KnightKingEngine",
    "KnightKingResult",
    "GraphSAINTSampler",
    "GraphSAINTResult",
]
