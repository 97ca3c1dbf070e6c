"""Baselines: reference implementations and the paper's comparator systems.

* :mod:`~repro.baselines.reference` -- the test suite's correctness oracle
  :class:`~repro.baselines.reference.ScalarMainLoop`, the scalar MAIN loop
  the batched engines must match bit for bit.
* :mod:`~repro.baselines.knightking` -- a KnightKing-like walker-centric CPU
  random-walk engine (alias tables for static biases, rejection sampling for
  dynamic ones, BSP stepping) used as the comparator of Fig. 9(a).
* :mod:`~repro.baselines.graphsaint` -- a GraphSAINT-like CPU
  multi-dimensional random-walk (frontier) sampler used as the comparator of
  Fig. 9(b).
"""

from repro.baselines.reference import ScalarMainLoop
from repro.baselines.knightking import KnightKingEngine, KnightKingResult
from repro.baselines.graphsaint import GraphSAINTSampler, GraphSAINTResult

__all__ = [
    "ScalarMainLoop",
    "KnightKingEngine",
    "KnightKingResult",
    "GraphSAINTSampler",
    "GraphSAINTResult",
]
