"""Bias-based vertex selection (Section II-B and IV of the paper).

Everything C-SAW does reduces to one primitive: given a pool of candidate
vertices and a non-negative *bias* per candidate, select one or more of them
with probability proportional to the bias (Theorem 1).  This package contains
every selection technique the paper discusses:

* :mod:`~repro.selection.ctps` -- the Cumulative Transition Probability Space
  (normalised prefix sums of biases) that inverse transform sampling searches.
* :mod:`~repro.selection.its` -- inverse transform sampling, the method C-SAW
  adopts for GPUs.
* :mod:`~repro.selection.dartboard` -- 2-D rejection sampling (KnightKing's
  dynamic method).
* :mod:`~repro.selection.alias` -- the alias method (KnightKing's static
  method), including its O(n) preprocessing.
* :mod:`~repro.selection.bipartite` -- **bipartite region search**, the
  paper's novel collision-mitigation technique (Theorem 2).
* :mod:`~repro.selection.bitmap` -- contiguous and strided per-warp bitmaps
  plus the shared-memory linear-search baseline for collision detection.
* :mod:`~repro.selection.collision` -- sampling *without* replacement using
  repeated sampling, updated sampling or bipartite region search, with the
  iteration/probe statistics Figures 10-12 report.
* :mod:`~repro.selection.segmented` -- batched (segmented) counterparts of
  ITS and the collision strategies used by the execution engine: SELECT over
  ``K`` candidate pools in one vectorised pass, bit-identical to ``K``
  scalar calls.
"""

from repro.selection.ctps import CTPS
from repro.selection.its import sample_with_replacement, sample_one
from repro.selection.dartboard import dartboard_sample
from repro.selection.alias import AliasTable, build_alias_table
from repro.selection.bipartite import bipartite_remap, bipartite_search_select
from repro.selection.bitmap import (
    CollisionDetector,
    ContiguousBitmap,
    StridedBitmap,
    LinearSearchDetector,
    make_detector,
)
from repro.selection.collision import (
    CollisionStrategy,
    SelectionResult,
    select_without_replacement,
)
from repro.selection.segmented import (
    SegmentedCTPS,
    SegmentedSelection,
    segmented_sample_with_replacement,
    segmented_select_without_replacement,
    segmented_warp_select,
)

__all__ = [
    "CTPS",
    "sample_with_replacement",
    "sample_one",
    "dartboard_sample",
    "AliasTable",
    "build_alias_table",
    "bipartite_remap",
    "bipartite_search_select",
    "CollisionDetector",
    "ContiguousBitmap",
    "StridedBitmap",
    "LinearSearchDetector",
    "make_detector",
    "CollisionStrategy",
    "SelectionResult",
    "select_without_replacement",
    "SegmentedCTPS",
    "SegmentedSelection",
    "segmented_sample_with_replacement",
    "segmented_select_without_replacement",
    "segmented_warp_select",
]
