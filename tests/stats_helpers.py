"""Distribution checks the selection and end-to-end tests share.

Every selection technique must realise the transition probabilities of
Theorem 1 (and bipartite region search must match updated sampling); these
two helpers compare observed selections against the expected distribution.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from scipy import stats as sp_stats


def chi_square_uniformity(
    selections: np.ndarray, expected_probs: np.ndarray
) -> Tuple[float, float]:
    """Chi-square goodness-of-fit of selections against expected probabilities.

    Returns ``(statistic, p_value)``.  Candidates with zero expected
    probability must never be selected (a selection there yields p = 0).
    """
    selections = np.asarray(selections, dtype=np.int64)
    expected_probs = np.asarray(expected_probs, dtype=np.float64)
    counts = np.bincount(selections, minlength=expected_probs.size).astype(np.float64)
    if counts.size != expected_probs.size:
        raise ValueError("selections reference candidates outside expected_probs")
    zero_mask = expected_probs <= 0
    if np.any(counts[zero_mask] > 0):
        return float("inf"), 0.0
    keep = ~zero_mask
    expected = expected_probs[keep] * counts.sum()
    statistic, p_value = sp_stats.chisquare(counts[keep], expected)
    return float(statistic), float(p_value)


def total_variation_distance(p: np.ndarray, q: np.ndarray) -> float:
    """Total variation distance between two distributions over the same support."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError("distributions must have the same shape")
    return float(0.5 * np.abs(p - q).sum())
