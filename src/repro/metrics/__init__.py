"""Metrics: iteration/search statistics and distribution checks.

Besides SEPS (Sampled Edges Per Second), which every result type computes
itself (``seps()``), the paper reports per-optimisation statistics:
average do-while iterations per selected vertex (Fig. 11),
collision-search reduction ratios (Fig. 12) and kernel-time standard
deviation (Fig. 14).  This package computes them plus the statistical
helpers the test suite uses to verify that selection probabilities follow
Theorem 1.
"""

from repro.metrics.stats import (
    empirical_distribution,
    chi_square_uniformity,
    total_variation_distance,
    kernel_time_std,
    search_reduction_ratio,
    mean_iterations,
)

__all__ = [
    "empirical_distribution",
    "chi_square_uniformity",
    "total_variation_distance",
    "kernel_time_std",
    "search_reduction_ratio",
    "mean_iterations",
]
