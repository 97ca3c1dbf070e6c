"""Host calibration for the planner's analytic cost model.

The roofline model in :mod:`repro.gpusim.costmodel` predicts *simulated
device* time; the planner compares plans and sheds load against *host wall
time*.  On the seed hosts the two disagreed by a large constant factor (the
shipped ``benchmarks/results/BENCH_planner.json`` records actual/predicted
ratios between ~1.5x and ~26x), so every absolute-time decision the planner
makes was systematically off.

This module closes the gap with a single fitted constant: ``time_scale`` is
the geometric mean of observed ``actual_time_s / predicted_time_s`` ratios
from a planner benchmark run.  The geometric mean is the right location
estimate here because the ratios are multiplicative errors spread over an
order of magnitude -- an arithmetic mean would let the one 26x outlier
dominate.  The planner multiplies every predicted time by ``time_scale``
before comparing tiers or shedding load, and plans report the result as
``calibrated_time_s``.

The calibration also carries the compiled tier's pricing coefficient,
``compiled_speedup`` (how much faster the compiled tier runs the same plan;
the shipped value is the benchmark gate's floor).  It only scales
``calibrated_time_s``; which tier runs is decided from eligibility alone
(:func:`repro.compiled.compiler.resolve_step`).

Calibrations persist as JSON next to the benchmark baselines
(``benchmarks/baselines/calibration.json``).  ``REPRO_CALIBRATION`` points at
an alternate file; a missing file falls back to the built-in defaults so the
library works from a bare checkout or an installed wheel.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Tuple

__all__ = [
    "Calibration",
    "DEFAULT_PATH",
    "clear_calibration_cache",
    "fit_calibration",
    "fit_from_telemetry",
    "load_calibration",
    "save_calibration",
]

#: Shipped location: next to the perf-gate baselines.
DEFAULT_PATH = (
    Path(__file__).resolve().parents[3] / "benchmarks" / "baselines" / "calibration.json"
)

_ENV_VAR = "REPRO_CALIBRATION"


@dataclass(frozen=True)
class Calibration:
    """Fitted host constants layered on top of the analytic cost model."""

    #: Multiplier from predicted (simulated-device) seconds to host seconds.
    time_scale: float = 1.0
    #: Expected compiled-tier speedup over interpretation for eligible plans.
    compiled_speedup: float = 3.0
    #: Provenance: ``"bench:route"`` labels of the records the fit used.
    fitted_from: Tuple[str, ...] = field(default_factory=tuple)

    def calibrated_time_s(self, predicted_time_s: float) -> float:
        """Predicted host wall time for an interpreted run."""
        return float(predicted_time_s) * self.time_scale


def fit_calibration(
    records: Sequence[dict],
    *,
    compiled_speedup: float = 3.0,
) -> Calibration:
    """Fit ``time_scale`` from planner benchmark records.

    Each usable record needs positive ``actual_time_s`` and
    ``predicted_time_s``; ``time_scale`` is the geometric mean of their
    ratios.  Raises ``ValueError`` when no record is usable.
    """
    logs = []
    labels = []
    for rec in records:
        actual = float(rec.get("actual_time_s", 0.0))
        predicted = float(rec.get("predicted_time_s", 0.0))
        if actual <= 0.0 or predicted <= 0.0:
            continue
        logs.append(math.log(actual / predicted))
        labels.append(f"{rec.get('bench', '?')}:{rec.get('route', '?')}")
    if not logs:
        raise ValueError("no records with positive actual/predicted times to fit")
    return Calibration(
        time_scale=math.exp(sum(logs) / len(logs)),
        compiled_speedup=compiled_speedup,
        fitted_from=tuple(labels),
    )


def fit_from_telemetry(
    sink=None,
    *,
    compiled_speedup: float = 3.0,
) -> Calibration:
    """Fit a calibration from live plan-cost feedback instead of shipped
    benchmark records.

    When telemetry is enabled every executed plan deposits a
    predicted-vs-actual record into
    :data:`repro.telemetry.feedback.FEEDBACK` (or the ``sink`` given here);
    those records use the same keys as the benchmark files, so this is
    :func:`fit_calibration` over whatever traffic the process has actually
    served.  Raises ``ValueError`` when the sink holds no usable records
    (e.g. telemetry was never enabled).
    """
    if sink is None:
        from repro.telemetry.feedback import FEEDBACK as sink
    return fit_calibration(sink.records(), compiled_speedup=compiled_speedup)


def save_calibration(cal: Calibration, path: Optional[Path] = None) -> Path:
    """Write a calibration as JSON; returns the path written."""
    target = Path(path) if path is not None else DEFAULT_PATH
    target.parent.mkdir(parents=True, exist_ok=True)
    payload = asdict(cal)
    payload["fitted_from"] = list(cal.fitted_from)
    target.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return target


def _load_from_file(path: Path) -> Calibration:
    # Unknown keys are ignored, so files saved by older versions still load.
    payload = json.loads(path.read_text())
    return Calibration(
        time_scale=float(payload.get("time_scale", 1.0)),
        compiled_speedup=float(payload.get("compiled_speedup", 3.0)),
        fitted_from=tuple(payload.get("fitted_from", ())),
    )


_CACHE: Optional[Calibration] = None
_CACHE_SOURCE: Optional[str] = None


def load_calibration(path: Optional[Path] = None) -> Calibration:
    """The active calibration.

    Resolution order: explicit ``path`` argument (never cached), then the
    ``REPRO_CALIBRATION`` environment variable, then the shipped
    ``benchmarks/baselines/calibration.json``, then built-in defaults.  The
    env/shipped lookup is cached per source; tests use
    :func:`clear_calibration_cache` after repointing the env var.
    """
    if path is not None:
        return _load_from_file(Path(path))
    global _CACHE, _CACHE_SOURCE
    source = os.environ.get(_ENV_VAR) or str(DEFAULT_PATH)
    if _CACHE is not None and _CACHE_SOURCE == source:
        return _CACHE
    target = Path(source)
    cal = _load_from_file(target) if target.is_file() else Calibration()
    _CACHE = cal
    _CACHE_SOURCE = source
    return cal


def clear_calibration_cache() -> None:
    """Forget the cached calibration (tests that repoint ``REPRO_CALIBRATION``)."""
    global _CACHE, _CACHE_SOURCE
    _CACHE = None
    _CACHE_SOURCE = None
