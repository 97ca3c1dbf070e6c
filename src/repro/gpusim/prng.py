"""Counter-based pseudo-random number generation.

The paper uses cuRAND to give every GPU thread an independent random stream.
We reproduce that property with a counter-based generator in the spirit of
Philox/SplitMix64: a 64-bit mixing function applied to a counter derived from
``(seed, instance, depth, lane, attempt)``.  Counter-based generation has two
properties the framework depends on:

* **determinism** -- the vertex a lane selects depends only on its logical
  coordinates, never on scheduling order, so multi-GPU instance division and
  out-of-order partition scheduling produce bit-identical samples; and
* **vectorisation** -- a whole warp's random numbers are produced with a few
  NumPy operations instead of per-lane Python calls.
"""

from __future__ import annotations

import numpy as np

__all__ = ["splitmix64", "CounterRNG"]

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64_MAX = np.float64(2.0**64)


_S30, _S27, _S31 = np.uint64(30), np.uint64(27), np.uint64(31)


def _mix(x: np.ndarray) -> np.ndarray:
    """:func:`splitmix64` on a uint64 array, overflow warnings the caller's."""
    z = x + _GOLDEN
    z = (z ^ (z >> _S30)) * _MIX1
    z = (z ^ (z >> _S27)) * _MIX2
    return z ^ (z >> _S31)


def splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorised SplitMix64 finaliser: maps uint64 -> well-mixed uint64."""
    with np.errstate(over="ignore"):
        return _mix(np.asarray(x, dtype=np.uint64))


class CounterRNG:
    """Deterministic, stateless random number source keyed by counters.

    Every call mixes the seed with up to four stream coordinates (for example
    instance id, depth, lane id and retry attempt) to form a counter that is
    hashed with SplitMix64.  Identical coordinates always yield identical
    numbers.
    """

    def __init__(self, seed: int = 0):
        self._seed = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)

    @property
    def seed(self) -> int:
        """The 64-bit seed this generator was constructed with."""
        return int(self._seed)

    # ------------------------------------------------------------------ #
    def _counter(self, *coords: np.ndarray | int) -> np.ndarray:
        """Combine coordinates into a single uint64 counter array."""
        arrays = [np.asarray(c, dtype=np.uint64) for c in coords]
        result = np.broadcast_arrays(*arrays) if len(arrays) > 1 else arrays
        acc = np.full(result[0].shape if result[0].shape else (), self._seed, dtype=np.uint64)
        with np.errstate(over="ignore"):  # entered once, not per coordinate
            for i, arr in enumerate(result):
                acc = _mix(acc ^ (arr + np.uint64(i + 1) * _GOLDEN))
        return acc

    # ------------------------------------------------------------------ #
    def random_u64(self, *coords: np.ndarray | int) -> np.ndarray:
        """Raw 64-bit integers for the given coordinates."""
        if not coords:
            raise ValueError("at least one coordinate is required")
        return self._counter(*coords)

    def uniform(self, *coords: np.ndarray | int) -> np.ndarray:
        """Uniform floats in ``[0, 1)`` for the given coordinates."""
        bits = self.random_u64(*coords)
        return bits.astype(np.float64) / _U64_MAX

    def randint(self, low: int, high: int, *coords: np.ndarray | int) -> np.ndarray:
        """Uniform integers in ``[low, high)`` for the given coordinates."""
        if high <= low:
            raise ValueError("high must exceed low")
        span = np.uint64(high - low)
        bits = self.random_u64(*coords)
        return (bits % span).astype(np.int64) + np.int64(low)

    def derive(self, label: int) -> "CounterRNG":
        """A new generator whose streams are independent of this one."""
        new_seed = splitmix64(np.uint64(self._seed) ^ splitmix64(np.uint64(label)))
        return CounterRNG(int(new_seed))

    def __repr__(self) -> str:
        return f"CounterRNG(seed={self.seed:#x})"
