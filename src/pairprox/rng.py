"""Deterministic pseudo-random streams built on splitmix64.

All randomness in the package (sampling boxes, test-problem generation,
benchmark trials) flows through this module so that a seed pins results
exactly, independent of numpy's global state or generator defaults.
"""
from __future__ import annotations

import math
import numbers

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_INV_2_53 = 1.0 / (1 << 53)


def _mix(z: np.ndarray) -> np.ndarray:
    # splitmix64 finalizer; uint64 arithmetic wraps mod 2^64
    z = z.astype(np.uint64, copy=True)
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def require_seed(seed: int) -> int:
    """Return `seed` if it is an integer, not a bool, in [0, 2**64), the range of the
    splitmix64 state; raise ValueError otherwise (np.uint64 runs 2.5 as 2, True as 1)."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral):
        raise ValueError(f"seed must be an integer other than a bool, got {seed!r}")
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed!r}")
    return seed


def derive_seed(seed: int, *parts: int) -> int:
    """Combine a base seed with integer keys (e.g. problem size, trial index)."""
    acc = np.uint64(0)
    for p in parts:
        acc = _mix(np.array([acc ^ _mix(np.array([p], dtype=np.uint64))[0]]))[0]
    return int(np.uint64(seed) ^ acc)


class SplitMix64:
    """Sequential splitmix64 stream with vectorized draws."""

    def __init__(self, seed: int):
        self._state = np.uint64(require_seed(seed))

    def _raw(self, count: int) -> np.ndarray:
        steps = np.arange(1, count + 1, dtype=np.uint64)
        states = self._state + _GOLDEN * steps
        self._state = states[-1] if count else self._state
        return _mix(states)

    def uniform(self, count: int, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        """Uniform doubles in [low, high) with 53-bit resolution."""
        u = (self._raw(count) >> np.uint64(11)).astype(np.float64) * _INV_2_53
        return low + (high - low) * u

    def uniform_box(self, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
        """One point drawn coordinatewise uniform in [lower, upper]."""
        lower = np.asarray(lower, dtype=float)
        upper = np.asarray(upper, dtype=float)
        return lower + (upper - lower) * self.uniform(lower.size)

    def normal(self, count: int) -> np.ndarray:
        """Standard Gaussians via Box-Muller on consecutive uniform pairs."""
        pairs = (count + 1) // 2
        # shift into (0, 1] so log never sees zero
        u1 = ((self._raw(pairs) >> np.uint64(11)) + np.uint64(1)).astype(np.float64) * _INV_2_53
        u2 = (self._raw(pairs) >> np.uint64(11)).astype(np.float64) * _INV_2_53
        r = np.sqrt(-2.0 * np.log(u1))
        theta = (2.0 * math.pi) * u2
        out = np.empty(2 * pairs)
        out[0::2] = r * np.cos(theta)
        out[1::2] = r * np.sin(theta)
        return out[:count]

    def sign(self, count: int) -> np.ndarray:
        """Independent ±1 values."""
        return np.where(self._raw(count) >> np.uint64(63), 1.0, -1.0)
