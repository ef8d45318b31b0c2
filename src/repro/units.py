"""Unit helpers and conventions used across the library.

The simulator keeps every quantity in a single canonical unit to avoid
conversion bugs:

* time        — **seconds** (float)
* bandwidth   — **GB/s** (float, decimal gigabytes)
* data size   — **MB** (float) for working sets, **GB** for transfers
* latency     — **nanoseconds** for memory-access latency *factors* are
                dimensionless multipliers over an unloaded baseline
* rates       — events (queries, steps) per second
"""

from __future__ import annotations


def clamp(value: float, lo: float, hi: float) -> float:
    """Clamp ``value`` into the closed interval ``[lo, hi]``."""
    if lo > hi:
        raise ValueError(f"clamp: empty interval [{lo}, {hi}]")
    return max(lo, min(hi, value))
