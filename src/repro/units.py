"""Unit helpers and conventions used across the library.

The simulator keeps every quantity in a single canonical unit to avoid
conversion bugs:

* time        — **seconds** (float)
* bandwidth   — **GB/s** (float, decimal gigabytes)
* data size   — **MB** (float) for working sets, **GB** for transfers
* latency     — **nanoseconds** for memory-access latency *factors* are
                dimensionless multipliers over an unloaded baseline
* rates       — events (queries, steps) per second

These helpers exist so call sites can say ``ms(8)`` instead of ``8e-3`` and
stay self-documenting.
"""

from __future__ import annotations

#: One microsecond, in seconds.
MICROSECOND = 1e-6
#: One millisecond, in seconds.
MILLISECOND = 1e-3


def us(value: float) -> float:
    """Convert microseconds to seconds."""
    return value * MICROSECOND


def ms(value: float) -> float:
    """Convert milliseconds to seconds."""
    return value * MILLISECOND


def seconds(value: float) -> float:
    """Identity helper, for call-site symmetry with :func:`ms`/:func:`us`."""
    return float(value)


def to_ms(value_seconds: float) -> float:
    """Convert seconds to milliseconds."""
    return value_seconds / MILLISECOND


def to_us(value_seconds: float) -> float:
    """Convert seconds to microseconds."""
    return value_seconds / MICROSECOND


def gib_to_gb(value_gib: float) -> float:
    """Convert binary gibibytes to decimal gigabytes."""
    return value_gib * (1024 ** 3) / 1e9


def clamp(value: float, lo: float, hi: float) -> float:
    """Clamp ``value`` into the closed interval ``[lo, hi]``."""
    if lo > hi:
        raise ValueError(f"clamp: empty interval [{lo}, {hi}]")
    return max(lo, min(hi, value))
