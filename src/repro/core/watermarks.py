"""QoS watermark profiles (Section IV-D).

When an application is scheduled onto the server, Kelp loads its profile:
high and low watermarks for each of the four measurements. Comparing a
measurement against its watermark yields the predicates of Algorithm 1
(``HiBW``, ``LoBW``, ``HiLat``, ...).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.hw.spec import MachineSpec


@dataclass(frozen=True)
class Watermark:
    """A (low, high) threshold pair for one measurement."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ConfigurationError(f"watermark lo {self.lo} > hi {self.hi}")

    def above(self, value: float) -> bool:
        """The ``Hi*`` predicate: measurement exceeds the high watermark."""
        return value > self.hi

    def below(self, value: float) -> bool:
        """The ``Lo*`` predicate: measurement is under the low watermark."""
        return value < self.lo

    def clears(self, value: float, error: float) -> bool:
        """Whether both predicates give the same answer for every reading
        within ``error`` of ``value`` (neither threshold is that close)."""
        return abs(value - self.lo) > error and abs(value - self.hi) > error


@dataclass(frozen=True)
class QosProfile:
    """Per-application watermark set, plus controller core bounds.

    Thresholds are configured conservatively to prioritize the accelerated
    task (Section IV-D).
    """

    #: Socket-level memory bandwidth, GB/s.
    socket_bw: Watermark
    #: Socket-level loaded-latency factor (1.0 = unloaded).
    socket_latency: Watermark
    #: Socket-level memory saturation (FAST_ASSERTED fraction).
    saturation: Watermark
    #: High-priority-subdomain bandwidth, GB/s.
    hipri_bw: Watermark
    #: Bounds on cores granted to backfilled tasks in the hi subdomain.
    min_backfill_cores: int = 0
    max_backfill_cores: int = 4
    #: Bounds on cores granted to low-priority tasks.
    min_lo_cores: int = 1

    def __post_init__(self) -> None:
        if self.min_backfill_cores < 0 or self.min_lo_cores < 1:
            raise ConfigurationError("invalid core bounds")
        if self.max_backfill_cores < self.min_backfill_cores:
            raise ConfigurationError("max_backfill_cores < min_backfill_cores")


def default_profile(spec: MachineSpec, ml_cores: int = 4) -> QosProfile:
    """The conservative default profile used by the evaluation.

    Watermarks are expressed relative to the platform's peak bandwidths so
    the same profile works on all three hosts.
    """
    socket_peak = spec.sockets[0].peak_bw_gbps
    subdomain_peak = spec.sockets[0].memory_controllers[0].peak_bw_gbps
    half_cores = spec.sockets[0].cores // 2
    return QosProfile(
        socket_bw=Watermark(lo=0.55 * socket_peak, hi=0.80 * socket_peak),
        socket_latency=Watermark(lo=1.20, hi=1.60),
        saturation=Watermark(lo=0.03, hi=0.10),
        hipri_bw=Watermark(lo=0.40 * subdomain_peak, hi=0.58 * subdomain_peak),
        min_backfill_cores=1,
        max_backfill_cores=max(1, half_cores - ml_cores),
        min_lo_cores=1,
    )
