"""Steady-state batch CPU tasks.

Batch tasks (Stream, Stitch, CPUML, and the synthetic aggressors) run one
perpetual phase: a fixed per-thread unit rate scaled by the contention speed
factor. Their *throughput* in units/second is what Figs 9b/10c/13 normalize.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.hw.contention import Priority, SolveResult, TrafficSource
from repro.hw.machine import Machine
from repro.hw.placement import Placement
from repro.metrics.throughput import ThroughputMeter
from repro.workloads.base import HostPhaseProfile, Task, phase_speed


@dataclass(frozen=True)
class BatchProfile:
    """A batch workload: its host phase plus a nominal unit rate."""

    name: str
    phase: HostPhaseProfile
    #: Work units/second per thread at standalone full speed.
    unit_rate_per_thread: float = 1.0

    def __post_init__(self) -> None:
        if self.unit_rate_per_thread <= 0:
            raise ConfigurationError("unit_rate_per_thread must be positive")

    def with_threads(self, threads: int) -> "BatchProfile":
        """A copy of this profile running ``threads`` runnable threads."""
        from dataclasses import replace

        return replace(self, phase=replace(self.phase, threads=threads))

    def scaled_to_threads(self, threads: int) -> "BatchProfile":
        """A copy resized to ``threads`` threads with demand and footprint
        scaled proportionally — used to split a job between the low-priority
        subdomain and a backfilled remainder (Section IV-C)."""
        from dataclasses import replace

        if threads <= 0:
            raise ConfigurationError("threads must be positive")
        ratio = threads / self.phase.threads
        return replace(
            self,
            phase=replace(
                self.phase,
                threads=threads,
                bw_gbps=self.phase.bw_gbps * ratio,
                working_set_mb=self.phase.working_set_mb * ratio,
            ),
        )


class BatchTask(Task):
    """A forever-running batch job draining work units at a fluid rate."""

    def __init__(
        self,
        task_id: str,
        machine: Machine,
        placement: Placement,
        profile: BatchProfile,
        warmup_until: float = 0.0,
    ) -> None:
        super().__init__(task_id, machine, placement, priority=Priority.LOW)
        self.profile = profile
        self.meter = ThroughputMeter(warmup_until=warmup_until)
        self._speed = 0.0

    # ---------------------------------------------------------- protocol
    def traffic_sources(self) -> list[TrafficSource]:
        if not self.started or self.parked:
            return []
        # One list for every solve, dropped with the rest of the cache.
        sources = self._source_cache.get("phase")
        if sources is None:
            sources = [self._make_source(self.profile.phase)]
            self._source_cache["phase"] = sources
        return sources

    def apply_rates(self, result: SolveResult, now: float) -> None:
        self.meter.sync(now)
        if self.parked:
            self._speed = 0.0
            self.meter.set_rate(0.0, now)
            return
        memo = self._speed_memo.get(id(result))
        if memo is not None and memo[0] is result:
            speed = memo[1]
            if speed == self._speed:
                # The meter already drains at this rate; integration is
                # linear, so re-installing the same rate is a no-op.
                return
        else:
            rates = result.rates_for(f"{self.task_id}:host")
            speed = phase_speed(rates, self.profile.phase)
            if len(self._speed_memo) >= 128:
                self._speed_memo.clear()
            self._speed_memo[id(result)] = (result, speed)
        self._speed = speed
        nominal = self.profile.unit_rate_per_thread * self.profile.phase.threads
        self.meter.set_rate(nominal * speed, now)

    # ----------------------------------------------------------- metrics
    @property
    def speed(self) -> float:
        """Current contention speed factor (1.0 = standalone full speed)."""
        return self._speed

    def throughput(self, measurement_end: float) -> float:
        """Units/second over the post-warmup window."""
        return self.meter.throughput(measurement_end)
