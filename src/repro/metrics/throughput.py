"""Work-unit throughput metering for batch tasks and training loops."""

from __future__ import annotations

from repro.errors import MeasurementError


class ThroughputMeter:
    """Integrates a piecewise-constant unit rate into completed work.

    Batch tasks drain "work units" at a fluid rate; the meter integrates that
    rate and reports units/second over a measurement window that excludes
    warmup.
    """

    def __init__(self, warmup_until: float = 0.0) -> None:
        self._warmup_until = warmup_until
        self._units = 0.0
        self._units_at_warmup: float | None = None
        self._rate = 0.0
        self._last_sync = 0.0

    @property
    def units(self) -> float:
        """Total units completed since t=0 (as of the last sync)."""
        return self._units

    def sync(self, now: float) -> None:
        """Integrate at the current rate up to ``now``."""
        if now < self._last_sync - 1e-9:
            raise MeasurementError(f"sync backwards: {now} < {self._last_sync}")
        span = now - self._last_sync
        if span > 0:
            start = self._last_sync
            if (
                self._units_at_warmup is None
                and start < self._warmup_until <= now
            ):
                # Split the span at the warmup boundary.
                self._units += self._rate * (self._warmup_until - start)
                self._units_at_warmup = self._units
                self._units += self._rate * (now - self._warmup_until)
            else:
                self._units += self._rate * span
                if self._units_at_warmup is None and now >= self._warmup_until:
                    self._units_at_warmup = self._units
        elif self._units_at_warmup is None and now >= self._warmup_until:
            self._units_at_warmup = self._units
        self._last_sync = now

    def set_rate(self, rate: float, now: float) -> None:
        """Sync then adopt a new unit rate."""
        self.sync(now)
        self._rate = max(0.0, rate)

    def add_units(self, units: float) -> None:
        """Credit discrete completions (training steps, finished jobs)."""
        self._units += units

    def throughput(self, measurement_end: float) -> float:
        """Units/second over the post-warmup window ending at ``measurement_end``."""
        self.sync(measurement_end)
        window = measurement_end - self._warmup_until
        if window <= 0:
            return 0.0
        baseline = self._units_at_warmup if self._units_at_warmup is not None else 0.0
        return (self._units - baseline) / window
