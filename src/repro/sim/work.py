"""Fluid work quantities that drain at externally-set rates."""

from __future__ import annotations

import math

from repro.errors import SimulationError

#: Work remainders below this are treated as complete (floating-point slack).
_EPSILON = 1e-12


class FluidWork:
    """A quantity of work draining at a piecewise-constant rate.

    The owner is responsible for calling :meth:`sync` whenever the rate may
    have changed (:meth:`~repro.hw.machine.Machine.notify_change` pushes new
    rates to every task), then :meth:`set_rate` or :meth:`retime` with the
    new rate. Between syncs the rate is constant, so completion time is
    analytic.
    """

    __slots__ = ("_remaining", "_rate", "_last_sync", "total")

    def __init__(self, amount: float, *, now: float = 0.0) -> None:
        if amount < 0:
            raise SimulationError(f"negative work amount {amount}")
        self.total = amount
        self._remaining = amount
        self._rate = 0.0
        self._last_sync = now

    @property
    def remaining(self) -> float:
        """Remaining work as of the last sync (call :meth:`sync` first)."""
        return self._remaining

    @property
    def rate(self) -> float:
        """Current drain rate (work units per second)."""
        return self._rate

    @property
    def done(self) -> bool:
        """True once remaining work has drained to (numerically) zero."""
        return self._remaining <= _EPSILON

    def sync(self, now: float) -> None:
        """Integrate progress at the current rate up to ``now``."""
        elapsed = now - self._last_sync
        if elapsed <= 0.0:
            if elapsed < -1e-9:
                raise SimulationError(
                    f"sync moving backwards: {now} < {self._last_sync}"
                )
            self._last_sync = now
            return
        if self._rate > 0.0:
            drained = self._remaining - self._rate * elapsed
            self._remaining = drained if drained > 0.0 else 0.0
        self._last_sync = now

    def set_rate(self, rate: float, *, now: float) -> None:
        """Sync to ``now`` and switch to a new drain ``rate`` (>= 0)."""
        self.retime(rate, now)

    def retime(self, rate: float, now: float) -> float:
        """Sync to ``now``, switch to a new drain ``rate`` (>= 0), and return
        the absolute completion instant at that rate (``inf`` if stalled):
        the float ``Simulator.after(eta())`` would schedule at."""
        if rate < 0:
            raise SimulationError(f"negative rate {rate}")
        self.sync(now)
        self._rate = rate
        if self._remaining <= _EPSILON:
            return now
        if rate <= 0.0:
            return math.inf
        return now + self._remaining / rate

    def retire_residue(self, *, now: float) -> bool:
        """Zero out sub-resolution float residue at a completion event.

        Completion events fire at ``now + remaining / rate`` rounded to an
        absolute float timestamp, so up to about ``rate * ulp(now)`` of
        work can survive the final sync — a residue that scales with the
        *clock*, not the work amount, and outgrows ``_EPSILON`` once the
        simulation runs long (e.g. a day-long trace replay). Rescheduling
        such a remainder can round to a zero-width step that never
        advances the clock, so owners call this when their own completion
        event fires and retire the residue instead. Returns ``False``
        (changing nothing) when the remainder is too large to be rounding
        noise — a stale event or genuinely unfinished work.
        """
        self.sync(now)
        tolerance = 1e-9 * self.total + 1024.0 * self._rate * math.ulp(
            max(abs(now), 1.0)
        )
        if self._remaining > tolerance:
            return False
        self._remaining = 0.0
        return True

    def eta(self) -> float:
        """Seconds until completion at the current rate (inf if stalled)."""
        if self.done:
            return 0.0
        if self._rate <= 0.0:
            return float("inf")
        return self._remaining / self._rate
