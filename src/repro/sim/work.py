"""Fluid work quantities that drain at externally-set rates."""

from __future__ import annotations

import math
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import SimulationError

if TYPE_CHECKING:
    from repro.sim.engine import Simulator
    from repro.sim.events import Event

#: Work remainders below this are treated as complete (floating-point slack).
_EPSILON = 1e-12


class FluidWork:
    """A quantity of work draining at a piecewise-constant rate.

    Whoever sets the rate calls :meth:`retime` with the new rate whenever
    it may have changed (:meth:`~repro.hw.machine.Machine.notify_change`
    pushes new rates to every task). Between rate changes the rate is
    constant, so completion time is analytic. A :class:`FluidPool` holds
    the works of one owner and schedules their completions.
    """

    __slots__ = ("_remaining", "_rate", "_last_sync", "total", "due", "stamp")

    def __init__(self, amount: float, *, now: float = 0.0) -> None:
        if amount < 0:
            raise SimulationError(f"negative work amount {amount}")
        self.total = amount
        self._remaining = amount
        self._rate = 0.0
        self._last_sync = now
        #: The completion instant at the current rate, set by the owning
        #: pool: ``inf`` until a rate is set, and while stalled.
        self.due = math.inf
        #: The pool's due-change count when ``due`` was last set: works due
        #: at one instant complete in stamp order.
        self.stamp = 0

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
        advances the clock, so :class:`FluidPool` calls this when a
        completion event fires and retires the residue instead. Returns
        ``False`` (changing nothing) when the remainder is too large to be
        rounding noise: genuinely unfinished work.
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


#: Works order by due instant, then stamp.
_DUE_ORDER = attrgetter("due", "stamp")


class FluidPool:
    """The fluid works of one owner, draining at one shared rate, with one
    pending simulator event: the completion of the work due first.

    Works due at one instant complete in stamp order, the order in which
    one event per work, rescheduled whenever its due instant changed, would
    fire. When a work completes, it leaves the pool and
    ``on_done(work, owner)`` runs; an owner that calls
    :meth:`~repro.hw.machine.Machine.notify_change` there, before its
    continuation, has the next work re-timed and armed before the
    continuation schedules anything.
    """

    __slots__ = ("sim", "label", "on_done", "works", "rate", "_stamps",
                 "_event", "_armed")

    def __init__(
        self,
        sim: "Simulator",
        label: str,
        on_done: Callable[[FluidWork, Any], None],
    ) -> None:
        self.sim = sim
        #: The label of the completion event.
        self.label = label
        self.on_done = on_done
        #: Work -> owner, in insertion order. Read-only outside the pool.
        self.works: dict[FluidWork, Any] = {}
        #: The rate every work drains at.
        self.rate = 0.0
        #: Due changes so far (the next stamp).
        self._stamps = 0
        #: The pending completion event, for ``_armed``.
        self._event: "Event | None" = None
        self._armed: FluidWork | None = None

    def add(self, amount: float, owner: Any) -> FluidWork:
        """Add ``amount`` of work for ``owner``; it is due once a rate is set."""
        work = FluidWork(amount, now=self.sim.now)
        self.works[work] = owner
        return work

    def set_rate(self, rate: float, now: float) -> None:
        """Drain every work at ``rate`` from ``now``.

        At an unchanged rate only the works without a due instant (just
        added, or stalled) are re-timed: the others' instants are still
        exact, since fluid progress is linear.
        """
        unchanged = rate == self.rate
        self.rate = rate
        changed = False
        for work in self.works:
            if unchanged and work.due != math.inf:
                continue
            due = work.retime(rate, now)
            if due != work.due:
                work.due = due
                work.stamp = self._stamps
                self._stamps += 1
                changed = True
        if changed or self._event is None:
            self._arm()

    def clear(self) -> None:
        """Drop every work and cancel the pending event."""
        if self._event is not None:
            self._event.cancel()
            self._event = None
        self._armed = None
        self.works.clear()

    def _arm(self) -> None:
        """Hold the event for the work due first, keeping the pending one
        while the same work stays first at the same instant."""
        first = min(self.works, key=_DUE_ORDER, default=None)
        if first is not None and first.due == math.inf:
            first = None
        event = self._event
        if event is not None:
            if first is self._armed and event.time == first.due:
                return
            event.cancel()
        self._armed = first
        self._event = None
        if first is not None:
            self._event = self.sim.at(first.due, self._fire, label=self.label)

    def _fire(self) -> None:
        """Complete the armed work, or re-arm it when a residue above
        rounding noise is left."""
        work = self._armed
        self._event = None
        self._armed = None
        now = self.sim.now
        work.sync(now)
        if not work.done and not work.retire_residue(now=now):
            work.due = now + work.eta()
            work.stamp = self._stamps
            self._stamps += 1
            self._arm()
            return
        self.on_done(work, self.works.pop(work))
        if self._event is None and self.works:
            self._arm()
