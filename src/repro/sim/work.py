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

    A :class:`FluidPool` owns its works: it integrates their progress,
    switches their rate and times their completion. Between rate changes
    the rate is constant, so completion time is analytic.
    """

    __slots__ = ("_remaining", "_rate", "_last_sync", "total", "due", "stamp")

    def __init__(self, amount: float, *, now: float = 0.0) -> None:
        if amount < 0:
            raise SimulationError(f"negative work amount {amount}")
        self.total = amount
        self._remaining = amount
        self._rate = 0.0
        #: The instant ``_remaining`` was integrated to.
        self._last_sync = now
        #: The completion instant at the current rate, set by the owning
        #: pool: ``inf`` until a rate is set, and while stalled.
        self.due = math.inf
        #: The pool's due-change count when ``due`` was last set: works due
        #: at one instant complete in stamp order.
        self.stamp = 0

    @property
    def remaining(self) -> float:
        """Remaining work as of the pool's last re-time or completion."""
        return self._remaining

    @property
    def rate(self) -> float:
        """Current drain rate (work units per second)."""
        return self._rate

    @property
    def done(self) -> bool:
        """True once remaining work has drained to (numerically) zero."""
        return self._remaining <= _EPSILON


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
        """Drain every work at ``rate`` (>= 0) from ``now``.

        Re-timing a work integrates its progress at the old rate up to
        ``now`` and puts its due instant at ``now + remaining / rate``
        (``now`` once done, ``inf`` while stalled): the float
        ``Simulator.after`` would schedule at. At an unchanged rate only
        the works without a due instant (just added, or stalled) are
        re-timed: the others' instants are still exact, since fluid
        progress is linear.
        """
        if rate < 0:
            raise SimulationError(f"negative rate {rate}")
        unchanged = rate == self.rate
        self.rate = rate
        changed = False
        for work in self.works:
            if unchanged and work.due != math.inf:
                continue
            elapsed = now - work._last_sync
            if elapsed > 0.0:
                if work._rate > 0.0:
                    drained = work._remaining - work._rate * elapsed
                    work._remaining = drained if drained > 0.0 else 0.0
            elif elapsed < -1e-9:
                raise SimulationError(
                    f"sync moving backwards: {now} < {work._last_sync}"
                )
            work._last_sync = now
            work._rate = rate
            if work._remaining <= _EPSILON:
                due = now
            elif rate <= 0.0:
                due = math.inf
            else:
                due = now + work._remaining / rate
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
        works = self.works
        if len(works) == 1:
            (first,) = works
        else:
            first = min(works, key=_DUE_ORDER, default=None)
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
        rounding noise is left.

        Completion events fire at ``now + remaining / rate`` rounded to an
        absolute float timestamp, so up to about ``rate * ulp(now)`` of
        work can survive the final integration: a residue that scales with
        the *clock*, not the work amount, and outgrows ``_EPSILON`` once the
        simulation runs long (a day-long trace replay). Rescheduling such a
        remainder can round to a zero-width step that never advances the
        clock, so it is retired here. A remainder too large to be rounding
        noise is genuinely unfinished work, due again at its current rate.
        """
        work = self._armed
        self._event = None
        self._armed = None
        now = self.sim.now
        # The event fires at ``work.due``, which is never before the
        # instant the work was last re-timed at, so time cannot run back.
        elapsed = now - work._last_sync
        if elapsed > 0.0 and work._rate > 0.0:
            drained = work._remaining - work._rate * elapsed
            work._remaining = drained if drained > 0.0 else 0.0
        work._last_sync = now
        remaining = work._remaining
        if remaining > _EPSILON:
            rate = work._rate
            tolerance = 1e-9 * work.total + 1024.0 * rate * math.ulp(
                max(abs(now), 1.0)
            )
            if remaining > tolerance:
                work.due = now + remaining / rate if rate > 0.0 else math.inf
                work.stamp = self._stamps
                self._stamps += 1
                self._arm()
                return
            work._remaining = 0.0
        self.on_done(work, self.works.pop(work))
        if self._event is None and self.works:
            self._arm()
