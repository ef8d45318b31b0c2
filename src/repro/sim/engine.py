"""The discrete-event simulator core."""

from __future__ import annotations

import heapq
from typing import Callable, Iterable

from repro.errors import SimulationError
from repro.sim.events import Event

#: Event priority for controller/runtime actions (run after phase updates).
PRIORITY_CONTROL = 10
#: Default event priority for workload phase completions and arrivals.
PRIORITY_DEFAULT = 20
#: Priority for bookkeeping that must observe everything else (e.g. samplers).
PRIORITY_OBSERVE = 30
#: Priority for events that must follow every other event at their instant.
PRIORITY_LAST = 40

#: Minimum heap size before cancelled-event compaction is considered.
_COMPACT_MIN_HEAP = 64
#: Compact when at least this fraction of pending events is cancelled.
_COMPACT_FRACTION = 0.5


class PeriodicTask:
    """State of one periodic loop (see :meth:`Simulator.every`).

    A class (rather than closures over local state) so a simulator with
    periodic tasks pending remains picklable for checkpoint/restore.

    The loop fires on the chained grid ``t = t + interval``. It can leave
    the heap and come back on that grid: :meth:`pause` cancels the pending
    firing (called from the callback, it skips the re-arm instead), and
    :meth:`resume` schedules the next firing at an absolute instant.
    :meth:`cancel` is final: a cancelled loop never fires or resumes again.
    """

    __slots__ = ("sim", "interval", "callback", "label", "priority", "handle",
                 "stopped", "paused")

    def __init__(
        self,
        sim: "Simulator",
        interval: float,
        callback: Callable[[], None],
        label: str,
        priority: int,
    ) -> None:
        self.sim = sim
        self.interval = interval
        self.callback = callback
        self.label = label
        self.priority = priority
        #: The pending firing; None while paused, cancelled or firing.
        self.handle: Event | None = None
        self.stopped = False
        self.paused = False

    def __call__(self) -> None:
        if self.stopped:
            return
        self.handle = None
        self.callback()
        if not (self.stopped or self.paused):
            self.handle = self.sim.after(
                self.interval, self, label=self.label, priority=self.priority
            )

    def cancel(self) -> None:
        self.stopped = True
        self.pause()

    def pause(self) -> None:
        """Take the loop off the heap until :meth:`resume`."""
        self.paused = True
        if self.handle is not None:
            self.handle.cancel()
            self.handle = None

    def resume(self, time: float) -> None:
        """Fire next at ``time`` and on the grid after it (unless cancelled)."""
        if self.stopped:
            return
        self.paused = False
        self.handle = self.sim.at(
            time, self, label=self.label, priority=self.priority
        )


class Simulator:
    """A deterministic calendar-queue discrete-event simulator.

    Events dispatch in ``(time, priority, sequence)`` order, where
    ``sequence`` counts the events this simulator has created. The counter
    is pickled with the heap, so a simulator restored in another process
    breaks ties exactly as the original would have. The simulator
    knows nothing of rates: when shared hardware state changes,
    :meth:`repro.hw.machine.Machine.notify_change` re-solves contention and
    pushes the new rates; each task integrates its progress at the old
    rates as it adopts them, and its :class:`~repro.sim.work.FluidPool`
    re-arms its completion event.
    """

    def __init__(self) -> None:
        #: Current simulated time, in seconds. Only :meth:`run_until`
        #: moves it; read it, never assign it.
        self.now = 0.0
        #: Heap entries are ``(time, priority, sequence, event)`` tuples.
        #: The sequence is unique within this simulator, so a comparison
        #: never reaches the event, which defines no ordering of its own.
        self._heap: list[tuple[float, int, int, Event]] = []
        #: The sequence number of the next event created.
        self._sequence = 0
        self._running = False
        self._dispatched = 0
        self._cancelled_pending = 0
        self._compactions = 0
        #: :meth:`_note_cancel`, bound once and handed to every event.
        self._on_cancel = self._note_cancel

    # ------------------------------------------------------------------ time
    @property
    def dispatched_events(self) -> int:
        """Total events dispatched so far (diagnostics/testing)."""
        return self._dispatched

    @property
    def scheduled_events(self) -> int:
        """Total events scheduled so far: the sequence counter."""
        return self._sequence

    @property
    def pending_events(self) -> int:
        """Events currently in the heap, including dead (cancelled) ones."""
        return len(self._heap)

    @property
    def cancelled_pending(self) -> int:
        """Cancelled events still occupying heap slots."""
        return self._cancelled_pending

    @property
    def compactions(self) -> int:
        """How many times the heap has been compacted (diagnostics)."""
        return self._compactions

    # ------------------------------------------------------------ scheduling
    def at(
        self,
        time: float,
        callback: Callable[[], None],
        *,
        label: str = "",
        priority: int = PRIORITY_DEFAULT,
    ) -> Event:
        """Schedule ``callback`` at absolute simulated ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event {label!r} at {time} < now {self.now}"
            )
        sequence = self._sequence
        self._sequence = sequence + 1
        event = Event(time, priority, sequence, callback, label, self._on_cancel)
        heapq.heappush(self._heap, (time, priority, sequence, event))
        return event

    def after(
        self,
        delay: float,
        callback: Callable[[], None],
        *,
        label: str = "",
        priority: int = PRIORITY_DEFAULT,
    ) -> Event:
        """Schedule ``callback`` after a relative ``delay`` (>= 0).

        Inlines :meth:`at` — this is the hottest scheduling entry point
        (every phase completion and transfer reschedules through it).
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay} for event {label!r}")
        time = self.now + delay
        sequence = self._sequence
        self._sequence = sequence + 1
        event = Event(time, priority, sequence, callback, label, self._on_cancel)
        heapq.heappush(self._heap, (time, priority, sequence, event))
        return event

    def every(
        self,
        interval: float,
        callback: Callable[[], None],
        *,
        label: str = "",
        priority: int = PRIORITY_DEFAULT,
        start_after: float | None = None,
    ) -> Callable[[], None]:
        """Schedule ``callback`` periodically; returns a cancel function.

        The first firing happens after ``start_after`` (defaults to
        ``interval``). The period is fixed; the callback's own runtime is
        instantaneous in simulated time.
        """
        if interval <= 0:
            raise SimulationError(f"non-positive interval {interval} for {label!r}")
        task = PeriodicTask(self, interval, callback, label, priority)
        first = interval if start_after is None else start_after
        task.handle = self.after(first, task, label=label, priority=priority)
        return task.cancel

    # ----------------------------------------------------------- compaction
    def _note_cancel(self, event: Event) -> None:
        """Record one cancellation (every scheduled event's ``on_cancel``).

        Lazy cancellation keeps :meth:`Event.cancel` O(1) but leaves
        tombstones in the heap; long fleet runs that continually reschedule
        completion events would otherwise accumulate unbounded dead entries.
        When at least half of a non-trivial heap is cancelled, rebuilding it
        is amortized O(1) per cancellation.
        """
        self._cancelled_pending += 1
        heap_size = len(self._heap)
        if (
            heap_size >= _COMPACT_MIN_HEAP
            and self._cancelled_pending >= _COMPACT_FRACTION * heap_size
        ):
            self.compact()

    def compact(self) -> None:
        """Drop all cancelled events from the heap and re-heapify.

        Safe at any point: events order by ``(time, priority, sequence)``
        which is preserved by rebuilding, so dispatch order is unchanged.
        """
        if not self._cancelled_pending:
            return
        self._heap = [entry for entry in self._heap if not entry[3].cancelled]
        heapq.heapify(self._heap)
        self._cancelled_pending = 0
        self._compactions += 1

    # ---------------------------------------------------------------- run
    def run_until(self, end_time: float, *, max_events: int | None = None) -> None:
        """Dispatch events in order until simulated time reaches ``end_time``.

        Events scheduled exactly at ``end_time`` are executed. ``max_events``
        guards against runaway feedback loops in tests.
        """
        if self._running:
            raise SimulationError("run_until is not re-entrant")
        if end_time < self.now:
            raise SimulationError(
                f"end_time {end_time} is in the past (now={self.now})"
            )
        self._running = True
        budget = max_events
        try:
            while self._heap:
                if self._heap[0][0] > end_time:
                    break
                event = heapq.heappop(self._heap)[3]
                if event.cancelled:
                    if self._cancelled_pending > 0:
                        self._cancelled_pending -= 1
                    continue
                self.now = event.time
                # Out of the heap now: a later cancel() of this handle must
                # not count a heap tombstone.
                event.on_cancel = None
                event.callback()
                self._dispatched += 1
                if budget is not None:
                    budget -= 1
                    if budget <= 0:
                        raise SimulationError(
                            f"exceeded max_events={max_events} "
                            f"(last: {event.label!r} at t={event.time})"
                        )
            self.now = end_time
        finally:
            self._running = False

    def drain(self, labels: Iterable[str] = ()) -> int:
        """Cancel all pending events (optionally only matching labels).

        Returns the number of events cancelled. With no labels, everything
        pending is cancelled — used to tear a scenario down between runs.
        The walk already touched every heap entry, so the heap is compacted
        right after it.
        """
        wanted = set(labels)
        count = 0
        for _, _, _, event in self._heap:
            if event.cancelled:
                continue
            if not wanted or event.label in wanted:
                event.cancelled = True
                count += 1
        self._cancelled_pending += count
        self.compact()
        return count
