"""Event objects and cancellation handles for the simulator."""

from __future__ import annotations

from typing import Callable


class Event:
    """A scheduled callback, doubling as its own cancellation handle.

    Events order by ``(time, priority, sequence)``. ``priority`` breaks ties
    between events at the same instant — lower runs first — which matters when
    a controller tick and a phase completion land on the same timestamp.
    ``sequence`` keeps ordering deterministic for equal (time, priority): the
    simulator numbers its own events in creation order, and the number
    travels with it through a pickle.

    A hand-rolled class rather than a dataclass, and handle-and-event in one
    object: the engine creates one per scheduled callback, which makes both
    construction cost and allocation count part of the simulator's per-event
    overhead.

    The engine never removes cancelled events from the heap eagerly; it skips
    them when they surface. Cancellation is therefore O(1). The engine may,
    however, *compact* the heap when cancelled events pile up — it learns
    about cancellations through the ``on_cancel`` hook so it can keep an
    exact count without scanning.
    """

    __slots__ = (
        "time",
        "priority",
        "sequence",
        "callback",
        "label",
        "cancelled",
        "on_cancel",
    )

    def __init__(
        self,
        time: float,
        priority: int,
        sequence: int,
        callback: Callable[[], None],
        label: str = "",
        on_cancel: "Callable[[Event], None] | None" = None,
    ) -> None:
        self.time = time
        self.priority = priority
        self.sequence = sequence
        self.callback = callback
        self.label = label
        self.cancelled = False
        self.on_cancel = on_cancel

    def cancel(self) -> None:
        """Prevent the callback from running. Idempotent."""
        if self.cancelled:
            return
        self.cancelled = True
        if self.on_cancel is not None:
            self.on_cancel(self)

    def __repr__(self) -> str:
        return (
            f"Event(time={self.time!r}, priority={self.priority!r}, "
            f"sequence={self.sequence!r}, label={self.label!r}, "
            f"cancelled={self.cancelled!r})"
        )
