"""Event objects and cancellation handles for the simulator."""

from __future__ import annotations

import itertools
from typing import Callable

_SEQUENCE = itertools.count()


class Event:
    """A scheduled callback, doubling as its own cancellation handle.

    Events order by ``(time, priority, sequence)``. ``priority`` breaks ties
    between events at the same instant — lower runs first — which matters when
    a controller tick and a phase completion land on the same timestamp.
    ``sequence`` keeps ordering deterministic for equal (time, priority).

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
        callback: Callable[[], None],
        label: str = "",
        on_cancel: "Callable[[Event], None] | None" = None,
    ) -> None:
        self.time = time
        self.priority = priority
        self.sequence = next(_SEQUENCE)
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

    def _key(self) -> tuple[float, int, int]:
        return (self.time, self.priority, self.sequence)

    def __lt__(self, other: "Event") -> bool:
        return self._key() < other._key()

    def __le__(self, other: "Event") -> bool:
        return self._key() <= other._key()

    def __gt__(self, other: "Event") -> bool:
        return self._key() > other._key()

    def __ge__(self, other: "Event") -> bool:
        return self._key() >= other._key()

    def __repr__(self) -> str:
        return (
            f"Event(time={self.time!r}, priority={self.priority!r}, "
            f"sequence={self.sequence!r}, label={self.label!r}, "
            f"cancelled={self.cancelled!r})"
        )
