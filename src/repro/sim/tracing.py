"""Timeline tracing: records phase intervals for execution-timeline plots.

Figure 3 of the paper shows an RNN1 iteration broken into CPU-assist,
CPU-accelerator communication, and TPU-compute intervals, standalone vs under
a DRAM aggressor. :class:`TimelineTracer` captures exactly that: labelled
``(start, end)`` intervals per track.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class TraceInterval:
    """One labelled interval on a timeline track."""

    track: str
    kind: str
    start: float
    end: float
    detail: str = ""

    @property
    def duration(self) -> float:
        """Interval length in seconds."""
        return self.end - self.start


@dataclass
class TimelineTracer:
    """Collects :class:`TraceInterval` records."""

    intervals: list[TraceInterval] = field(default_factory=list)
    _open: dict[tuple[str, str], tuple[float, str]] = field(default_factory=dict)

    def begin(self, track: str, kind: str, now: float, detail: str = "") -> None:
        """Open an interval of ``kind`` on ``track`` at time ``now``."""
        self._open[(track, kind)] = (now, detail)

    def end(self, track: str, kind: str, now: float) -> None:
        """Close the matching open interval; silently ignores unmatched ends."""
        opened = self._open.pop((track, kind), None)
        if opened is None:
            return
        start, detail = opened
        self.intervals.append(
            TraceInterval(track=track, kind=kind, start=start, end=now, detail=detail)
        )

    def record(
        self, track: str, kind: str, start: float, end: float, detail: str = ""
    ) -> None:
        """Record a complete interval directly."""
        self.intervals.append(
            TraceInterval(track=track, kind=kind, start=start, end=end, detail=detail)
        )

    def flush(self, now: float) -> int:
        """Close every still-open interval at ``now``.

        In-flight phases at simulation end would otherwise be silently
        discarded, truncating the timeline. Flushed intervals are marked
        ``detail="truncated"`` (appended to any existing detail) so plots
        and exports can distinguish them from naturally completed phases.
        Returns the number of intervals closed.
        """
        if not self._open:
            return 0
        closed = 0
        # Sorted for deterministic interval order regardless of dict history.
        for (track, kind), (start, detail) in sorted(self._open.items()):
            mark = f"{detail};truncated" if detail else "truncated"
            self.intervals.append(
                TraceInterval(
                    track=track, kind=kind, start=start, end=max(now, start),
                    detail=mark,
                )
            )
            closed += 1
        self._open.clear()
        return closed

    def kinds(self) -> set[str]:
        """The set of interval kinds recorded so far."""
        return {i.kind for i in self.intervals}

    def total_time(self, track: str, kind: str) -> float:
        """Summed duration of all intervals of ``kind`` on ``track``."""
        return sum(
            i.duration for i in self.intervals if i.track == track and i.kind == kind
        )

    def clear(self) -> None:
        """Discard all recorded and open intervals."""
        self.intervals.clear()
        self._open.clear()
