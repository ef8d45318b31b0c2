"""Tests for timeline tracing."""

from __future__ import annotations

import pytest

from repro.sim.tracing import TimelineTracer


class TestTimelineTracer:
    def test_begin_end_records_interval(self) -> None:
        tracer = TimelineTracer()
        tracer.begin("t", "cpu", 1.0)
        tracer.end("t", "cpu", 2.5)
        (interval,) = tracer.intervals
        assert interval.duration == pytest.approx(1.5)
        assert interval.kind == "cpu"

    def test_unmatched_end_is_ignored(self) -> None:
        tracer = TimelineTracer()
        tracer.end("t", "cpu", 2.0)
        assert tracer.intervals == []

    def test_record_direct(self) -> None:
        tracer = TimelineTracer()
        tracer.record("t", "tpu", 0.0, 1.0)
        assert tracer.total_time("t", "tpu") == pytest.approx(1.0)

    def test_total_time_sums_by_kind(self) -> None:
        tracer = TimelineTracer()
        tracer.record("t", "cpu", 0.0, 1.0)
        tracer.record("t", "cpu", 2.0, 2.5)
        tracer.record("t", "tpu", 1.0, 2.0)
        assert tracer.total_time("t", "cpu") == pytest.approx(1.5)

    def test_kinds(self) -> None:
        tracer = TimelineTracer()
        tracer.record("t", "cpu", 0.0, 1.0)
        tracer.record("t", "tpu", 1.0, 2.0)
        assert tracer.kinds() == {"cpu", "tpu"}

    def test_flush_closes_open_intervals(self) -> None:
        """Regression: intervals still open at run end used to be dropped."""
        tracer = TimelineTracer()
        tracer.begin("t", "cpu", 1.0)
        tracer.begin("t", "tpu", 2.0)
        assert tracer.flush(5.0) == 2
        assert len(tracer.intervals) == 2
        by_kind = {i.kind: i for i in tracer.intervals}
        assert by_kind["cpu"].start == 1.0
        assert by_kind["cpu"].end == 5.0
        assert by_kind["cpu"].detail == "truncated"
        assert by_kind["tpu"].duration == pytest.approx(3.0)

    def test_flush_preserves_existing_detail(self) -> None:
        tracer = TimelineTracer()
        tracer.begin("t", "cpu", 0.0, detail="step-3")
        tracer.flush(1.0)
        (interval,) = tracer.intervals
        assert interval.detail == "step-3;truncated"

    def test_flush_with_nothing_open_is_a_noop(self) -> None:
        tracer = TimelineTracer()
        tracer.record("t", "cpu", 0.0, 1.0)
        assert tracer.flush(2.0) == 0
        assert len(tracer.intervals) == 1

    def test_flush_is_terminal_for_the_open_set(self) -> None:
        tracer = TimelineTracer()
        tracer.begin("t", "cpu", 0.0)
        tracer.flush(1.0)
        # The matching end now has no open interval to close.
        tracer.end("t", "cpu", 2.0)
        assert len(tracer.intervals) == 1

    def test_flush_never_produces_negative_durations(self) -> None:
        tracer = TimelineTracer()
        tracer.begin("t", "cpu", 3.0)
        tracer.flush(1.0)  # flush time before begin: clamp, don't invert
        (interval,) = tracer.intervals
        assert interval.duration == 0.0

    def test_clear(self) -> None:
        tracer = TimelineTracer()
        tracer.record("t", "cpu", 0.0, 1.0)
        tracer.begin("t", "tpu", 1.0)
        tracer.clear()
        tracer.end("t", "tpu", 2.0)
        assert tracer.intervals == []
