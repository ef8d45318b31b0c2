"""Tests for the Chrome trace-event builder."""

from __future__ import annotations

import json

from repro.control.records import ControlTickRecord
from repro.core.actions import Action
from repro.core.measurements import KelpMeasurements
from repro.obs.trace import ChromeTraceBuilder
from repro.sim.tracing import TimelineTracer


def make_tick(
    time: float = 1.0,
    action_hi: Action = Action.NOP,
    action_lo: Action = Action.THROTTLE,
) -> ControlTickRecord:
    return ControlTickRecord(
        time=time,
        measurements=KelpMeasurements(
            socket_bw=10.0, socket_latency=1.2, saturation=0.05,
            hipri_bw=5.0, elapsed=1.0,
        ),
        action_hi=action_hi,
        action_lo=action_lo,
        backfill_cores=2,
        lo_cores=8,
        lo_prefetchers=4,
    )


class TestChromeTraceBuilder:
    def test_complete_event_microseconds(self) -> None:
        builder = ChromeTraceBuilder()
        builder.add_complete("p", "t", "work", 1.0, 0.5)
        events = [e for e in builder.to_dict()["traceEvents"] if e["ph"] == "X"]
        (event,) = events
        assert event["ts"] == 1_000_000.0
        assert event["dur"] == 500_000.0

    def test_lane_metadata_emitted_once(self) -> None:
        builder = ChromeTraceBuilder()
        builder.add_complete("p", "t", "a", 0.0, 1.0)
        builder.add_complete("p", "t", "b", 1.0, 1.0)
        meta = [e for e in builder.to_dict()["traceEvents"] if e["ph"] == "M"]
        names = sorted(e["name"] for e in meta)
        assert names == ["process_name", "thread_name"]

    def test_distinct_processes_get_distinct_pids(self) -> None:
        builder = ChromeTraceBuilder()
        builder.add_complete("p1", "t", "a", 0.0, 1.0)
        builder.add_complete("p2", "t", "a", 0.0, 1.0)
        events = [e for e in builder.to_dict()["traceEvents"] if e["ph"] == "X"]
        assert events[0]["pid"] != events[1]["pid"]

    def test_len_excludes_metadata(self) -> None:
        builder = ChromeTraceBuilder()
        builder.add_complete("p", "t", "a", 0.0, 1.0)
        assert len(builder) == 1

    def test_add_intervals_preserves_detail(self) -> None:
        tracer = TimelineTracer()
        tracer.record("ml", "cpu", 0.0, 1.0)
        tracer.begin("ml", "tpu", 1.0)
        tracer.flush(2.0)
        builder = ChromeTraceBuilder()
        assert builder.add_intervals("run", tracer.intervals) == 2
        events = [e for e in builder.to_dict()["traceEvents"] if e["ph"] == "X"]
        truncated = [
            e for e in events
            if "truncated" in e.get("args", {}).get("detail", "")
        ]
        assert len(truncated) == 1

    def test_tick_records_become_counters_and_markers(self) -> None:
        builder = ChromeTraceBuilder()
        added = builder.add_tick_records(
            "run", [make_tick(action_lo=Action.THROTTLE)]
        )
        assert added == 1
        events = builder.to_dict()["traceEvents"]
        counters = [e for e in events if e["ph"] == "C"]
        instants = [e for e in events if e["ph"] == "i"]
        assert {e["name"] for e in counters} == {
            "controller knobs", "measurements"
        }
        assert [e["name"] for e in instants] == ["lo:throttle"]

    def test_nop_actions_emit_no_markers(self) -> None:
        builder = ChromeTraceBuilder()
        builder.add_tick_records(
            "run", [make_tick(action_hi=Action.NOP, action_lo=Action.NOP)]
        )
        events = builder.to_dict()["traceEvents"]
        assert not [e for e in events if e["ph"] == "i"]

    def test_write_round_trips(self, tmp_path) -> None:
        builder = ChromeTraceBuilder()
        builder.add_complete("p", "t", "a", 0.0, 1.0)
        builder.add_counter("p", "series", 0.5, {"x": 1.0})
        path = tmp_path / "trace.json"
        builder.write(path)
        loaded = json.loads(path.read_text())
        assert loaded["displayTimeUnit"] == "ms"
        assert len(loaded["traceEvents"]) == len(builder.to_dict()["traceEvents"])
