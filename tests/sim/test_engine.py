"""Tests for the discrete-event engine."""

from __future__ import annotations

import pickle
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator


class TestScheduling:
    def test_events_run_in_time_order(self, sim: Simulator) -> None:
        order: list[str] = []
        sim.at(2.0, lambda: order.append("b"))
        sim.at(1.0, lambda: order.append("a"))
        sim.at(3.0, lambda: order.append("c"))
        sim.run_until(5.0)
        assert order == ["a", "b", "c"]

    def test_now_advances_to_event_time(self, sim: Simulator) -> None:
        seen: list[float] = []
        sim.at(1.5, lambda: seen.append(sim.now))
        sim.run_until(10.0)
        assert seen == [1.5]
        assert sim.now == 10.0

    def test_after_is_relative(self, sim: Simulator) -> None:
        times: list[float] = []
        sim.at(1.0, lambda: sim.after(0.5, lambda: times.append(sim.now)))
        sim.run_until(2.0)
        assert times == [pytest.approx(1.5)]

    def test_priority_breaks_ties(self, sim: Simulator) -> None:
        order: list[str] = []
        sim.at(1.0, lambda: order.append("low-prio"), priority=30)
        sim.at(1.0, lambda: order.append("high-prio"), priority=10)
        sim.run_until(2.0)
        assert order == ["high-prio", "low-prio"]

    def test_equal_priority_is_fifo(self, sim: Simulator) -> None:
        order: list[int] = []
        for i in range(5):
            sim.at(1.0, lambda i=i: order.append(i))
        sim.run_until(2.0)
        assert order == [0, 1, 2, 3, 4]

    def test_scheduling_in_past_raises(self, sim: Simulator) -> None:
        sim.run_until(5.0)
        with pytest.raises(SimulationError):
            sim.at(1.0, lambda: None)

    def test_negative_delay_raises(self, sim: Simulator) -> None:
        with pytest.raises(SimulationError):
            sim.after(-0.1, lambda: None)

    def test_event_at_end_time_runs(self, sim: Simulator) -> None:
        fired: list[bool] = []
        sim.at(5.0, lambda: fired.append(True))
        sim.run_until(5.0)
        assert fired == [True]

    def test_event_beyond_end_time_does_not_run(self, sim: Simulator) -> None:
        fired: list[bool] = []
        sim.at(5.1, lambda: fired.append(True))
        sim.run_until(5.0)
        assert fired == []
        sim.run_until(6.0)
        assert fired == [True]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim: Simulator) -> None:
        fired: list[bool] = []
        handle = sim.at(1.0, lambda: fired.append(True))
        handle.cancel()
        sim.run_until(2.0)
        assert fired == []
        assert handle.cancelled

    def test_cancel_is_idempotent(self, sim: Simulator) -> None:
        handle = sim.at(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert handle.cancelled

    def test_drain_cancels_pending(self, sim: Simulator) -> None:
        fired: list[bool] = []
        sim.at(1.0, lambda: fired.append(True), label="x")
        sim.at(2.0, lambda: fired.append(True), label="y")
        assert sim.drain() == 2
        sim.run_until(3.0)
        assert fired == []

    def test_drain_by_label(self, sim: Simulator) -> None:
        fired: list[str] = []
        sim.at(1.0, lambda: fired.append("x"), label="x")
        sim.at(2.0, lambda: fired.append("y"), label="y")
        assert sim.drain(["x"]) == 1
        sim.run_until(3.0)
        assert fired == ["y"]


class TestPeriodic:
    def test_every_fires_on_interval(self, sim: Simulator) -> None:
        times: list[float] = []
        sim.every(1.0, lambda: times.append(sim.now))
        sim.run_until(3.5)
        assert times == [pytest.approx(1.0), pytest.approx(2.0), pytest.approx(3.0)]

    def test_every_cancel_stops(self, sim: Simulator) -> None:
        times: list[float] = []
        cancel = sim.every(1.0, lambda: times.append(sim.now))
        sim.at(2.5, cancel)
        sim.run_until(10.0)
        assert times == [pytest.approx(1.0), pytest.approx(2.0)]

    def test_every_with_custom_start(self, sim: Simulator) -> None:
        times: list[float] = []
        sim.every(1.0, lambda: times.append(sim.now), start_after=0.2)
        sim.run_until(2.5)
        assert times == [pytest.approx(0.2), pytest.approx(1.2), pytest.approx(2.2)]

    def test_non_positive_interval_raises(self, sim: Simulator) -> None:
        with pytest.raises(SimulationError):
            sim.every(0.0, lambda: None)


class TestGuards:
    def test_max_events_guard(self, sim: Simulator) -> None:
        def reschedule() -> None:
            sim.after(0.001, reschedule)

        sim.after(0.001, reschedule)
        with pytest.raises(SimulationError, match="max_events"):
            sim.run_until(100.0, max_events=50)

    def test_run_until_past_raises(self, sim: Simulator) -> None:
        sim.run_until(5.0)
        with pytest.raises(SimulationError):
            sim.run_until(4.0)


class TestHeapCompaction:
    def test_cancel_storm_triggers_compaction(self, sim: Simulator) -> None:
        handles = [sim.at(float(i + 1), lambda: None) for i in range(200)]
        assert sim.pending_events == 200
        for handle in handles[:150]:
            handle.cancel()
        # More than half the heap was dead; it must have been compacted.
        assert sim.compactions >= 1
        assert sim.cancelled_pending == 0
        assert sim.pending_events == 50

    def test_compaction_preserves_dispatch_order(self, sim: Simulator) -> None:
        order: list[int] = []
        handles = []
        for i in range(200):
            def cb(i: int = i) -> None:
                order.append(i)
            handles.append(sim.at(float(i + 1), cb))
        for handle in handles[::2]:  # cancel every even event
            handle.cancel()
        assert sim.compactions >= 1
        sim.run_until(300.0)
        assert order == list(range(1, 200, 2))

    def test_drain_compacts(self, sim: Simulator) -> None:
        for i in range(100):
            sim.at(float(i + 1), lambda: None, label="bulk")
        assert sim.drain(["bulk"]) == 100
        assert sim.cancelled_pending == 0
        assert sim.pending_events == 0
        assert sim.compactions >= 1

    def test_small_heaps_stay_lazy(self, sim: Simulator) -> None:
        handles = [sim.at(float(i + 1), lambda: None) for i in range(10)]
        for handle in handles:
            handle.cancel()
        # Below the compaction floor: tombstones stay until dispatch.
        assert sim.compactions == 0
        assert sim.cancelled_pending == 10
        sim.run_until(20.0)
        assert sim.cancelled_pending == 0

    def test_manual_compact_noop_when_clean(self, sim: Simulator) -> None:
        sim.at(1.0, lambda: None)
        sim.compact()
        assert sim.compactions == 0
        assert sim.pending_events == 1

    def test_dispatched_events_counts(self, sim: Simulator) -> None:
        for t in (1.0, 2.0, 3.0):
            sim.at(t, lambda: None)
        sim.run_until(10.0)
        assert sim.dispatched_events == 3

    def test_scheduled_events_counts(self, sim: Simulator) -> None:
        for t in (1.0, 2.0, 3.0):
            sim.at(t, lambda: None).cancel()
        assert sim.scheduled_events == 3

    def test_cancelling_a_fired_event_counts_no_tombstone(
        self, sim: Simulator
    ) -> None:
        fired = sim.at(1.0, lambda: None)
        sim.at(2.0, lambda: None)
        sim.run_until(1.5)
        fired.cancel()
        assert sim.cancelled_pending == 0

    def test_tombstones_counted_exactly_after_rnn1_colocation(
        self, monkeypatch
    ) -> None:
        from repro.experiments import common

        sims: list[Simulator] = []

        class Recording(Simulator):
            def __init__(self) -> None:
                super().__init__()
                sims.append(self)

        monkeypatch.setattr(common, "Simulator", Recording)
        common.run_colocation(
            common.MixConfig(
                ml="rnn1", policy="KP", cpu="stream", intensity=12, duration=8.0
            )
        )
        assert sims
        for sim in sims:
            tombstones = sum(1 for entry in sim._heap if entry[3].cancelled)
            assert sim.cancelled_pending == tombstones


class TestPickling:
    def test_fresh_process_keeps_tie_break_order(self, tmp_path) -> None:
        """A simulator unpickled in a new interpreter orders a new event
        behind a pending one at the same (time, priority), as the original
        simulator would."""
        log: list[str] = []
        sim = Simulator()
        sim.at(1.0, partial(log.append, "zero"))
        sim.run_until(2.0)
        sim.at(5.0, partial(log.append, "first"))
        path = tmp_path / "sim.pkl"
        path.write_bytes(pickle.dumps((sim, log)))
        code = f"""
import pickle
from functools import partial
with open({str(path)!r}, "rb") as handle:
    sim, log = pickle.load(handle)
sim.at(5.0, partial(log.append, "second"))
sim.run_until(10.0)
print(log)
"""
        src = Path(__file__).resolve().parents[2] / "src"
        out = subprocess.run(
            [sys.executable, "-c", code],
            check=True,
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
        )
        assert out.stdout.strip() == "['zero', 'first', 'second']"
