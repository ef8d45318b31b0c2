"""Parked fleet members vs the eager reference path (``REPRO_REFERENCE=1``).

A quiescent member parks: it skips its control ticks and telemetry samples
and replays them exactly when something needs them. Reference mode turns
parking off (with every other fast path), so each case here runs twice and
must match bit for bit: summaries, telemetry rows, controller and
actuation rows, incident alarms and remediations, and checkpoints restored
in a fresh process.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet.member import PARK_HORIZON_TICKS
from repro.fleet.orchestrator import (
    FleetOrchestrator,
    FleetResult,
    fleet_config_for_trace,
)
from repro.reference import REFERENCE_ENV, reference_mode
from repro.serve import FleetService
from repro.traces import TraceGenConfig, generate_trace
from repro.traces.schema import Trace, TraceFamily, TraceTenant

_SRC = Path(__file__).resolve().parents[2] / "src"


@contextmanager
def _mode(reference: bool):
    """Run the block with reference mode on or off, whatever the caller's env."""
    saved = os.environ.pop(REFERENCE_ENV, None)
    if reference:
        os.environ[REFERENCE_ENV] = "1"
    try:
        yield
    finally:
        os.environ.pop(REFERENCE_ENV, None)
        if saved is not None:
            os.environ[REFERENCE_ENV] = saved


def _replay(config, trace, reference: bool, **kwargs) -> FleetResult:
    with _mode(reference):
        return FleetOrchestrator(config, trace=trace, **kwargs).run()


def _artifacts(result: FleetResult) -> dict:
    return {
        "summary": result.summary(),
        "telemetry": result.telemetry,
        "controller": result.controller,
        "actuation": result.actuation,
        "ticks": result.ticks_run + result.ticks_elided,
    }


def _assert_matches(
    parked: FleetResult, eager: FleetResult, *, fewer_events: bool = True
) -> None:
    """Identical outputs; a parked member's loop leaves the event heap, so
    the parked run dispatches no more events, and (``fewer_events``) fewer
    once any member parked. A park that begins at the member's own tick and
    ends before its next one saves no event, so the hypothesis sweep,
    whose parks may all be that short, asks for ``<=`` only."""
    assert eager.ticks_elided == 0
    assert _artifacts(parked) == _artifacts(eager)
    assert parked.events_dispatched <= eager.events_dispatched
    if fewer_events and parked.ticks_elided:
        assert parked.events_dispatched < eager.events_dispatched


def _assert_identical(config, trace, *, fewer_events: bool = True) -> FleetResult:
    parked = _replay(config, trace, reference=False)
    _assert_matches(
        parked, _replay(config, trace, reference=True), fewer_events=fewer_events
    )
    return parked


def _trace(arrivals: tuple[float, ...], duration: float) -> Trace:
    return Trace(
        arrivals_s=np.asarray(arrivals, dtype=np.float64),
        tenant_ids=np.zeros(len(arrivals), dtype=np.int32),
        family_ids=np.zeros(len(arrivals), dtype=np.int32),
        tenants=(TraceTenant("search"),),
        families=(TraceFamily("query"),),
        duration_s=duration,
    )


class TestReferenceSwitch:
    def test_reads_the_environment(self) -> None:
        with _mode(True):
            assert reference_mode()
        with _mode(False):
            assert not reference_mode()

    def test_reference_mode_never_parks(self) -> None:
        trace = _trace((), 60.0)
        config = fleet_config_for_trace(trace, nodes=2, interval=5.0)
        result = _replay(config, trace, reference=True)
        assert result.ticks_elided == 0
        assert result.ticks_run == 2 * 12

    def test_counters_stay_out_of_the_summary(self) -> None:
        trace = _trace((), 60.0)
        config = fleet_config_for_trace(trace, nodes=2, interval=5.0)
        summary = _replay(config, trace, reference=False).summary()
        assert not any("tick" in key for key in summary)


class TestTraceReplay:
    @pytest.mark.parametrize("routing", ["least-loaded", "interference-aware"])
    def test_64_nodes_with_telemetry(self, routing) -> None:
        trace = generate_trace(
            TraceGenConfig(seed=5, duration_s=600.0, rate_qps=2.0)
        )
        config = fleet_config_for_trace(
            trace, nodes=64, interval=10.0, routing=routing, seed=2
        )
        parked = _assert_identical(config, trace)
        # Most of an idle fleet's ticks were skipped, not run.
        assert parked.ticks_elided > 4 * parked.ticks_run

    def test_tick_counts_sum_to_the_eager_count(self) -> None:
        trace = generate_trace(
            TraceGenConfig(seed=9, duration_s=300.0, rate_qps=1.0)
        )
        config = fleet_config_for_trace(trace, nodes=8, interval=5.0)
        parked = _replay(config, trace, reference=False, collect_telemetry=False)
        eager = _replay(config, trace, reference=True, collect_telemetry=False)
        assert parked.ticks_elided > 0
        assert parked.ticks_run + parked.ticks_elided == eager.ticks_run
        assert parked.summary() == eager.summary()


class TestArrivalTiming:
    @pytest.mark.parametrize(
        "arrivals",
        [(30.0,), (45.5,), (30.0, 30.0, 45.5, 90.0)],
        ids=["on-grid", "between-grid", "mixed"],
    )
    def test_wake_on_arrival(self, arrivals) -> None:
        """A request lands on a parked member exactly at a grid time
        (after that instant's skipped policy tick, before its skipped
        sample) or between grid points."""
        trace = _trace(arrivals, 120.0)
        config = fleet_config_for_trace(trace, nodes=2, interval=10.0)
        parked = _assert_identical(config, trace)
        assert parked.completed_total == len(arrivals)
        assert parked.ticks_elided > 0


class TestPredicate:
    def _fleet(self, arrivals: tuple[float, ...]) -> FleetOrchestrator:
        trace = _trace(arrivals, 60.0)
        config = fleet_config_for_trace(trace, nodes=1, interval=10.0)
        with _mode(False):
            orchestrator = FleetOrchestrator(config, trace=trace)
            orchestrator.setup()
        return orchestrator

    def test_parks_only_once_both_windows_are_pure(self) -> None:
        """A request served at t=15 leaves the policy tick at t=20 with a
        pure next window, but the fleet sample at t=20 still covers t=15:
        the member parks only at its next read after that sample, the
        policy tick at t=30."""
        orchestrator = self._fleet((15.0,))
        member = orchestrator.members[0]
        seen: dict[float, bool] = {}

        def probe() -> None:
            seen[orchestrator._sim.now] = member.park is not None

        # At t=20, between the policy tick (priority 10) and the sample (30).
        for at in (5.0, 20.0, 25.0, 35.0):
            orchestrator._sim.at(at, probe)
        orchestrator.advance(40.0)
        assert seen == {5.0: False, 20.0: False, 25.0: False, 35.0: True}

    def test_pressure_bucket_must_match_the_last_sample(self) -> None:
        orchestrator = self._fleet(())
        orchestrator.advance(25.0)
        member = orchestrator.members[0]
        assert member.park is not None
        member.wake()
        real = member.last_signals
        member._last_signals = replace(real, saturation=0.2)
        member._maybe_park()
        assert member.park is None
        member._last_signals = real
        member._maybe_park()
        assert member.park is not None

    def test_blackout_wakes_the_member(self) -> None:
        """A blackout touches no telemetry, so it must wake explicitly: a
        blacked-out member re-exports its last snapshot instead of reading."""
        orchestrator = self._fleet(())
        orchestrator.advance(25.0)
        member = orchestrator.members[0]
        assert member.park is not None
        member.begin_blackout(45.0)
        assert member.park is None
        orchestrator.advance(40.0)
        assert member.last_signals.time == 20.0
        orchestrator.advance(50.0)
        assert member.last_signals.time == 50.0

    def test_loop_changes_wake_the_member(self) -> None:
        """A governor swap and a new fault window touch no telemetry
        either: the control loop catches up first."""
        orchestrator = self._fleet(())
        member = orchestrator.members[0]
        policy = member.policy
        orchestrator.advance(25.0)
        assert member.park is not None
        policy.loop.governor = policy.loop.governor
        assert member.park is None
        orchestrator.advance(45.0)
        assert member.park is not None
        policy.add_fault_window(100.0, 110.0)
        assert member.park is None
        orchestrator.advance(55.0)
        assert member.park is None


class TestWakeInsideTheSampleLoop:
    def test_index_compaction_on_every_sample(self, monkeypatch) -> None:
        """The interference-aware index keys on ``last_signals``, so a
        compaction inside the fleet's sampling loop wakes every parked
        member, some before the loop reaches them. Each must still take
        this instant's sample once: its telemetry rows stay in step."""
        from repro.fleet.index import RoutingIndex

        on_member_event = RoutingIndex.on_member_event

        def compacting(index, member, kind) -> None:
            on_member_event(index, member, kind)
            if kind == "signals":
                index._compact()

        monkeypatch.setattr(RoutingIndex, "on_member_event", compacting)
        trace = generate_trace(
            TraceGenConfig(seed=5, duration_s=300.0, rate_qps=1.0)
        )
        config = fleet_config_for_trace(
            trace, nodes=16, interval=10.0, routing="interference-aware", seed=2
        )
        parked = _assert_identical(config, trace)
        assert parked.ticks_elided > 0


class TestHorizon:
    def test_a_park_ends_at_the_horizon(self) -> None:
        """Requests only in the first minute of a 20-minute trace: the idle
        member parks for PARK_HORIZON_TICKS intervals (512 s) at a time,
        runs one real tick just after each horizon, and parks again."""
        interval = 0.5
        trace = _trace(tuple(np.linspace(1.0, 59.0, 30)), 1200.0)
        config = fleet_config_for_trace(trace, nodes=1, interval=interval)
        real: list[float] = []
        with _mode(False):
            orchestrator = FleetOrchestrator(config, trace=trace)
            orchestrator.setup()
            policy = orchestrator.members[0].policy
            tick = policy.tick

            def recorded() -> None:
                real.append(orchestrator._sim.now)
                tick()

            policy.tick = recorded
            orchestrator.advance(config.duration)
            parked = orchestrator.finish()
        _assert_matches(parked, _replay(config, trace, reference=True))
        span = (PARK_HORIZON_TICKS + 1) * interval
        late = [t for t in real if t > 60.0 + interval]
        assert len(late) == 2
        assert late[0] < 60.0 + span + interval
        assert late[1] - late[0] == span
        assert config.duration - late[1] < span


_SCALE_GEN = TraceGenConfig(seed=3, duration_s=300.0, rate_qps=2.0)


@pytest.fixture(scope="module")
def scale_trace() -> Trace:
    return generate_trace(_SCALE_GEN)


def _scale_config(trace: Trace, nodes: int):
    return fleet_config_for_trace(trace, nodes=nodes, interval=10.0, seed=1)


@pytest.fixture(scope="module")
def parked_1024(scale_trace) -> FleetResult:
    return _replay(_scale_config(scale_trace, 1024), scale_trace, reference=False)


class TestScale:
    def test_1024_nodes(self, scale_trace, parked_1024) -> None:
        eager = _replay(_scale_config(scale_trace, 1024), scale_trace, reference=True)
        _assert_matches(parked_1024, eager)

    def test_events_follow_requests_not_nodes(self, scale_trace, parked_1024) -> None:
        """Each member past the 16th costs at most two events: an idle
        member runs its first real tick, then leaves the heap."""
        small = _replay(_scale_config(scale_trace, 16), scale_trace, reference=False)
        extra = parked_1024.events_dispatched - small.events_dispatched
        assert extra <= 2 * (1024 - 16)


class TestIncidents:
    def test_death_blackout_and_stuck_actuator(self) -> None:
        from repro.experiments.fleet_incidents import run_fleet_incidents

        def run(reference: bool) -> dict:
            with _mode(reference):
                return run_fleet_incidents(
                    gen=TraceGenConfig(seed=4, duration_s=600.0, rate_qps=2.0),
                    classes=("node-death", "telemetry-blackout", "stuck-actuator"),
                    nodes=4,
                    interval=10.0,
                    warmup=20.0,
                    seed=3,
                ).artifact()

        parked, eager = run(False), run(True)
        assert parked == eager
        rem = parked["exports"][0]["rem"]
        assert rem["alarms"] and rem["remediations"]
        kinds = {incident["kind"] for incident in parked["scenario"]["incidents"]}
        assert kinds == {"node-death", "telemetry-blackout", "stuck-actuator"}

    def test_hooked_run_with_telemetry(self) -> None:
        # The fleet-incidents family collects no telemetry rows; the same
        # schedule on a plain hooked replay must match them too.
        from repro.fleet.orchestrator import run_fleet
        from repro.incidents.engine import IncidentEngine
        from repro.incidents.faults import default_schedule

        trace = generate_trace(
            TraceGenConfig(seed=4, duration_s=600.0, rate_qps=2.0)
        )
        config = fleet_config_for_trace(
            trace, nodes=4, routing="random", interval=10.0, warmup=20.0,
            seed=3,
        )
        schedule = default_schedule(
            config.duration, config.nodes, seed=3,
            classes=("node-death", "telemetry-blackout", "stuck-actuator"),
        )

        def run(reference: bool) -> tuple[FleetResult, dict]:
            engine = IncidentEngine(schedule, remediate=True)
            with _mode(reference):
                result = run_fleet(config, trace=trace, hooks=engine)
            return result, engine.export()

        (parked, parked_export), (eager, eager_export) = run(False), run(True)
        assert parked.ticks_elided > 0
        assert parked.telemetry
        _assert_matches(parked, eager, fewer_events=False)
        assert parked_export == eager_export


_GEN = TraceGenConfig(seed=8, duration_s=240.0, rate_qps=0.5)


def _service_outcome(service: FleetService) -> dict:
    result = service.finish()
    return {
        "summary": result.summary(),
        "snapshots": [s.as_dict() for s in service.snapshots],
        "commands": [list(row) for row in service.commands],
    }


class TestCheckpoint:
    def test_parked_checkpoint_restores_in_fresh_process(self, tmp_path) -> None:
        trace = generate_trace(_GEN)
        config = fleet_config_for_trace(trace, nodes=24, interval=5.0, seed=6)
        path = tmp_path / "ckpt.bin"
        out = tmp_path / "restored.json"

        with _mode(False):
            service = FleetService(config, trace=trace, epoch_s=10.0)
            service.start()
            saved_at = None
            while not service.done:
                service.step()
                members = service.orchestrator.members
                parked = sum(m.park is not None for m in members) / len(members)
                if saved_at is None and service.epoch >= 3 and parked >= 0.9:
                    service.save(str(path))
                    saved_at = service.epoch
            assert saved_at is not None, "the fleet never reached 90% parked"
            original = _service_outcome(service)

        with _mode(True):
            eager = FleetService(config, trace=trace, epoch_s=10.0)
            eager.start()
            while not eager.done:
                eager.step()
            reference = _service_outcome(eager)

        code = f"""
import json
from repro.serve import FleetService
from repro.traces import TraceGenConfig, generate_trace

trace = generate_trace(TraceGenConfig(
    seed={_GEN.seed}, duration_s={_GEN.duration_s}, rate_qps={_GEN.rate_qps},
))
service = FleetService.restore({str(path)!r}, trace=trace)
while not service.done:
    service.step()
result = service.finish()
payload = {{
    "summary": result.summary(),
    "snapshots": [s.as_dict() for s in service.snapshots],
    "commands": [list(row) for row in service.commands],
}}
with open({str(out)!r}, "w") as handle:
    json.dump(payload, handle)
"""
        env = {k: v for k, v in os.environ.items() if k != REFERENCE_ENV}
        env["PYTHONPATH"] = str(_SRC)
        subprocess.run([sys.executable, "-c", code], check=True, env=env)
        restored = json.loads(out.read_text())
        expected = json.loads(json.dumps(original))
        assert restored == expected
        assert json.loads(json.dumps(reference)) == expected


class TestSweep:
    @settings(max_examples=12, deadline=None)
    @given(
        rate=st.sampled_from([0.02, 0.1, 0.5, 2.0]),
        nodes=st.integers(min_value=1, max_value=6),
        interval=st.sampled_from([0.5, 1.0, 2.5, 7.0]),
        seed=st.integers(min_value=0, max_value=40),
    )
    def test_parked_matches_eager(self, rate, nodes, interval, seed) -> None:
        trace = generate_trace(
            TraceGenConfig(seed=seed, duration_s=120.0, rate_qps=rate)
        )
        config = fleet_config_for_trace(
            trace, nodes=nodes, interval=interval, seed=seed
        )
        _assert_identical(config, trace, fewer_events=False)
