"""Tests for machine assembly and the recompute loop."""

from __future__ import annotations

import pytest

from repro.errors import TopologyError
from repro.hw.contention import SolveResult, TrafficSource
from repro.hw.machine import Machine
from repro.sim import Simulator


class RecordingTask:
    """Minimal AttachedTask capturing the rates it receives: a task id,
    its traffic sources and ``apply_rates``, the whole contract."""

    def __init__(self, task_id: str = "t", demand: float = 10.0) -> None:
        self.task_id = task_id
        self.demand = demand
        self.rates: list[SolveResult] = []

    def traffic_sources(self) -> list[TrafficSource]:
        return [
            TrafficSource(
                source_id=f"{self.task_id}:host",
                task_id=self.task_id,
                demand_gbps=self.demand,
                mem_weights={0: 1.0},
                cores=frozenset({0, 1}),
                threads=2,
            )
        ]

    def apply_rates(self, result: SolveResult, now: float) -> None:
        self.rates.append(result)


class TestAttachDetach:
    def test_attach_triggers_solve(self, machine: Machine) -> None:
        task = RecordingTask()
        machine.attach(task)
        assert len(task.rates) == 1
        assert machine.state.mc_loads[0].demand_gbps > 0

    def test_duplicate_attach_rejected(self, machine: Machine) -> None:
        machine.attach(RecordingTask("a"))
        with pytest.raises(TopologyError):
            machine.attach(RecordingTask("a"))

    def test_detach_removes_sources(self, machine: Machine) -> None:
        machine.attach(RecordingTask("a"))
        machine.detach("a")
        assert machine.state.mc_loads[0].demand_gbps == 0

    def test_detach_unknown_raises(self, machine: Machine) -> None:
        with pytest.raises(TopologyError):
            machine.detach("ghost")

    def test_task_lookup(self, machine: Machine) -> None:
        task = RecordingTask("a")
        machine.attach(task)
        assert machine.task("a") is task
        assert machine.tasks() == [task]
        with pytest.raises(TopologyError):
            machine.task("b")


class TestRecompute:
    def test_task_without_sync_receives_rates(self, machine: Machine) -> None:
        task = RecordingTask()
        assert not hasattr(task, "sync")
        machine.attach(task)
        machine.sim.run_until(1.0)
        machine.notify_change()
        assert len(task.rates) >= 2

    def test_two_tasks_see_each_other(self, machine: Machine) -> None:
        a = RecordingTask("a", demand=30.0)
        machine.attach(a)
        grant_alone = machine.state.rates_for("a:host").bw_grant
        machine.attach(RecordingTask("b", demand=30.0))
        grant_shared = machine.state.rates_for("a:host").bw_grant
        assert grant_shared <= grant_alone

    def test_snc_toggle_resolves(self, machine: Machine) -> None:
        machine.attach(RecordingTask())
        before = len(machine.state.source_rates)
        machine.set_snc(True)
        assert machine.snc_enabled
        assert len(machine.state.source_rates) == before

    def test_priority_mode_toggle(self, machine: Machine) -> None:
        machine.set_priority_mode(True)
        assert machine.solver.priority_mode


class TestTelemetryIntegration:
    def test_bandwidth_integrates_over_time(self, spec) -> None:
        sim = Simulator()
        machine = Machine(spec, sim)
        machine.attach(RecordingTask(demand=10.0))
        sim.run_until(2.0)
        machine.telemetry.advance(sim.now)
        moved = machine.telemetry.snapshot.mc_bytes.get(0, 0.0)
        # 10 GB/s (plus prefetch inflation) for 2 s.
        assert moved == pytest.approx(10.0 * 1.3 * 2.0, rel=0.01)
