"""Tests for batch CPU tasks."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.hw.machine import Machine
from repro.hw.placement import Placement
from repro.workloads.cpu.base import BatchTask
from repro.workloads.cpu.catalog import cpu_workload
from repro.workloads.cpu.stream import stream_profile


def make_task(machine: Machine, threads: int = 4, cores: int = 8) -> BatchTask:
    placement = Placement(
        cores=frozenset(range(4, 4 + cores)), mem_weights={0: 0.5, 1: 0.5}
    )
    return BatchTask("b", machine, placement, stream_profile(threads))


class TestBatchTask:
    def test_standalone_throughput_matches_nominal(self, machine: Machine) -> None:
        task = make_task(machine, threads=2)
        task.start()
        machine.sim.run_until(10.0)
        # 2 threads at 1 unit/s each: light load, full speed.
        assert task.throughput(10.0) == pytest.approx(2.0, rel=0.05)

    def test_more_threads_than_cores_caps_throughput(self, machine: Machine) -> None:
        task = make_task(machine, threads=4, cores=2)
        task.start()
        machine.sim.run_until(10.0)
        assert task.throughput(10.0) <= 2.6  # ~2 cores' worth + slack

    def test_contention_reduces_throughput(self, machine: Machine) -> None:
        a = make_task(machine, threads=8)
        a.start()
        machine.sim.run_until(5.0)
        alone = a.throughput(5.0)
        b = BatchTask(
            "c",
            machine,
            Placement(cores=frozenset(range(12, 16)), mem_weights={0: 0.5, 1: 0.5}),
            cpu_workload("dram", "H").with_threads(4),
        )
        b.start()
        machine.sim.run_until(10.0)
        contended = (a.meter.units - alone * 5.0) / 5.0
        assert contended < alone

    def test_speed_attribute_updates(self, machine: Machine) -> None:
        task = make_task(machine)
        task.start()
        assert 0.0 < task.speed <= 1.0

    def test_recompute_syncs_meter_at_unchanged_speed(
        self, machine: Machine
    ) -> None:
        task = make_task(machine, threads=2)
        task.start()
        speed = task.speed
        machine.sim.run_until(3.0)
        machine.notify_change()
        assert task.speed == speed
        # ``units`` is as of the meter's last sync: the recompute at t=3
        # integrated the whole span though the rate did not move.
        assert task.meter.units == pytest.approx(2.0 * speed * 3.0, rel=1e-12)

    def test_recompute_at_a_new_speed_syncs_meter_once(
        self, machine: Machine
    ) -> None:
        task = make_task(machine, threads=8)
        task.start()
        speed = task.speed
        machine.sim.run_until(3.0)
        synced: list[float] = []
        sync = task.meter.sync

        def counted(now: float) -> None:
            synced.append(now)
            sync(now)

        task.meter.sync = counted
        rival = BatchTask(
            "c",
            machine,
            Placement(cores=frozenset(range(12, 16)), mem_weights={0: 0.5, 1: 0.5}),
            cpu_workload("dram", "H").with_threads(4),
        )
        rival.start()  # one recompute, which slows the task down
        assert task.speed < speed
        assert synced == [3.0]


class TestBatchProfile:
    def test_with_threads(self) -> None:
        profile = stream_profile(8).with_threads(2)
        assert profile.phase.threads == 2
        # with_threads keeps per-task demand (the aggregate is re-declared).
        assert profile.phase.bw_gbps == stream_profile(8).phase.bw_gbps

    def test_scaled_to_threads(self) -> None:
        profile = stream_profile(8).scaled_to_threads(2)
        assert profile.phase.threads == 2
        assert profile.phase.bw_gbps == pytest.approx(
            stream_profile(8).phase.bw_gbps / 4
        )

    def test_scaled_to_zero_rejected(self) -> None:
        with pytest.raises(ConfigurationError):
            stream_profile(8).scaled_to_threads(0)

    def test_unit_rate_must_be_positive(self) -> None:
        from repro.workloads.base import HostPhaseProfile
        from repro.workloads.cpu.base import BatchProfile

        with pytest.raises(ConfigurationError):
            BatchProfile(name="x", phase=HostPhaseProfile(), unit_rate_per_thread=0)
