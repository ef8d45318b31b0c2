"""Tests for the QoS-aware hardware-prefetch policy and solver mode."""

from __future__ import annotations

import pytest

from repro.node import LO_SUBDOMAIN, Node
from repro.core.policies import make_policy
from repro.hw.contention import Priority, TrafficSource
from repro.hw.machine import Machine
from repro.hw.placement import Placement
from repro.workloads.cpu.base import BatchTask
from repro.workloads.cpu.catalog import cpu_workload


def saturating_source(machine: Machine) -> TrafficSource:
    return TrafficSource(
        source_id="agg",
        task_id="agg",
        demand_gbps=56.0,
        mem_weights={1: 1.0},
        cores=frozenset(machine.topology.cores_of_subdomain(1)),
        threads=8,
    )


class TestSolverMode:
    def test_saturation_suppressed_when_enabled(self, machine: Machine) -> None:
        machine.solver.snc_enabled = True
        src = saturating_source(machine)
        plain = machine.solver.solve([src])
        machine.solver.qos_aware_prefetch = True
        managed = machine.solver.solve([src])
        assert (
            managed.socket_pressures[0].saturation
            < plain.socket_pressures[0].saturation
        )

    def test_throttled_prefetchers_slow_the_aggressor(
        self, machine: Machine
    ) -> None:
        machine.solver.snc_enabled = True
        machine.solver.qos_aware_prefetch = True
        src = saturating_source(machine)
        result = machine.solver.solve([src])
        assert result.rates_for("agg").prefetch_speed < 1.0

    def test_high_priority_prefetchers_untouched(self, machine: Machine) -> None:
        machine.solver.snc_enabled = True
        machine.solver.qos_aware_prefetch = True
        hi = TrafficSource(
            source_id="ml", task_id="ml", demand_gbps=4.0,
            mem_weights={0: 1.0}, cores=frozenset({0, 1}), threads=2,
            priority=Priority.HIGH,
        )
        result = machine.solver.solve([saturating_source(machine), hi])
        assert result.rates_for("ml").prefetch_speed == pytest.approx(1.0)

    def test_no_effect_without_saturation(self, machine: Machine) -> None:
        machine.solver.qos_aware_prefetch = True
        calm = TrafficSource(
            source_id="calm", task_id="calm", demand_gbps=5.0,
            mem_weights={0: 1.0}, cores=frozenset({4}), threads=1,
        )
        result = machine.solver.solve([calm])
        assert result.rates_for("calm").prefetch_speed == pytest.approx(1.0)


class TestHwPrefetchPolicy:
    def test_prepare_enables_solver_mode(self, node: Node) -> None:
        policy = make_policy("HW-PF", node, 4)
        policy.prepare()
        assert node.machine.solver.qos_aware_prefetch
        assert node.machine.snc_enabled
        assert policy.loop is None

    def test_protects_without_software_loop(self, node: Node) -> None:
        policy = make_policy("HW-PF", node, 2)
        policy.prepare()
        (plan,) = policy.plan_cpu(cpu_workload("dram", "H"))
        BatchTask(plan.task_id, node.machine, plan.placement, plan.profile).start()
        node.perf.read("t")
        node.sim.run_until(2.0)
        reading = node.perf.read("t")
        # Hardware throttling keeps the distress wire quiet.
        assert reading.socket_saturation[0] < 0.2
