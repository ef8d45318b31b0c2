"""Controller dynamics: boost paths and convergence behaviour."""

from __future__ import annotations

import pytest

from repro.node import LO_SUBDOMAIN, Node
from repro.core.policies import make_policy
from repro.hw.placement import Placement
from repro.sim.engine import PRIORITY_CONTROL
from repro.workloads.cpu.base import BatchTask
from repro.workloads.cpu.catalog import cpu_workload


def drive(node: Node, policy, seconds: float) -> None:
    node.sim.every(policy.interval, policy.tick, priority=PRIORITY_CONTROL)
    node.sim.run_until(node.sim.now + seconds)


class TestCoreThrottleDynamics:
    def test_boost_recovers_cores_after_load_drops(self, node: Node) -> None:
        policy = make_policy("CT", node, ml_cores=2)
        policy.prepare()
        (task,) = policy.place(cpu_workload("stitch", 6))
        spare = task.placement.cores
        drive(node, policy, 12.0)
        throttled = len(task.placement.cores)
        assert throttled < 14
        # Load vanishes; the controller must give cores back.
        task.stop()
        node.lo_tasks.clear()
        light = BatchTask(
            "light",
            node.machine,
            task.placement.with_cores(frozenset(spare)),
            cpu_workload("cpuml", 2),
        )
        # Recreate at the throttled mask so boosting is observable.
        light.set_placement(light.placement.with_cores(
            frozenset(sorted(spare)[:throttled])
        ))
        light.start()
        node.lo_tasks.append(light)
        node.sim.run_until(node.sim.now + 15.0)
        assert len(light.placement.cores) > throttled

    def test_ct_converges_not_oscillates(self, node: Node) -> None:
        policy = make_policy("CT", node, ml_cores=2)
        policy.prepare()
        policy.place(cpu_workload("stitch", 4))
        drive(node, policy, 25.0)
        tail = [s.lo_cores for s in policy.tick_history()[-8:]]
        assert max(tail) - min(tail) <= 1  # settled within one core


class TestKelpDynamics:
    def test_backfill_boost_after_lo_load_drops(self, node: Node) -> None:
        policy = make_policy("KP", node, ml_cores=4)
        policy.prepare()
        policy.place(cpu_workload("stitch", 6))
        drive(node, policy, 15.0)
        during = policy.tick_history()[-1].backfill_cores
        # Kill the lo-subdomain part: hi-subdomain pressure eases, the
        # backfilled task may grow back toward its maximum.
        node.lo_tasks[0].stop()
        node.lo_tasks.clear()
        node.sim.run_until(node.sim.now + 15.0)
        after = policy.tick_history()[-1].backfill_cores
        assert after >= during

    def test_lo_placement_binds_memory_to_lo_subdomain(self, node: Node) -> None:
        policy = make_policy("KP", node, ml_cores=4)
        policy.prepare()
        plans = policy.plan_cpu(cpu_workload("cpuml", 16))
        lo_plan = next(p for p in plans if p.role == "lo")
        assert lo_plan.placement.mem_weights == {LO_SUBDOMAIN: 1.0}
