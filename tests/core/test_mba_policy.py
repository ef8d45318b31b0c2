"""Tests for the MBA policy (Section VI-D extension)."""

from __future__ import annotations

import pytest

from repro.node import Node
from repro.core.policies import make_policy
from repro.core.policies.mba import LO_CLOS, MBA_MAX, MBA_MIN, MbaPolicy
from repro.hw.placement import Placement
from repro.workloads.cpu.base import BatchTask
from repro.workloads.cpu.catalog import cpu_workload


def setup_mix(node: Node) -> tuple[MbaPolicy, BatchTask]:
    policy = make_policy("MBA", node, ml_cores=2)
    assert isinstance(policy, MbaPolicy)
    policy.prepare()
    (plan,) = policy.plan_cpu(cpu_workload("stitch", 5))
    task = BatchTask(plan.task_id, node.machine, plan.placement, plan.profile)
    task.start()
    policy.register({plan.role: [task]})
    return policy, task


class TestMbaPolicy:
    def test_prepare_creates_lo_clos(self, node: Node) -> None:
        policy = make_policy("MBA", node, ml_cores=2)
        policy.prepare()
        assert LO_CLOS in node.resctrl.groups
        assert policy.mb_percent == MBA_MAX

    def test_cpu_tasks_assigned_to_lo_clos(self, node: Node) -> None:
        policy, task = setup_mix(node)
        assert task.placement.clos == LO_CLOS

    def test_throttles_under_pressure(self, node: Node) -> None:
        policy, task = setup_mix(node)
        for _ in range(6):
            node.sim.run_until(node.sim.now + 1.0)
            policy.tick()
        assert MBA_MIN <= policy.mb_percent < MBA_MAX
        assert node.machine.solver.mba_caps[LO_CLOS] == pytest.approx(
            policy.mb_percent / 100.0
        )

    def test_cap_slows_the_capped_task(self, node: Node) -> None:
        policy, task = setup_mix(node)
        node.sim.run_until(1.0)
        before = task.speed
        node.resctrl.set_mb_percent(LO_CLOS, 30)
        after = task.speed
        assert after < before

    def test_boosts_back_when_idle(self, node: Node) -> None:
        policy = make_policy("MBA", node, ml_cores=2)
        assert isinstance(policy, MbaPolicy)
        policy.prepare()
        node.resctrl.set_mb_percent(LO_CLOS, 50)
        policy._mb_percent = 50
        for _ in range(8):
            node.sim.run_until(node.sim.now + 1.0)
            policy.tick()
        assert policy.mb_percent == MBA_MAX

    def test_history_records_percent(self, node: Node) -> None:
        policy, _ = setup_mix(node)
        node.sim.run_until(1.0)
        policy.tick()
        assert policy.tick_history()[-1].lo_prefetchers == policy.mb_percent
