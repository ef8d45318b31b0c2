"""Tests for the policy zoo."""

from __future__ import annotations

import pytest

from repro.node import HI_SUBDOMAIN, LO_SUBDOMAIN, Node
from repro.core.policies import available_policies, make_policy
from repro.core.policies.base import ML_CLOS, ROLE_BACKFILL, ROLE_LO
from repro.errors import ConfigurationError
from repro.workloads.cpu.catalog import cpu_workload


class TestRegistry:
    def test_names(self) -> None:
        assert available_policies() == [
            "BL", "CT", "KP-SD", "KP", "HW-QOS", "MBA", "HW-PF",
        ]

    def test_unknown_rejected(self, node: Node) -> None:
        with pytest.raises(ConfigurationError):
            make_policy("NOPE", node, 4)

    def test_case_insensitive(self, node: Node) -> None:
        assert make_policy("kp-sd", node, 4).name == "KP-SD"


class TestBaseline:
    def test_no_snc_no_control(self, node: Node) -> None:
        policy = make_policy("BL", node, 4)
        policy.prepare()
        assert not node.machine.snc_enabled
        assert policy.loop is None

    def test_placements_share_socket(self, node: Node) -> None:
        policy = make_policy("BL", node, 4)
        policy.prepare()
        ml = policy.ml_placement()
        plans = policy.plan_cpu(cpu_workload("stitch", 2))
        assert len(plans) == 1
        assert not ml.overlaps_cores(plans[0].placement)
        assert ml.clos == 0  # no CAT under BL


class TestCoreThrottle:
    def test_prepare_applies_cat(self, node: Node) -> None:
        policy = make_policy("CT", node, 4)
        policy.prepare()
        assert policy.ml_placement().clos == ML_CLOS
        assert node.resctrl.l3_mask(ML_CLOS) != 0

    def test_hot_watermarks(self, node: Node) -> None:
        ct = make_policy("CT", node, 4)
        kp = make_policy("KP", node, 4)
        assert ct.profile.socket_bw.hi > kp.profile.socket_bw.hi


class TestSubdomain:
    def test_prepare_enables_snc(self, node: Node) -> None:
        policy = make_policy("KP-SD", node, 4)
        policy.prepare()
        assert node.machine.snc_enabled

    def test_placements_in_separate_subdomains(self, node: Node) -> None:
        policy = make_policy("KP-SD", node, 4)
        policy.prepare()
        ml = policy.ml_placement()
        (plan,) = policy.plan_cpu(cpu_workload("stitch", 4))
        assert ml.mem_weights == {HI_SUBDOMAIN: 1.0}
        assert plan.placement.mem_weights == {LO_SUBDOMAIN: 1.0}
        assert not ml.overlaps_cores(plan.placement)

    def test_single_lo_task_no_backfill(self, node: Node) -> None:
        policy = make_policy("KP-SD", node, 4)
        policy.prepare()
        plans = policy.plan_cpu(cpu_workload("stitch", 6))
        assert [p.role for p in plans] == [ROLE_LO]


class TestKelp:
    def test_backfill_split_when_threads_exceed_lo_cores(self, node: Node) -> None:
        policy = make_policy("KP", node, 4)
        policy.prepare()
        plans = policy.plan_cpu(cpu_workload("stitch", 6))  # 24 threads
        roles = {p.role for p in plans}
        assert roles == {ROLE_LO, ROLE_BACKFILL}
        lo_plan = next(p for p in plans if p.role == ROLE_LO)
        backfill = next(p for p in plans if p.role == ROLE_BACKFILL)
        assert lo_plan.profile.phase.threads == len(node.lo_subdomain_cores())
        assert backfill.profile.phase.threads == 24 - lo_plan.profile.phase.threads
        assert backfill.placement.mem_weights == {HI_SUBDOMAIN: 1.0}

    def test_no_backfill_when_it_fits(self, node: Node) -> None:
        policy = make_policy("KP", node, 4)
        policy.prepare()
        plans = policy.plan_cpu(cpu_workload("cpuml", 4))
        assert [p.role for p in plans] == [ROLE_LO]

    def test_backfill_avoids_ml_cores(self, node: Node) -> None:
        policy = make_policy("KP", node, 4)
        policy.prepare()
        ml = policy.ml_placement()
        plans = policy.plan_cpu(cpu_workload("stitch", 6))
        backfill = next(p for p in plans if p.role == ROLE_BACKFILL)
        assert not ml.overlaps_cores(backfill.placement)

    def test_register_fills_node_roles(self, node: Node) -> None:
        policy = make_policy("KP", node, 4)
        policy.prepare()
        lo, backfill = policy.place(cpu_workload("stitch", 6))
        assert node.lo_tasks == [lo]
        assert node.backfill_tasks == [backfill]

    def test_place_evict_place_round_trip(self, node: Node) -> None:
        policy = make_policy("KP", node, 4)
        policy.prepare()
        profile = cpu_workload("stitch", 6)  # 24 threads: lo + backfill
        plans = policy.plan_cpu(profile)
        tasks = policy.place(profile, prefix="job/")
        assert [t.task_id for t in tasks] == [f"job/{p.task_id}" for p in plans]
        assert node.lo_tasks == [t for t, p in zip(tasks, plans) if p.role == ROLE_LO]
        assert node.backfill_tasks == [
            t for t, p in zip(tasks, plans) if p.role == ROLE_BACKFILL
        ]
        assert len(node.lo_tasks) == len(node.backfill_tasks) == 1
        node.sim.run_until(2.0)
        assert all(t.started and t.speed > 0 for t in tasks)

        policy.evict(tasks)
        assert node.lo_tasks == [] and node.backfill_tasks == []
        assert node.machine.tasks() == []
        units = [t.meter.units for t in tasks]
        node.sim.run_until(4.0)
        for task, done in zip(tasks, units):
            assert not task.started
            task.meter.sync(node.sim.now)
            assert task.meter.units == done  # the rate froze at 0

        again = policy.place(profile, prefix="job/")
        assert node.lo_tasks + node.backfill_tasks == again
        node.sim.run_until(6.0)
        assert all(t.throughput(6.0) > 0 for t in again)


@pytest.mark.parametrize("name", available_policies())
def test_loop_exactly_for_adaptive_policies(node: Node, name: str) -> None:
    policy = make_policy(name, node, 4)
    policy.prepare()
    assert (policy.loop is None) == (name in {"BL", "HW-QOS", "HW-PF"})


class TestHwQos:
    def test_prepare_enables_priority_mode(self, node: Node) -> None:
        policy = make_policy("HW-QOS", node, 4)
        policy.prepare()
        assert node.machine.solver.priority_mode
        assert policy.loop is None
        assert policy.tick_history() == []
