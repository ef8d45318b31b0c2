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
        assert not policy.has_control_loop

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
        policy.register({ROLE_LO: ["a"], ROLE_BACKFILL: ["b"]})
        assert node.lo_tasks == ["a"]
        assert node.backfill_tasks == ["b"]


class TestHwQos:
    def test_prepare_enables_priority_mode(self, node: Node) -> None:
        policy = make_policy("HW-QOS", node, 4)
        policy.prepare()
        assert node.machine.solver.priority_mode
        assert not policy.has_control_loop
        assert policy.tick_history() == []
