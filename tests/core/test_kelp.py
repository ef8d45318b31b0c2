"""Tests for the Kelp controller (Algorithm 1) on a bare node."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.node import LO_SUBDOMAIN, Node
from repro.control.actuators import HostControlPlane
from repro.control.governors import KelpGovernor
from repro.control.loop import ControlLoop
from repro.control.sensors import PerfectSensors
from repro.core.actions import Action
from repro.core.watermarks import QosProfile, Watermark, default_profile
from repro.hw.placement import Placement
from repro.workloads.cpu.base import BatchTask
from repro.workloads.cpu.catalog import cpu_workload


def make_loop(
    node: Node, profile: QosProfile | None = None, manage_cores: bool = True
) -> ControlLoop:
    """The KP (or, without ``manage_cores``, KP-SD) loop on ``node``."""
    if profile is None:
        profile = default_profile(node.machine.spec, ml_cores=4)
    governor = KelpGovernor(node, profile, manage_cores=manage_cores)
    return ControlLoop(node, governor, PerfectSensors(node), HostControlPlane(node))


def start_lo_aggressor(node: Node, level: str = "H") -> BatchTask:
    node.machine.set_snc(True)
    task = BatchTask(
        "dram",
        node.machine,
        Placement(
            cores=frozenset(node.lo_subdomain_cores()),
            mem_weights={LO_SUBDOMAIN: 1.0},
        ),
        cpu_workload("dram", level),
    )
    task.start()
    node.lo_tasks.append(task)
    return task


class TestKelpDecisions:
    def test_idle_machine_boosts(self, node: Node) -> None:
        loop = make_loop(node)
        node.sim.run_until(1.0)
        record = loop.tick()
        assert record.action_lo is Action.BOOST

    def test_saturation_triggers_lo_throttle(self, node: Node) -> None:
        start_lo_aggressor(node, "H")
        loop = make_loop(node)
        node.sim.run_until(1.0)
        record = loop.tick()
        assert record.action_lo is Action.THROTTLE
        assert record.lo_prefetchers < len(node.lo_subdomain_cores())

    def test_prefetchers_halve_then_recover(self, node: Node) -> None:
        start_lo_aggressor(node, "H")
        loop = make_loop(node)
        for step in range(12):
            node.sim.run_until(node.sim.now + 1.0)
            loop.tick()
        # The controller must have converged out of full saturation...
        final = loop.history[-1]
        assert final.measurements.saturation <= loop.governor.profile.saturation.hi + 0.1
        # ...by disabling some prefetchers.
        assert final.lo_prefetchers < len(node.lo_subdomain_cores())

    def test_enforcement_writes_msrs(self, node: Node) -> None:
        start_lo_aggressor(node, "H")
        loop = make_loop(node)
        node.sim.run_until(1.0)
        loop.tick()
        enabled = sum(
            node.machine.prefetchers.is_enabled(c)
            for c in node.lo_subdomain_cores()
        )
        assert enabled == loop.governor.lo_plan.prefetcher_num

    def test_manage_flags_freeze_knobs(self, node: Node) -> None:
        """KP-SD (``manage_cores=False``) under the H DRAM aggressor: over
        12 ticks the core count never moves while the prefetcher count
        drops. Retargeted to a latency watermark every tick breaches, it
        keeps its cores once the prefetchers are off, where KP sheds them."""
        task = start_lo_aggressor(node, "H")
        base = default_profile(node.machine.spec, ml_cores=4)
        breached = replace(base, socket_latency=Watermark(lo=0.0, hi=0.0))
        loop = make_loop(node, base, manage_cores=False)
        for profile in (base, breached):
            loop.governor = KelpGovernor(node, profile, manage_cores=False)
            start = loop.governor.lo_plan
            for _ in range(12):
                node.sim.run_until(node.sim.now + 1.0)
                loop.tick()
                assert loop.governor.lo_plan.core_num == start.core_num
            assert loop.governor.lo_plan.prefetcher_num < start.prefetcher_num
        assert task.placement.cores == frozenset(node.lo_subdomain_cores())


class TestBackfillControl:
    def test_backfill_throttled_on_hipri_bw(self, node: Node) -> None:
        node.machine.set_snc(True)
        backfill = BatchTask(
            "backfill",
            node.machine,
            Placement(
                cores=frozenset(node.hi_subdomain_cores()[4:]),
                mem_weights={0: 1.0},
            ),
            cpu_workload("stitch", 3).scaled_to_threads(8),
        )
        backfill.start()
        node.backfill_tasks.append(backfill)
        loop = make_loop(node)
        for _ in range(8):
            node.sim.run_until(node.sim.now + 1.0)
            loop.tick()
        # Stitch's 8 backfilled threads exceed the hi-subdomain watermark:
        # the controller must have removed cores.
        governor = loop.governor
        assert governor.hi_plan.core_num < governor.profile.max_backfill_cores
        if governor.hi_plan.core_num > 0:
            assert len(backfill.placement.cores) == governor.hi_plan.core_num
        else:
            assert backfill.parked

    def test_backfill_throttled_to_zero_parks_tasks(self, node: Node) -> None:
        """Regression: a plan at zero cores must evict backfill entirely.

        The old enforcement clamped the mask to ``max(1, core_num)`` cores,
        so a fully-throttled plan still left one backfill core stealing
        hi-subdomain bandwidth. Zero cores now parks the tasks (empty
        effective cpuset): no traffic, no progress, until the next BOOST.
        """
        node.machine.set_snc(True)
        backfill = BatchTask(
            "backfill",
            node.machine,
            Placement(
                cores=frozenset(node.hi_subdomain_cores()[4:]),
                mem_weights={0: 1.0},
            ),
            cpu_workload("stitch", 3).scaled_to_threads(8),
        )
        backfill.start()
        node.backfill_tasks.append(backfill)
        # A profile whose hi-subdomain watermark is always exceeded and
        # whose floor allows full eviction: every tick throttles.
        base = default_profile(node.machine.spec, ml_cores=4)
        profile = replace(
            base,
            hipri_bw=Watermark(lo=0.0, hi=1e-6),
            min_backfill_cores=0,
        )
        loop = make_loop(node, profile)
        for _ in range(profile.max_backfill_cores + 1):
            node.sim.run_until(node.sim.now + 1.0)
            loop.tick()
        assert loop.governor.hi_plan.core_num == 0
        assert backfill.parked
        assert backfill.traffic_sources() == []
        # A parked task makes no forward progress.
        backfill.sync(node.sim.now)
        done_before = backfill.meter.units
        node.sim.run_until(node.sim.now + 5.0)
        backfill.sync(node.sim.now)
        assert backfill.speed == 0.0
        assert backfill.meter.units == pytest.approx(done_before)

    def test_boost_after_park_restores_backfill(self, node: Node) -> None:
        """A parked backfill task is revived once the controller boosts."""
        node.machine.set_snc(True)
        backfill = BatchTask(
            "backfill",
            node.machine,
            Placement(
                cores=frozenset(node.hi_subdomain_cores()[4:]),
                mem_weights={0: 1.0},
            ),
            cpu_workload("stitch", 1),
        )
        backfill.start()
        node.backfill_tasks.append(backfill)
        base = default_profile(node.machine.spec, ml_cores=4)
        throttling = replace(
            base,
            hipri_bw=Watermark(lo=0.0, hi=1e-6),
            min_backfill_cores=0,
        )
        loop = make_loop(node, throttling)
        for _ in range(throttling.max_backfill_cores + 1):
            node.sim.run_until(node.sim.now + 1.0)
            loop.tick()
        assert backfill.parked
        # Retarget with a permissive profile: the idle hi-subdomain boosts.
        loop.governor = KelpGovernor(
            node,
            replace(base, hipri_bw=Watermark(lo=1e9, hi=2e9), min_backfill_cores=0),
        )
        node.sim.run_until(node.sim.now + 1.0)
        loop.tick()
        assert loop.governor.hi_plan.core_num > 0
        assert not backfill.parked
        assert len(backfill.placement.cores) == loop.governor.hi_plan.core_num

    def test_history_records_every_tick(self, node: Node) -> None:
        loop = make_loop(node)
        for _ in range(3):
            node.sim.run_until(node.sim.now + 1.0)
            loop.tick()
        assert len(loop.history) == 3
        assert loop.history[0].time < loop.history[-1].time
