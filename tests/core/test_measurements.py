"""Tests for the Kelp measurement plumbing."""

from __future__ import annotations

import pytest

from repro.node import HI_SUBDOMAIN, LO_SUBDOMAIN, Node
from repro.control.sensors import PerfectSensors
from repro.hw.placement import Placement
from repro.workloads.cpu.base import BatchTask
from repro.workloads.cpu.catalog import cpu_workload


def measure(node: Node):
    """One windowed read of the four Kelp measurements."""
    return PerfectSensors(node).sample()


class TestMeasureNode:
    def test_idle_measurements(self, node: Node) -> None:
        node.sim.run_until(1.0)
        m = measure(node)
        assert m.socket_bw == pytest.approx(0.0)
        assert m.socket_latency == pytest.approx(1.0)
        assert m.saturation == 0.0
        assert m.hipri_bw == 0.0
        assert m.elapsed == pytest.approx(1.0)

    def test_hipri_bw_isolates_subdomain(self, node: Node) -> None:
        node.machine.set_snc(True)
        BatchTask(
            "lo",
            node.machine,
            Placement(
                cores=frozenset(node.lo_subdomain_cores()),
                mem_weights={LO_SUBDOMAIN: 1.0},
            ),
            cpu_workload("stream", 4),
        ).start()
        measure(node)
        node.sim.run_until(1.0)
        m = measure(node)
        assert m.socket_bw > 0
        assert m.hipri_bw == pytest.approx(0.0)

    def test_hipri_bw_sees_hi_traffic(self, node: Node) -> None:
        node.machine.set_snc(True)
        BatchTask(
            "hi",
            node.machine,
            Placement(
                cores=frozenset(node.hi_subdomain_cores()[4:]),
                mem_weights={HI_SUBDOMAIN: 1.0},
            ),
            cpu_workload("stream", 2),
        ).start()
        measure(node)
        node.sim.run_until(1.0)
        m = measure(node)
        assert m.hipri_bw > 0
