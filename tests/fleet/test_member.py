"""FleetMember: node assembly, request attribution, batch-job slots."""

from __future__ import annotations

import pytest

from repro.errors import SchedulingError
from repro.fleet.member import FleetMember, NodeSignals
from repro.sim import Simulator
from repro.workloads.cpu.catalog import cpu_workload
from repro.workloads.ml.base import InferenceServerTask
from repro.workloads.ml.catalog import ml_workload


@pytest.fixture
def factory():
    return ml_workload("rnn1")


def _member(sim, factory, on_complete=None, **kwargs) -> FleetMember:
    return FleetMember(
        index=kwargs.pop("index", 0),
        sim=sim,
        factory=factory,
        policy_name=kwargs.pop("policy_name", "KP"),
        interval=0.5,
        warmup=0.0,
        seed=123,
        on_complete=on_complete,
        **kwargs,
    )


class TestAssembly:
    def test_builds_node_policy_and_server(self, factory):
        sim = Simulator()
        member = _member(sim, factory)
        assert isinstance(member.server, InferenceServerTask)
        assert member.node.accel_socket == 0
        assert member.load == 0
        assert member.last_signals is None
        # load_fraction=0: arrivals come from the fleet, not a loadgen.
        assert member.instance.loadgen is None

    def test_heterogeneous_accel_socket(self, factory):
        """Fleet nodes may host the accelerator on the second socket."""
        sim = Simulator()
        member = _member(sim, factory, accel_socket=1)
        node = member.node
        assert node.accel_socket == 1
        subdomains = node.machine.topology.subdomains_of_socket(1)
        assert node.hi_subdomain in subdomains
        assert node.lo_subdomain in subdomains
        member.start()
        sim.at(0.10, lambda: member.submit(0))
        sim.at(0.30, lambda: member.submit(0))
        sim.run_until(1.0)
        signals = member.sample()
        # Telemetry reads the accelerator's socket, not socket 0.
        assert signals.node_index == 0
        assert signals.socket_bw_gbps > 0.0


class TestAttribution:
    def test_completion_attributed_to_submitting_tenant(self, factory):
        sim = Simulator()
        seen: list[tuple[int, bool, float, float]] = []

        def on_complete(member, tenant, counted, start, end):
            seen.append((tenant, counted, start, end))

        member = _member(sim, factory, on_complete=on_complete)
        member.start()
        sim.at(0.10, lambda: member.submit(3))
        sim.at(0.20, lambda: member.submit(7, counted=False))
        sim.run_until(2.0)
        assert [(tenant, counted) for tenant, counted, _, _ in seen] == [
            (3, True),
            (7, False),
        ]
        for _, _, start, end in seen:
            assert end > start
        # The owner map drains as requests complete.
        assert not member._owners

    def test_stop_detaches_listener(self, factory):
        sim = Simulator()
        member = _member(sim, factory)
        member.start()
        assert member._complete in member.server.completion_listeners
        member.stop()
        assert member._complete not in member.server.completion_listeners


class TestTelemetry:
    def test_sample_fields(self, factory):
        sim = Simulator()
        member = _member(sim, factory)
        member.start()
        sim.at(0.10, lambda: member.submit(0))
        sim.run_until(1.0)
        signals = member.sample()
        assert isinstance(signals, NodeSignals)
        assert member.last_signals is signals
        assert signals.time == pytest.approx(1.0)
        assert signals.socket_bw_gbps > 0.0
        assert 0.0 <= signals.saturation <= 1.0
        assert signals.latency_factor >= 1.0
        assert signals.batch_jobs == 0
        assert signals.pressure() >= 0.0

    def test_hot_streak_counts_consecutive_hot_samples(self, factory):
        sim = Simulator()
        member = _member(sim, factory, policy_name="BL")
        member.start()
        sim.run_until(0.5)
        member.sample()
        # An idle node is never hot; the streak stays at zero.
        assert member.hot_streak == 0


class TestBatchJobs:
    def test_place_and_remove_job_cleans_role_lists(self, factory):
        sim = Simulator()
        member = _member(sim, factory)
        member.start()
        sim.run_until(0.5)
        profile = cpu_workload("stream", 2)
        member.place_job("jobA", profile, warmup=0.0)
        assert member.job_count == 1
        assert member.job_ids == ("jobA",)
        tasks = list(member._jobs["jobA"])
        assert tasks
        role_resident = member.node.lo_tasks + member.node.backfill_tasks
        assert all(task in role_resident for task in tasks)

        sim.run_until(1.5)
        member.remove_job("jobA")
        assert member.job_count == 0
        for task in tasks:
            assert task not in member.node.lo_tasks
            assert task not in member.node.backfill_tasks

    def test_duplicate_and_missing_job_ids_raise(self, factory):
        sim = Simulator()
        member = _member(sim, factory)
        member.start()
        profile = cpu_workload("stream", 2)
        member.place_job("jobA", profile, warmup=0.0)
        with pytest.raises(SchedulingError):
            member.place_job("jobA", profile, warmup=0.0)
        with pytest.raises(SchedulingError):
            member.remove_job("jobB")

    def test_evicted_job_throughput_freezes(self, factory):
        """A removed job must not extrapolate phantom units to run end."""
        sim = Simulator()
        member = _member(sim, factory)
        member.start()
        member.place_job("jobA", cpu_workload("stream", 2), warmup=0.0)
        sim.run_until(2.0)
        member.remove_job("jobA")
        at_eviction = member.batch_throughput(2.0) * 2.0
        assert at_eviction > 0.0
        sim.run_until(6.0)
        # Units accrued stay what they were at the eviction instant.
        assert member.batch_throughput(6.0) * 6.0 == pytest.approx(
            at_eviction, rel=1e-9
        )
