"""Tests for the inference-server engine."""

from __future__ import annotations

import pytest

from repro.errors import WorkloadError
from repro.hw.machine import Machine
from repro.hw.placement import Placement
from repro.hw.spec import tpu_host_spec
from repro.reference import reference_mode
from repro.sim import Simulator
from repro.sim.tracing import TimelineTracer
from repro.workloads.loadgen import ClosedLoopGenerator, SerialGenerator
from repro.workloads.ml.catalog import ml_workload


def make_server(sim: Simulator, tracer: TimelineTracer | None = None):
    factory = ml_workload("rnn1")
    machine = Machine(tpu_host_spec(), sim)
    placement = Placement(
        cores=frozenset(range(factory.default_cores())),
        mem_weights={0: 0.5, 1: 0.5},
    )
    instance = factory.build(
        machine, placement, warmup_until=0.0, tracer=tracer, load_fraction=0.0
    )
    instance.task.start()
    return machine, instance.task


class TestServerPipeline:
    def test_serial_request_latency(self, sim: Simulator) -> None:
        machine, server = make_server(sim)
        gen = SerialGenerator(server, total_requests=5)
        gen.start()
        sim.run_until(5.0)
        assert gen.completed == 5
        spec = server.spec
        per_iter = spec.host_time + 2 * spec.pcie_in_gb / 12.0 + 3e-3
        expected = spec.iterations_per_query * per_iter
        assert server.recorder.mean_latency() == pytest.approx(expected, rel=0.1)

    def test_closed_loop_reaches_steady_qps(self, sim: Simulator) -> None:
        machine, server = make_server(sim)
        gen = ClosedLoopGenerator(server, concurrency=4)
        gen.start()
        sim.run_until(20.0)
        assert server.performance(20.0) > 100.0

    def test_queue_forms_beyond_max_inflight(self, sim: Simulator) -> None:
        machine, server = make_server(sim)
        for _ in range(server.spec.max_inflight + 3):
            server.submit()
        assert server.inflight == server.spec.max_inflight
        assert server.queued == 3

    def test_submit_before_start_rejected(self, sim: Simulator) -> None:
        factory = ml_workload("rnn1")
        machine = Machine(tpu_host_spec(), sim)
        placement = Placement(cores=frozenset({0}), mem_weights={0: 1.0})
        instance = factory.build(machine, placement, load_fraction=0.0)
        with pytest.raises(WorkloadError):
            instance.task.submit()

    def test_completion_listeners_fire(self, sim: Simulator) -> None:
        machine, server = make_server(sim)
        seen: list[tuple[float, float]] = []
        server.completion_listeners.append(lambda s, e: seen.append((s, e)))
        server.submit()
        sim.run_until(1.0)
        assert len(seen) == 1
        assert seen[0][1] > seen[0][0]

    def test_lane_source_scales_with_lanes_in_host_phase(
        self, sim: Simulator
    ) -> None:
        machine, server = make_server(sim)
        host = server.spec.host
        for n in range(1, server.spec.max_inflight + 1):
            server.submit()  # a new lane enters its host phase at once
            (source,) = server.traffic_sources()
            assert source.demand_gbps == host.bw_gbps * n
            assert source.threads == host.threads * n
            assert source.working_set_mb == host.working_set_mb * min(n, 4)
            # The solver's id-keyed signature memo relies on interned sources.
            assert server.traffic_sources()[0] is source

    def test_tracer_records_phases(self, sim: Simulator) -> None:
        tracer = TimelineTracer()
        machine, server = make_server(sim, tracer=tracer)
        SerialGenerator(server, total_requests=3).start()
        sim.run_until(2.0)
        assert {"cpu", "communication", "tpu"} <= tracer.kinds()
        assert tracer.total_time("rnn1", "cpu") > tracer.total_time("rnn1", "tpu")


class TestSpecHelpers:
    def test_standalone_capacity_balanced(self) -> None:
        factory = ml_workload("rnn1")
        spec = factory.spec
        from repro.accel.presets import tpu_v1_device

        capacity = spec.standalone_capacity(tpu_v1_device(), spec.default_cores)
        assert capacity > 0
        assert spec.target_qps(tpu_v1_device(), spec.default_cores) < capacity


def _live_lane_events(sim: Simulator, server) -> int:
    label = f"{server.task_id}:lane"
    return sum(
        1 for _, _, _, event in sim._heap
        if event.label == label and not event.cancelled
    )


class TestHostLaneEvent:
    """The server holds one pending host-phase completion event, for the
    lane due first, however many lanes are in their host phase."""

    def test_one_live_event_while_host_phases_overlap(self, sim: Simulator) -> None:
        machine, server = make_server(sim)
        ClosedLoopGenerator(server, concurrency=6).start()
        overlapping = 0
        for step in range(1, 200):
            sim.run_until(step * 1e-3)
            if len(server._host.works) >= 2:
                overlapping += 1
                assert _live_lane_events(sim, server) == 1
        assert overlapping > 50

    def test_abort_leaves_no_lane_event(self, sim: Simulator) -> None:
        machine, server = make_server(sim)
        for _ in range(4):
            server.submit()
        sim.run_until(1e-3)
        assert len(server._host.works) == 4
        assert _live_lane_events(sim, server) == 1
        server.abort()
        assert _live_lane_events(sim, server) == 0

    def test_kp_cell_work_pin(self, monkeypatch) -> None:
        """One rnn1+stream KP cell dispatches and solves exactly what one
        event per lane did, and schedules far fewer events (22,998 with one
        event per lane)."""
        from repro.experiments import common

        sims: list[Simulator] = []

        class Recording(Simulator):
            def __init__(self) -> None:
                super().__init__()
                sims.append(self)

        monkeypatch.setattr(common, "Simulator", Recording)
        result = common.run_colocation(
            common.MixConfig(
                ml="rnn1", policy="KP", cpu="stream", intensity=12, duration=10.0
            )
        )
        cell = sims[0]
        assert result.events_dispatched == cell.dispatched_events == 11_188
        # Reference mode has no signature short-circuit: one more solve.
        solves = 5_602 if reference_mode() else 5_601
        assert result.solver_stats["solves"] == solves
        assert cell.scheduled_events <= 14_100
