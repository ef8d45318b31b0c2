"""IncidentEngine composition: clean attach perturbs nothing, exports are
JSON-clean, and injected faults act on the orchestrator they target."""

from __future__ import annotations

import json

import pytest

from repro.fleet.config import FleetConfig
from repro.fleet.orchestrator import fleet_config_for_trace, run_fleet
from repro.incidents.engine import IncidentEngine
from repro.incidents.faults import IncidentSchedule, default_schedule
from repro.traces import TraceGenConfig, generate_trace


def _summary(result) -> dict:
    return result.summary()


class TestCleanAttach:
    def test_empty_schedule_is_bit_identical(self) -> None:
        config = FleetConfig(nodes=2, duration=3.0, warmup=1.0, seed=3)
        plain = run_fleet(config)
        hooked = run_fleet(
            config, hooks=IncidentEngine(IncidentSchedule(seed=3))
        )
        assert _summary(plain) == _summary(hooked)

    def test_empty_schedule_composes_with_trace_replay(self) -> None:
        trace = generate_trace(
            TraceGenConfig(seed=2, duration_s=90.0, rate_qps=3.0)
        )
        config = fleet_config_for_trace(trace, seed=5, nodes=2)
        plain = run_fleet(config, trace=trace)
        engine = IncidentEngine(IncidentSchedule(seed=5))
        hooked = run_fleet(config, trace=trace, hooks=engine)
        assert _summary(plain) == _summary(hooked)
        # The engine still observed every control tick.
        assert len(engine.ticks) > 0
        assert engine.alarms == []


class TestFaultedRun:
    @pytest.fixture(scope="class")
    def faulted(self):
        trace = generate_trace(
            TraceGenConfig(seed=2, duration_s=600.0, rate_qps=2.0)
        )
        config = fleet_config_for_trace(
            trace, seed=5, nodes=2, routing="random", interval=10.0,
            warmup=20.0,
        )
        schedule = default_schedule(
            600.0, nodes=2, seed=4,
            classes=("node-death", "stuck-actuator"),
        )
        engine = IncidentEngine(schedule, remediate=True)
        result = run_fleet(config, trace=trace, hooks=engine)
        return config, trace, schedule, engine, result

    def test_offered_stream_is_fault_invariant(self, faulted) -> None:
        config, trace, schedule, engine, result = faulted
        clean = run_fleet(
            config, trace=trace, hooks=IncidentEngine(IncidentSchedule())
        )
        # Admission-epoch accounting: faults change outcomes, never offers.
        assert result.offered_total == clean.offered_total
        assert result.good_total < clean.good_total

    def test_node_death_drops_are_accounted(self, faulted) -> None:
        _, _, _, engine, result = faulted
        assert result.requests_dropped > 0

    def test_alarms_and_remediations_fired(self, faulted) -> None:
        _, _, schedule, engine, _ = faulted
        assert engine.alarms, "faults must raise alarms"
        playbooks = {r["playbook"] for r in engine.export()["remediations"]}
        assert "quarantine-reroute" in playbooks

    def test_export_is_json_clean_and_picklable(self, faulted) -> None:
        import pickle

        _, _, _, engine, _ = faulted
        export = engine.export()
        assert json.loads(json.dumps(export)) == export
        assert pickle.loads(pickle.dumps(export)) == export
        assert set(export) == {
            "incidents", "remediate", "ticks", "alarms", "remediations",
        }

    def test_rerun_is_deterministic(self, faulted) -> None:
        config, trace, schedule, engine, result = faulted
        engine2 = IncidentEngine(schedule, remediate=True)
        result2 = run_fleet(config, trace=trace, hooks=engine2)
        assert engine.export() == engine2.export()
        assert _summary(result) == _summary(result2)


class TestMembershipGrowth:
    def test_autoscaler_grows_past_starting_size(self) -> None:
        """Members added past the starting fleet size get a journal cursor
        of their own (the engine used to size it once, at start)."""
        from repro.serve import AutoscalerConfig, FleetService

        trace = generate_trace(
            TraceGenConfig(seed=3, duration_s=20.0, rate_qps=400.0)
        )
        config = fleet_config_for_trace(trace, seed=1, nodes=1)
        schedule = default_schedule(
            20.0, nodes=1, seed=1, classes=("stuck-actuator",)
        )
        engine = IncidentEngine(schedule, remediate=True)
        service = FleetService(
            config,
            trace=trace,
            hooks=engine,
            autoscaler=AutoscalerConfig(
                min_nodes=1, max_nodes=3, epochs_up=1, cooldown_epochs=0
            ),
            epoch_s=1.0,
        )
        service.start()
        service.run_to_end()
        result = service.finish()
        assert len(service.orchestrator.members) > 1
        assert any(
            command.startswith("autoscale-grow:")
            for _, command in service.commands
        )
        assert len(engine.ticks) > 0
        assert result.offered_total > 0
