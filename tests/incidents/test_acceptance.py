"""PR acceptance scenario: a seeded multi-incident day over a trace replay.

All five incident classes fire over a day-long trace; every class must be
detected promptly, localized to its ground-truth root cause, remediated by
its designated playbook, and cost strictly less SLO damage with remediation
than without — with the incident/alarm/remediation streams exported via
obs records and scenario provenance in the manifest.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.fleet_incidents import run_fleet_incidents
from repro.incidents.faults import INCIDENT_KINDS
from repro.obs import ObsConfig, RunObserver
from repro.traces import TraceGenConfig

_INTERVAL = 60.0

#: The playbook each incident class must trigger in the remediated run.
_EXPECTED_PLAYBOOK = {
    "node-death": "quarantine-reroute",
    "telemetry-blackout": "conservative-governor",
    "stuck-actuator": "drain-batch",
    "noisy-neighbor": "throttle-tenant",
    "routing-misconfig": "restore-routing",
}


@pytest.fixture(scope="module")
def day(tmp_path_factory):
    out = tmp_path_factory.mktemp("incidents-obs")
    observer = RunObserver(
        ObsConfig(metrics_path=str(out / "metrics.jsonl")),
        name="fleet-incidents",
    )
    result = run_fleet_incidents(
        gen=TraceGenConfig(
            seed=3, duration_s=86400.0, rate_qps=0.15, burst_multiplier=1.0
        ),
        nodes=3,
        routing="random",
        interval=_INTERVAL,
        warmup=120.0,
        seed=7,
        incident_seed=5,
        intruder_rate_qps=0.3,
        intruder_demand=2500.0,
        observer=observer,
    )
    paths = observer.finalize(command="pytest fleet-incidents acceptance")
    return result, observer, paths


class TestScenarioShape:
    def test_all_five_classes_over_a_day(self, day) -> None:
        result, _, _ = day
        assert result.schedule.kinds == INCIDENT_KINDS
        assert len(result.schedule) >= 4
        assert result.trace_duration_s == pytest.approx(86400.0)

    def test_offered_stream_identical_across_modes(self, day) -> None:
        result, _, _ = day
        by_mode = result.exports[0]
        offered = {m: e["ticks"][-1][1] for m, e in by_mode.items()}
        assert len(set(offered.values())) == 1


class TestPerClassOutcome:
    def test_every_class_detected_promptly(self, day) -> None:
        result, _, _ = day
        for score in result.scorecards[0].incidents:
            assert score.detection_latency_s is not None, score.kind
            assert score.detection_latency_s <= 4 * _INTERVAL, score.kind

    def test_every_class_localized_correctly(self, day) -> None:
        result, _, _ = day
        for score in result.scorecards[0].incidents:
            assert score.localization_correct, (
                score.kind, score.localized_as, score.target,
            )

    def test_designated_playbook_fired(self, day) -> None:
        result, _, _ = day
        for score in result.scorecards[0].incidents:
            assert _EXPECTED_PLAYBOOK[score.kind] in score.playbooks, (
                score.kind, score.playbooks,
            )

    def test_remediation_strictly_reduces_damage_per_class(self, day) -> None:
        result, _, _ = day
        for score in result.scorecards[0].incidents:
            assert score.damage_norem > 0, score.kind
            assert score.damage_rem < score.damage_norem, score.kind

    def test_remediation_strictly_reduces_total_damage(self, day) -> None:
        result, _, _ = day
        card = result.scorecards[0]
        assert card.good_norem < card.good_rem <= card.good_clean
        assert card.total_damage_rem < card.total_damage_norem
        # Remediation recovers the overwhelming majority of the damage.
        assert card.total_damage_rem <= 0.2 * card.total_damage_norem


class TestObsExport:
    def test_incident_alarm_remediation_records(
        self, day, metrics_rows
    ) -> None:
        result, observer, _ = day
        rows = metrics_rows(observer)
        kinds = {r["kind"] for r in rows}
        assert {"incident", "alarm", "remediation"} <= kinds
        incidents = [r for r in rows if r["kind"] == "incident"]
        assert sorted(r["incident_kind"] for r in incidents) == sorted(
            INCIDENT_KINDS
        )
        for row in incidents:
            assert json.loads(json.dumps(row)) == row

    def test_manifest_carries_scenario_provenance(self, day) -> None:
        _, _, paths = day
        manifest_path = next(p for p in paths if "manifest" in str(p))
        manifest = json.loads(open(manifest_path, encoding="utf-8").read())
        config = manifest["config"]
        assert config["incident_scenario"] == "generated(seed=5)"
        assert config["incident_seed"] == 5
        assert tuple(config["incident_classes"]) == INCIDENT_KINDS
