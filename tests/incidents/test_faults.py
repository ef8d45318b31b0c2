"""Incident schedules: validation, determinism, scenario round-trips."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.incidents.faults import (
    INCIDENT_KINDS,
    IncidentSchedule,
    IncidentSpec,
    default_schedule,
    load_scenario,
    save_scenario,
)


class TestIncidentSpec:
    def test_unknown_kind_rejected(self) -> None:
        with pytest.raises(ConfigurationError):
            IncidentSpec(kind="meteor-strike", start_s=1.0, duration_s=1.0)

    def test_node_kinds_need_a_node(self) -> None:
        with pytest.raises(ConfigurationError):
            IncidentSpec(kind="node-death", start_s=1.0, duration_s=1.0)
        spec = IncidentSpec(
            kind="node-death", start_s=1.0, duration_s=2.0, node=1
        )
        assert spec.end_s == 3.0
        assert spec.target == "node:1"

    def test_bad_times_rejected(self) -> None:
        with pytest.raises(ConfigurationError):
            IncidentSpec(
                kind="noisy-neighbor", start_s=-1.0, duration_s=1.0
            )
        with pytest.raises(ConfigurationError):
            IncidentSpec(
                kind="noisy-neighbor", start_s=0.0, duration_s=0.0
            )

    def test_targets_per_kind(self) -> None:
        noisy = IncidentSpec(
            kind="noisy-neighbor",
            start_s=0.0,
            duration_s=1.0,
            params=(("tenant", "abuser"),),
        )
        assert noisy.target == "tenant:abuser"
        misconfig = IncidentSpec(
            kind="routing-misconfig", start_s=0.0, duration_s=1.0
        )
        assert misconfig.target == "layer:routing"

    def test_param_last_write_wins(self) -> None:
        spec = IncidentSpec(
            kind="routing-misconfig",
            start_s=0.0,
            duration_s=1.0,
            params=(("drop_fraction", 0.2), ("drop_fraction", 0.7)),
        )
        assert spec.param("drop_fraction") == 0.7
        unset = IncidentSpec(kind="routing-misconfig", start_s=0.0, duration_s=1.0)
        assert unset.param("drop_fraction") == 0.5  # the kind's default


class TestIncidentSchedule:
    def test_out_of_order_rejected(self) -> None:
        a = IncidentSpec(kind="routing-misconfig", start_s=5.0, duration_s=1.0)
        b = IncidentSpec(kind="noisy-neighbor", start_s=1.0, duration_s=1.0)
        with pytest.raises(ConfigurationError):
            IncidentSchedule(incidents=(a, b))

    def test_empty_schedule_allowed(self) -> None:
        schedule = IncidentSchedule(seed=9)
        assert len(schedule) == 0
        assert schedule.kinds == ()


class TestDefaultSchedule:
    def test_deterministic_for_a_seed(self) -> None:
        a = default_schedule(3600.0, nodes=3, seed=5)
        b = default_schedule(3600.0, nodes=3, seed=5)
        assert a == b
        c = default_schedule(3600.0, nodes=3, seed=6)
        assert [i.start_s for i in c.incidents] != [
            i.start_s for i in a.incidents
        ]

    def test_covers_all_classes_without_overlap(self) -> None:
        schedule = default_schedule(86400.0, nodes=3, seed=0)
        assert schedule.kinds == INCIDENT_KINDS
        for prev, cur in zip(schedule.incidents, schedule.incidents[1:]):
            assert prev.end_s < cur.start_s
        assert schedule.incidents[-1].end_s < 86400.0

    def test_node_round_robin(self) -> None:
        schedule = default_schedule(3600.0, nodes=2, seed=0)
        node_targets = [
            i.node for i in schedule.incidents if i.node is not None
        ]
        assert node_targets == [0, 1, 0]

    def test_class_subset(self) -> None:
        schedule = default_schedule(
            3600.0, nodes=2, seed=0, classes=("node-death", "noisy-neighbor")
        )
        assert schedule.kinds == ("node-death", "noisy-neighbor")
        with pytest.raises(ConfigurationError):
            default_schedule(3600.0, nodes=2, classes=("bogus",))


class TestScenarioFiles:
    def test_round_trip(self, tmp_path) -> None:
        schedule = default_schedule(3600.0, nodes=3, seed=5)
        path = tmp_path / "scenario.json"
        save_scenario(schedule, str(path))
        loaded = load_scenario(str(path))
        assert loaded.seed == schedule.seed
        assert loaded.kinds == schedule.kinds
        # Bit-exact: a reloaded scenario must replay identically.
        assert loaded.incidents == schedule.incidents

    def test_save_creates_parent_directories(self, tmp_path) -> None:
        schedule = default_schedule(3600.0, nodes=3, seed=5)
        path = tmp_path / "nested" / "dir" / "scenario.json"
        save_scenario(schedule, str(path))
        assert load_scenario(str(path)) == schedule

    def test_missing_file_rejected(self, tmp_path) -> None:
        with pytest.raises(ConfigurationError):
            load_scenario(str(tmp_path / "nope.json"))

    def test_wrong_format_rejected(self, tmp_path) -> None:
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else"}', encoding="utf-8")
        with pytest.raises(ConfigurationError):
            load_scenario(str(path))


def _scenario(tmp_path, edit):
    """A saved default scenario, its JSON object changed by ``edit`` (which
    may return a replacement), as a file."""
    data = default_schedule(3600.0, nodes=3, seed=5).as_dict()
    data = edit(data) or data
    path = tmp_path / "hostile.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def _truncated(tmp_path):
    path = _scenario(tmp_path, lambda data: None)
    path.write_bytes(path.read_bytes()[:40])
    return path


def _set(key, value, incident=None):
    def edit(data):
        (data if incident is None else data["incidents"][incident])[key] = value
    return lambda tmp_path: _scenario(tmp_path, edit)


def _set_param(incident, key, value):
    def edit(data):
        data["incidents"][incident].setdefault("params", {})[key] = value
    return lambda tmp_path: _scenario(tmp_path, edit)


def _drop_kind(data):
    del data["incidents"][0]["kind"]


#: (case, function that writes the file, what the error names besides the path)
_HOSTILE = [
    ("truncated", _truncated, "cannot read scenario"),
    ("top-level-list", lambda p: _scenario(p, lambda d: [d]), "must be an object"),
    (
        "incident-not-object",
        lambda p: _scenario(p, lambda d: d["incidents"].__setitem__(0, 5)),
        "incidents[0] must be an object",
    ),
    ("no-kind", lambda p: _scenario(p, _drop_kind), "incidents[0] has no kind"),
    ("start-text", _set("start_s", "soon", 0), "incidents[0] start_s"),
    ("start-nan", _set("start_s", float("nan"), 0), "incidents[0] start_s"),
    ("params-list", _set("params", [1, 2], 1), "incidents[1] params"),
    ("seed-text", _set("seed", "x"), "seed"),
    ("node-text", _set("node", "zero", 0), "incidents[0] node"),
    # Incident params, by kind: [0] node-death, [1] telemetry-blackout,
    # [3] noisy-neighbor, [4] routing-misconfig.
    (
        "drop-fraction-text",
        _set_param(4, "drop_fraction", "half"),
        "incidents[4]: params.drop_fraction",
    ),
    (
        "drop-fraction-bool",
        _set_param(4, "drop_fraction", True),
        "incidents[4]: params.drop_fraction",
    ),
    (
        "drop-fraction-range",
        _set_param(4, "drop_fraction", 1.5),
        "incidents[4]: params.drop_fraction",
    ),
    ("typo-param", _set_param(4, "typo_param", 1), "incidents[4]: params.typo_param"),
    ("rate-text", _set_param(3, "rate_qps", "fast"), "incidents[3]: params.rate_qps"),
    ("demand-negative", _set_param(3, "demand", -5), "incidents[3]: params.demand"),
    ("tenant-empty", _set_param(3, "tenant", ""), "incidents[3]: params.tenant"),
    (
        "batch-workload-unknown",
        _set_param(1, "batch_workload", "nosuch"),
        "incidents[1]: params.batch_workload",
    ),
    (
        "batch-intensity-fraction",
        _set_param(1, "batch_intensity", 2.5),
        "incidents[1]: params.batch_intensity",
    ),
    (
        "node-death-param",
        _set_param(0, "drop_fraction", 0.5),
        "incidents[0]: params.drop_fraction",
    ),
]


class TestHostileScenarioFiles:
    @pytest.mark.parametrize(
        "build, names", [case[1:] for case in _HOSTILE], ids=[c[0] for c in _HOSTILE]
    )
    def test_named_error_and_exit_2(self, tmp_path, capsys, build, names):
        from repro.cli import main

        path = build(tmp_path)
        with pytest.raises(ConfigurationError) as caught:
            load_scenario(str(path))
        assert str(path) in str(caught.value) and names in str(caught.value)
        code = main([
            "fleet-incidents", "--scenario", str(path), "--trace-duration",
            "300", "--trace-rate", "2", "--nodes", "3",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and names in err, err
        assert "Traceback" not in err

    def test_spec_rejects_non_finite_times_and_negative_node(self) -> None:
        for start, duration in ((float("nan"), 1.0), (1.0, float("inf"))):
            with pytest.raises(ConfigurationError, match="finite"):
                IncidentSpec(
                    kind="noisy-neighbor", start_s=start, duration_s=duration
                )
        with pytest.raises(ConfigurationError, match="node >= 0"):
            IncidentSpec(kind="node-death", start_s=1.0, duration_s=1.0, node=-1)
