"""Tests for the experiment registry (cheap experiments run end-to-end)."""

from __future__ import annotations

import pytest

from repro.errors import ExperimentError
from repro.experiments import suite
from repro.experiments.registry import accepts, experiment_ids, run_experiment
from repro.obs import ObsConfig, RunObserver


class TestRegistry:
    def test_all_paper_artifacts_registered(self) -> None:
        ids = experiment_ids()
        for fig in ("fig02", "fig03", "fig05", "fig07", "fig09", "fig10",
                    "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
                    "table1"):
            assert fig in ids
        assert "ablation-hwqos" in ids
        assert "ablation-backfill" in ids
        assert "ablation-mba" in ids
        assert "ablation-infeed-ratio" in ids
        assert "ablation-knee" in ids
        assert "ablation-sensor-noise" in ids

    def test_unknown_experiment_rejected(self) -> None:
        with pytest.raises(ExperimentError):
            run_experiment("fig99")
        with pytest.raises(ExperimentError, match="unknown experiment"):
            accepts("fig99")

    def test_fig02_runs(self) -> None:
        result, text = run_experiment("fig02", machines=300)
        assert 0.0 < result.fraction_above_70pct < 0.5
        assert "Fig 2" in text

    def test_table1_runs(self) -> None:
        rows, text = run_experiment("table1")
        assert len(rows) == 4
        assert "Table I" in text

    def test_table1_intensities_match_paper(self) -> None:
        rows, _ = run_experiment("table1")
        by_name = {r.name: r for r in rows}
        for name, row in by_name.items():
            assert row.cpu_intensity == row.paper_cpu_intensity, name
            assert row.memory_intensity == row.paper_memory_intensity, name


class TestAccepts:
    def test_reads_the_runner_signature(self) -> None:
        assert accepts("fig03") == {"requests", "observer"}
        assert accepts("table1") == frozenset()
        assert {"ml", "duration"} <= accepts("fig07")
        assert "policy" in accepts("ablation-churn")

    def test_unaccepted_keyword_rejected_before_running(self) -> None:
        with pytest.raises(ExperimentError, match="fig02 takes no duration"):
            run_experiment("fig02", duration=3.0)
        with pytest.raises(ExperimentError, match="bogus, ml"):
            run_experiment("fig09", ml="cnn1", bogus=1)

    def test_suite_passes_only_accepted_keywords(
        self, monkeypatch, tmp_path
    ) -> None:
        # No simulation: capture what every suite point would pass.
        passed: list[tuple[str, dict]] = []

        def capture(exp_id: str, **kwargs):
            passed.append((exp_id, kwargs))
            return None, ""

        monkeypatch.setattr(suite, "run_experiment", capture)
        observer = RunObserver(ObsConfig(metrics_path=tmp_path / "m.jsonl"))
        for point in suite.suite_points():
            suite._suite_point(point, observer=observer)
        assert {exp_id for exp_id, _ in passed} == set(experiment_ids())
        for exp_id, kwargs in passed:
            assert set(kwargs) <= accepts(exp_id), exp_id
        observed = {exp_id for exp_id, kwargs in passed if "observer" in kwargs}
        assert observed == {e for e in experiment_ids() if "observer" in accepts(e)}

    def test_suite_runs_fig03(self) -> None:
        entries = suite.run_suite(["fig03"])
        assert [e.exp_id for e in entries] == ["fig03"]
