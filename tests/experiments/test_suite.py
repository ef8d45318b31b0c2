"""Tests for the suite orchestrator."""

from __future__ import annotations

from repro.experiments.suite import format_suite, run_suite
from repro.obs import ObsConfig, RunObserver


class TestSuite:
    def test_subset_runs_and_formats(self) -> None:
        entries = run_suite(experiments=["fig02", "table1"])
        assert [e.exp_id for e in entries] == ["fig02", "table1"]
        text = format_suite(entries)
        assert "## fig02" in text
        assert "Table I" in text

    def test_per_workload_expansion(self) -> None:
        entries = run_suite(experiments=["fig16"], duration=10.0)
        assert [e.exp_id for e in entries] == ["fig16:cnn1", "fig16:cnn2"]

    def test_timings_recorded(self) -> None:
        entries = run_suite(experiments=["fig02"])
        assert entries[0].seconds >= 0.0


class TestSuiteObservability:
    def test_serial_observer_collects_suite_and_experiment_data(
        self, tmp_path, metrics_rows
    ) -> None:
        observer = RunObserver(
            ObsConfig(metrics_path=tmp_path / "m.jsonl"), name="report"
        )
        entries = run_suite(experiments=["fig02"], observer=observer)
        assert len(entries) == 1
        kinds = {row["kind"] for row in metrics_rows(observer)}
        # Suite-level roll-up plus fig02's own deep export.
        assert "suite_entry" in kinds
        assert "fleet_cdf" in kinds
        assert observer.metrics.counter("suite.experiments").value == 1
        # Per-experiment wall-clock spans land on the suite lane.
        assert len(observer.trace) >= 1

    def test_parallel_suite_keeps_suite_level_view(
        self, tmp_path, metrics_rows
    ) -> None:
        observer = RunObserver(
            ObsConfig(metrics_path=tmp_path / "m.jsonl"), name="report"
        )
        entries = run_suite(
            experiments=["fig02", "table1"], observer=observer, jobs=2
        )
        assert len(entries) == 2
        rows = metrics_rows(observer)
        kinds = {row["kind"] for row in rows}
        # Workers cannot share the parent observer: no deep export...
        assert "fleet_cdf" not in kinds
        # ...but the suite roll-up is intact.
        assert sum(1 for r in rows if r["kind"] == "suite_entry") == 2

    def test_disabled_observer_changes_nothing(self) -> None:
        observer = RunObserver(ObsConfig.disabled())
        entries = run_suite(experiments=["fig02"], observer=observer)
        plain = run_suite(experiments=["fig02"])
        assert entries[0].text == plain[0].text
        assert observer.finalize() == []
