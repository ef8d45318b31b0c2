"""The fleet-trace experiment family: replay, determinism, wiring."""

from __future__ import annotations

import pytest

from repro.errors import ExperimentError
from repro.experiments.fleet_trace import format_fleet_trace, run_fleet_trace
from repro.experiments.registry import accepts, experiment_ids, run_experiment
from repro.obs import ObsConfig, RunObserver
from repro.traces import TraceGenConfig, generate_trace, save_trace


def _gen(**overrides) -> TraceGenConfig:
    defaults = dict(seed=5, duration_s=20.0, rate_qps=30.0)
    defaults.update(overrides)
    return TraceGenConfig(**defaults)


def _run(**kwargs):
    defaults = dict(gen=_gen(), nodes=2, warmup=1.0, seed=0)
    defaults.update(kwargs)
    return run_fleet_trace(**defaults)


class TestReplay:
    def test_offered_matches_post_warmup_trace_volume(self):
        trace = generate_trace(_gen())
        result = _run(trace=trace, gen=None)
        post_warmup = int((trace.arrivals_s >= 1.0).sum())
        # Every post-warmup trace arrival is offered exactly once (arrivals
        # in the final instant may still be queued, but offered is counted
        # at admission).
        assert result.summaries[0]["offered"] == post_warmup

    def test_time_of_day_curves_present(self):
        result = _run(window_s=5.0)
        assert result.window_fleet
        starts = [row["start_s"] for row in result.window_fleet]
        assert starts == sorted(starts)
        for row in result.windows:
            assert 0.0 <= row["attainment"] <= 1.0

    def test_tenants_come_from_trace_header(self):
        result = _run()
        assert [t.name for t in result.tenant_rows] == [
            "search", "ads", "assist",
        ]

    def test_trace_path_source(self, tmp_path):
        path = tmp_path / "day.jsonl.gz"
        save_trace(generate_trace(_gen()), path)
        result = run_fleet_trace(
            trace_path=str(path), nodes=2, warmup=1.0, seed=0
        )
        assert result.source == str(path)
        assert result.requests > 0

    def test_duration_prefix_replay(self):
        full = _run()
        prefix = _run(duration=10.0)
        assert prefix.summaries[0]["offered"] < full.summaries[0]["offered"]

    def test_rejects_conflicting_sources(self):
        trace = generate_trace(_gen())
        with pytest.raises(ExperimentError):
            run_fleet_trace(trace=trace, gen=_gen())

    def test_rejects_zero_trials(self):
        with pytest.raises(ExperimentError):
            _run(trials=0)


class TestDeterminism:
    def test_summaries_identical_across_jobs(self):
        """`--jobs` is a pure wall-clock knob: trial results are bit-equal."""
        serial = _run(trials=3, jobs=1)
        parallel = _run(trials=3, jobs=4)
        assert serial.summaries == parallel.summaries
        assert serial.tenant_rows == parallel.tenant_rows
        assert serial.efficiency == parallel.efficiency

    def test_repeat_invocation_bit_identical(self):
        assert _run(trials=2).summaries == _run(trials=2).summaries

    def test_trials_have_distinct_seeds(self):
        result = _run(trials=3)
        seeds = [s["seed"] for s in result.summaries]
        assert len(set(seeds)) == 3


class TestFormatting:
    def test_table_shape(self):
        result = _run()
        text = format_fleet_trace(result)
        assert text.startswith("fleet-trace:")
        assert "time-of-day curve" in text
        assert "search" in text
        assert "fleet efficiency" in text


class TestWiring:
    def test_registered(self):
        assert "fleet-trace" in experiment_ids()
        assert {"jobs", "observer"} <= accepts("fleet-trace")

    def test_run_experiment_formats(self):
        result, text = run_experiment("fleet-trace", duration=10.0)
        assert result.requests > 0
        assert text.startswith("fleet-trace:")

    def test_observer_records(self, tmp_path, metrics_rows):
        observer = RunObserver(
            ObsConfig(metrics_path=tmp_path / "m.jsonl"), name="fleet-trace"
        )
        _run(trials=1, observer=observer)
        rows = metrics_rows(observer)
        kinds = {record["kind"] for record in rows}
        assert {"fleet_run", "fleet_tenant", "fleet_window"} <= kinds
        windows = [r for r in rows if r["kind"] == "fleet_window"]
        assert {"tenant", "fleet"} == {r["scope"] for r in windows}
        config = observer._run_config
        assert config["trace_requests"] > 0
        assert config["trace_tenants"] == ["search", "ads", "assist"]
        assert config["trace_window_s"] > 0
        paths = observer.finalize(command="test")
        assert paths
