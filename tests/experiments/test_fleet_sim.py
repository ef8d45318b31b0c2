"""The fleet-sim experiment family: determinism, routing value, wiring."""

from __future__ import annotations

import pytest

from repro.errors import ExperimentError
from repro.experiments.fleet_sim import format_fleet_sim, run_fleet_sim
from repro.experiments.registry import accepts, experiment_ids, run_experiment
from repro.obs import ObsConfig, RunObserver


def _run(**kwargs):
    defaults = dict(nodes=2, duration=3.0, warmup=1.0, seed=0)
    defaults.update(kwargs)
    return run_fleet_sim(**defaults)


class TestDeterminism:
    def test_summaries_identical_across_jobs(self):
        """`--jobs` is a pure wall-clock knob: trial results are bit-equal."""
        serial = _run(trials=3, jobs=1)
        parallel = _run(trials=3, jobs=2)
        assert serial.summaries == parallel.summaries
        assert serial.tenant_rows == parallel.tenant_rows
        assert serial.efficiency == parallel.efficiency

    def test_trials_have_distinct_seeds(self):
        result = _run(trials=3)
        seeds = [s["seed"] for s in result.summaries]
        assert len(set(seeds)) == 3


class TestRoutingValue:
    """The checked-in claim: interference-aware beats random routing."""

    @pytest.fixture(scope="class")
    def outcomes(self):
        kwargs = dict(
            nodes=4,
            policy="BL",
            batch_jobs=3,
            batch_intensity=8,
            batch_eviction=False,
            duration=6.0,
            warmup=2.0,
            seed=0,
        )
        return {
            routing: run_fleet_sim(routing=routing, **kwargs)
            for routing in ("interference-aware", "random")
        }

    def test_better_p99_per_tenant(self, outcomes):
        aware = outcomes["interference-aware"].tenant_rows
        random_ = outcomes["random"].tenant_rows
        for aware_row, random_row in zip(aware, random_):
            assert aware_row.name == random_row.name
            assert aware_row.p99_ms < random_row.p99_ms

    def test_no_worse_slo_attainment(self, outcomes):
        aware = outcomes["interference-aware"].tenant_rows
        random_ = outcomes["random"].tenant_rows
        for aware_row, random_row in zip(aware, random_):
            assert aware_row.attainment >= random_row.attainment
        assert (
            outcomes["interference-aware"].serving_yield
            >= outcomes["random"].serving_yield
        )


class TestAggregation:
    def test_tenant_rows_pool_trials(self):
        result = _run(trials=2)
        assert [row.name for row in result.tenant_rows] == ["search", "assist"]
        for index, row in enumerate(result.tenant_rows):
            per_trial_offered = [
                s["tenants"][index]["offered"] for s in result.summaries
            ]
            assert row.offered == sum(per_trial_offered)
            per_trial_p99 = [
                s["tenants"][index]["p99_ms"] for s in result.summaries
            ]
            # Summary rows round to 3 decimals; compare at that precision.
            assert row.p99_ms == pytest.approx(max(per_trial_p99), abs=1e-3)

    def test_rejects_zero_trials(self):
        with pytest.raises(ExperimentError):
            _run(trials=0)

    def test_short_duration_scales_warmup(self):
        """`repro report --duration 1` style invocations stay valid."""
        result = run_fleet_sim(nodes=1, duration=1.0, warmup=2.0, trials=1)
        assert result.results[0].config.warmup == pytest.approx(0.25)

    def test_load_override_scales_tenants(self):
        light = _run(load=0.25)
        tenants = light.results[0].config.tenants
        assert sum(t.load_fraction for t in tenants) == pytest.approx(0.25)
        # The 70/30-ish tenant split is preserved.
        assert tenants[0].load_fraction > tenants[1].load_fraction


class TestFormatting:
    def test_table_shape(self):
        result = _run(trials=1)
        text = format_fleet_sim(result)
        assert "fleet-sim: 2 nodes x KP" in text
        assert "search" in text and "assist" in text
        assert "fleet efficiency" in text
        assert "batch evictions" in text


class TestWiring:
    def test_registered(self):
        assert "fleet-sim" in experiment_ids()
        assert {"jobs", "observer"} <= accepts("fleet-sim")

    def test_run_experiment_formats(self):
        result, text = run_experiment(
            "fleet-sim", nodes=1, duration=2.0, warmup=0.5, trials=1
        )
        assert result.nodes == 1
        assert text.startswith("fleet-sim: 1 nodes")

    def test_observer_records(self, tmp_path, metrics_rows):
        observer = RunObserver(
            ObsConfig(metrics_path=tmp_path / "m.jsonl"), name="fleet-sim"
        )
        _run(trials=2, observer=observer)
        rows = metrics_rows(observer)
        kinds = {record["kind"] for record in rows}
        assert {"fleet_run", "fleet_tenant", "fleet_telemetry"} <= kinds
        runs = [r for r in rows if r["kind"] == "fleet_run"]
        assert [r["trial"] for r in runs] == [0, 1]
        paths = observer.finalize(command="test")
        assert (tmp_path / "m.jsonl").exists()
        assert paths
