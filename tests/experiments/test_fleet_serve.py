"""The fleet-serve experiment family: driver, determinism, wiring."""

from __future__ import annotations

import pytest

from repro.errors import ExperimentError
from repro.experiments.fleet_serve import (
    format_fleet_serve,
    parse_schedule,
    run_fleet_serve,
)
from repro.experiments.fleet_trace import run_fleet_trace
from repro.experiments.registry import accepts, experiment_ids, run_experiment
from repro.obs import ObsConfig, RunObserver
from repro.serve import AutoscalerConfig
from repro.traces import TraceGenConfig


def _gen(**overrides) -> TraceGenConfig:
    defaults = dict(seed=5, duration_s=20.0, rate_qps=30.0)
    defaults.update(overrides)
    return TraceGenConfig(**defaults)


def _run(**kwargs):
    defaults = dict(gen=_gen(), nodes=2, warmup=1.0, seed=0)
    defaults.update(kwargs)
    return run_fleet_serve(**defaults)


class TestSchedule:
    def test_parses_and_sorts(self):
        schedule = parse_schedule(
            ["20:routing:random", "5:evict:ads", "10:grow", "10:shrink"]
        )
        assert schedule == (
            (5, "evict", "ads"),
            (10, "grow", None),
            (10, "shrink", None),
            (20, "routing", "random"),
        )

    @pytest.mark.parametrize(
        "spec",
        ["x:grow", "5", "-1:grow", "5:reboot", "5:evict", "5:grow:extra"],
    )
    def test_rejects_malformed_specs(self, spec):
        with pytest.raises(ExperimentError):
            parse_schedule([spec])


class TestDriver:
    def test_plain_serve_matches_fleet_trace(self):
        # Command-free, autoscaler-free serving is the same run as
        # fleet-trace: one orchestrator, stepped instead of batch.
        serve = _run()
        replay = run_fleet_trace(gen=_gen(), nodes=2, warmup=1.0, seed=0)
        assert serve.summaries == replay.summaries
        assert serve.commands == ()

    def test_commands_applied_at_epochs(self):
        result = _run(
            commands=["3:evict:search", "8:admit:search", "8:grow"],
            epoch_s=1.0,
        )
        assert result.commands == (
            (3, "evict:search"), (8, "admit:search"), (8, "grow:2"),
        )
        assert result.summaries[0]["requests_dropped"] > 0
        assert result.snapshots[-1]["nodes_built"] == 3

    def test_autoscaler_appears_in_command_log(self):
        result = _run(
            autoscaler=AutoscalerConfig(
                min_nodes=1, max_nodes=4, epochs_down=2, cooldown_epochs=0
            ),
            epoch_s=1.0,
        )
        assert result.autoscaled
        assert any(
            command.startswith("autoscale-") for _, command in result.commands
        )

    def test_epoch_bookkeeping(self):
        result = _run(epoch_s=1.5)
        assert result.epoch_s == 1.5
        assert result.epochs == len(result.snapshots)
        assert result.snapshots[-1]["time_s"] == result.trace_duration_s

    def test_formatter_renders(self):
        result = _run(commands=["3:evict:search"], epoch_s=1.0)
        text = format_fleet_serve(result)
        assert "fleet-serve:" in text
        assert "commands applied" in text
        assert "epoch     3  evict:search" in text
        assert "fleet efficiency" in text

    def test_rejects_bad_arguments(self):
        with pytest.raises(ExperimentError, match="trials"):
            _run(trials=0)
        with pytest.raises(ExperimentError, match="together"):
            _run(save_path="x.bin")
        with pytest.raises(ExperimentError, match="trials == 1"):
            _run(save_path="x.bin", save_at_epoch=2, trials=2)


class TestDeterminism:
    def test_jobs_do_not_change_results(self):
        plan = dict(
            trials=4,
            commands=["3:evict:search", "8:admit:search"],
            autoscaler=AutoscalerConfig(
                min_nodes=1, max_nodes=4, epochs_down=2, cooldown_epochs=0
            ),
            epoch_s=1.0,
        )
        serial = _run(jobs=1, **plan)
        pooled = _run(jobs=4, **plan)
        assert serial.summaries == pooled.summaries
        assert serial.commands == pooled.commands
        assert serial.snapshots == pooled.snapshots

    def test_save_restore_through_driver(self, tmp_path):
        path = str(tmp_path / "ckpt.bin")
        plan = dict(commands=["3:evict:search", "12:admit:search"], epoch_s=1.0)
        saved = _run(save_path=path, save_at_epoch=6, **plan)
        restored = _run(restore_path=path, **plan)
        assert restored.source == f"restored({path})"
        assert saved.summaries == restored.summaries
        assert saved.snapshots == restored.snapshots
        assert saved.commands == restored.commands

    def test_restore_reports_the_checkpointed_plan(self, tmp_path):
        # The checkpoint, not the restoring call, fixes the epoch length
        # and the autoscaler.
        path = str(tmp_path / "ckpt.bin")
        saved = _run(
            save_path=path, save_at_epoch=4, epoch_s=1.5,
            autoscaler=AutoscalerConfig(min_nodes=1, max_nodes=4),
        )
        restored = _run(restore_path=path, nodes=3, epoch_s=4.0)
        assert (restored.epoch_s, restored.autoscaled) == (1.5, True)
        assert restored.nodes == saved.nodes == 2
        assert restored.summaries == saved.summaries

    def test_saved_run_is_the_plain_run(self, tmp_path):
        # A nonzero seed: trial 0 runs under its derived seed, and so must
        # the run that checkpoints it.
        path = str(tmp_path / "ckpt.bin")
        plan = dict(
            commands=["3:evict:search", "12:admit:search"], epoch_s=1.0, seed=3
        )
        plain = _run(**plan)
        saved = _run(save_path=path, save_at_epoch=6, **plan)
        restored = _run(restore_path=path, **plan)
        for run in (saved, restored):
            assert run.summaries == plain.summaries
            assert run.snapshots == plain.snapshots
            assert run.commands == plain.commands


class TestWiring:
    def test_registry_entry(self):
        assert "fleet-serve" in experiment_ids()
        assert {"jobs", "observer"} <= accepts("fleet-serve")

    def test_run_experiment_smoke(self):
        result, text = run_experiment(
            "fleet-serve", gen=_gen(duration_s=10.0), nodes=2, warmup=1.0
        )
        assert result.epochs > 0
        assert "fleet-serve:" in text

    def test_observer_rows(self, tmp_path, metrics_rows):
        observer = RunObserver(
            ObsConfig(
                trace_dir=str(tmp_path), metrics_path=tmp_path / "m.jsonl"
            ),
            name="serve-test",
        )
        result = _run(
            gen=_gen(duration_s=10.0),
            commands=["2:evict:search"],
            observer=observer,
        )
        rows = metrics_rows(observer)
        kinds = {record["kind"] for record in rows}
        assert {"serve_run", "serve_tenant", "serve_epoch",
                "serve_command"} <= kinds
        epochs = [r for r in rows if r["kind"] == "serve_epoch"]
        assert len(epochs) == result.epochs
