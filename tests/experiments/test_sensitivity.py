"""Tests for the raw sensitivity runner (Figs 5/15/16 substrate)."""

from __future__ import annotations

import pytest

from repro.errors import ExperimentError
from repro.experiments.common import standalone_performance
from repro.experiments.registry import run_experiment
from repro.experiments.sensitivity import run_sensitivity

FAST = dict(duration=12.0, warmup=3.0)


class TestRunSensitivity:
    def test_baseline_positive(self) -> None:
        assert run_sensitivity("cnn1", None, **FAST) > 0

    @pytest.mark.parametrize("ml", ["rnn1", "cnn1", "cnn2", "cnn3"])
    def test_baseline_is_the_standalone_run(self, ml: str) -> None:
        # Figs 5, 15 and 16 normalize by the shared standalone run: the ML
        # task alone on the first cores of its socket, as placed here.
        assert standalone_performance(ml, **FAST)[0] == run_sensitivity(
            ml, None, **FAST
        )

    @pytest.mark.parametrize("exp_id", ["fig05", "fig15", "fig16"])
    def test_horizon_within_warmup_rejected(self, exp_id: str) -> None:
        # A horizon inside the 6 s warmup measures nothing: a 0.0 baseline
        # that the figures would divide by.
        with pytest.raises(ExperimentError, match="duration must exceed warmup"):
            run_experiment(exp_id, duration=4.0)

    def test_dram_hurts_more_than_llc(self) -> None:
        base = run_sensitivity("cnn1", None, **FAST)
        llc = run_sensitivity("cnn1", "llc", **FAST)
        dram = run_sensitivity("cnn1", "dram", "H", **FAST)
        assert dram < llc < base

    def test_remote_dram_hurts_more_than_local_on_cloud_tpu(self) -> None:
        local = run_sensitivity("cnn2", "dram", "H", **FAST)
        remote = run_sensitivity(
            "cnn2", "remote-dram", "H",
            remote_data_fraction=1.0, remote_thread_fraction=0.0, **FAST
        )
        assert remote < local

    def test_remote_with_no_cross_traffic_equals_mild(self) -> None:
        # All data and threads remote: traffic never crosses the link and
        # never touches the ML socket.
        base = run_sensitivity("cnn1", None, **FAST)
        remote = run_sensitivity(
            "cnn1", "remote-dram", "H",
            remote_data_fraction=0.0, remote_thread_fraction=0.0, **FAST
        )
        assert remote == pytest.approx(base, rel=0.05)

    def test_fraction_validation(self) -> None:
        with pytest.raises(ExperimentError):
            run_sensitivity("cnn1", "remote-dram", remote_data_fraction=1.5, **FAST)
        with pytest.raises(ExperimentError):
            run_sensitivity("cnn1", "remote-dram", remote_thread_fraction=-0.1, **FAST)
