"""Miniature end-to-end runs of the sweep drivers.

Full-size sweeps live in ``benchmarks/``; these smoke tests run each driver
at reduced scope so the driver plumbing (point bookkeeping, normalization,
formatting) is exercised in the unit suite.
"""

from __future__ import annotations

import pytest

from repro.control.records import ControlTickRecord
from repro.experiments.fig07_backpressure import format_fig07, run_fig07
from repro.experiments.fig09_cnn1_stitch import format_fig09, run_fig09
from repro.experiments.fig10_rnn1_cpuml import format_fig10, run_fig10
from repro.experiments.fig11_params_cnn1 import (
    _steady_state,
    format_params,
    run_param_sweep,
)


class TestFig07Driver:
    def test_mini_sweep(self) -> None:
        result = run_fig07("cnn2", duration=10.0, warmup=3.0, fractions=(0.0, 1.0))
        assert len(result.points) == 6  # 2 fractions x 3 levels
        worst = result.point("H", 0.0)
        best = result.point("H", 1.0)
        assert best.ml_perf_norm >= worst.ml_perf_norm
        assert best.saturation <= worst.saturation
        assert "Fig 7" in format_fig07(result)

    def test_missing_point_raises(self) -> None:
        result = run_fig07("cnn2", duration=10.0, warmup=3.0, fractions=(0.0,))
        with pytest.raises(KeyError):
            result.point("H", 0.75)


class TestFig09Driver:
    def test_mini_sweep(self) -> None:
        result = run_fig09(instances=(1, 4), policies=("BL", "KP"), duration=12.0)
        assert result.ml_perf["BL"][1] < result.ml_perf["KP"][1]
        # Normalization anchor: BL @ first instance count == 1.0.
        assert result.cpu_throughput["BL"][0] == pytest.approx(1.0)
        assert "Fig 9a" in format_fig09(result)


class TestFig10Driver:
    def test_mini_sweep(self) -> None:
        result = run_fig10(threads=(4, 16), policies=("BL", "KP-SD"), duration=12.0)
        assert result.qps["KP-SD"][1] > result.qps["BL"][1]
        assert result.cpu_throughput["BL"][0] == pytest.approx(1.0)
        assert "Fig 10c" in format_fig10(result)


class TestParamSweep:
    def test_steady_state_uses_second_half(self) -> None:
        params = [
            ControlTickRecord(time=float(i), lo_cores=c, lo_prefetchers=0,
                              backfill_cores=0)
            for i, c in enumerate([10, 9, 8, 4, 4, 4])
        ]
        assert _steady_state(params, "lo_cores") == pytest.approx(4.0)

    def test_steady_state_empty(self) -> None:
        assert _steady_state([], "lo_cores") == 0.0

    def test_mini_param_sweep(self) -> None:
        result = run_param_sweep("cnn1", "stitch", (1, 5), duration=10.0)
        assert len(result.ct_cores) == 2
        assert max(result.ct_cores) == 1.0  # normalized
        assert "runtime parameters" in format_params(result, "Fig 11")
