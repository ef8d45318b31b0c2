"""Tests for the CPU workload catalog."""

from __future__ import annotations

import pytest

from repro.errors import WorkloadError
from repro.workloads.cpu.aggressors import AGGRESSOR_LEVELS
from repro.workloads.cpu.catalog import cpu_workload, cpu_workload_names


class TestCatalog:
    def test_all_names_resolve(self) -> None:
        for name in cpu_workload_names():
            intensity = "H" if name in ("dram", "remote-dram") else 2
            profile = cpu_workload(name, intensity)
            assert profile.phase.bw_gbps >= 0

    def test_unknown_name_rejected(self) -> None:
        with pytest.raises(WorkloadError):
            cpu_workload("nope")

    def test_unknown_level_rejected(self) -> None:
        with pytest.raises(WorkloadError):
            cpu_workload("dram", "X")

    @pytest.mark.parametrize("name", ["stream", "stitch", "cpuml"])
    @pytest.mark.parametrize("intensity", [0, -1, "L", True])
    def test_counted_intensity_must_be_a_positive_int(
        self, name, intensity
    ) -> None:
        with pytest.raises(WorkloadError) as excinfo:
            cpu_workload(name, intensity)
        message = str(excinfo.value)
        assert repr(name) in message and repr(intensity) in message

    def test_stitch_scales_with_instances(self) -> None:
        one = cpu_workload("stitch", 1)
        four = cpu_workload("stitch", 4)
        assert four.phase.bw_gbps == pytest.approx(4 * one.phase.bw_gbps)
        assert four.phase.threads == 4 * one.phase.threads

    def test_cpuml_scales_with_threads(self) -> None:
        two = cpu_workload("cpuml", 2)
        eight = cpu_workload("cpuml", 8)
        assert eight.phase.bw_gbps == pytest.approx(4 * two.phase.bw_gbps)

    def test_aggressor_levels_ordered(self) -> None:
        demands = [
            cpu_workload("dram", level).phase.bw_gbps for level in ("L", "M", "H")
        ]
        assert demands == sorted(demands)
        assert set(AGGRESSOR_LEVELS) == {"L", "M", "H"}

    def test_llc_aggressor_traits(self) -> None:
        profile = cpu_workload("llc")
        assert profile.phase.working_set_mb >= 28.0
        assert profile.phase.smt_aggression > 0.5
        assert profile.phase.bw_gbps < 10.0

    def test_dram_aggressor_is_bandwidth_bound(self) -> None:
        profile = cpu_workload("dram", "H")
        assert profile.phase.bw_bound_weight == 1.0
        assert profile.phase.mem_fraction > 0.9

    def test_remote_dram_same_traffic_shape(self) -> None:
        dram = cpu_workload("dram", "H")
        remote = cpu_workload("remote-dram", "H")
        assert remote.phase.bw_gbps == dram.phase.bw_gbps
