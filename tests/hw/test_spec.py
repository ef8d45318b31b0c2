"""Tests for hardware specifications."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.hw.spec import (
    LlcSpec,
    MachineSpec,
    MemoryControllerSpec,
    SocketSpec,
    cloud_tpu_host_spec,
    gpu_host_spec,
    tpu_host_spec,
)


class TestMemoryControllerSpec:
    def test_defaults_valid(self) -> None:
        spec = MemoryControllerSpec()
        assert spec.peak_bw_gbps > 0

    def test_rejects_non_positive_bw(self) -> None:
        with pytest.raises(ConfigurationError):
            MemoryControllerSpec(peak_bw_gbps=0)

    def test_rejects_bad_distress_span(self) -> None:
        with pytest.raises(ConfigurationError):
            MemoryControllerSpec(distress_span=0)


class TestLlcSpec:
    def test_mb_per_way(self) -> None:
        spec = LlcSpec(capacity_mb=32, ways=16)
        assert spec.mb_per_way == pytest.approx(2.0)

    def test_rejects_zero_ways(self) -> None:
        with pytest.raises(ConfigurationError):
            LlcSpec(ways=0)


class TestSocketSpec:
    def test_peak_bw_sums_controllers(self) -> None:
        spec = SocketSpec()
        assert spec.peak_bw_gbps == pytest.approx(76.8)

    def test_accepts_any_positive_channel_group_count(self) -> None:
        # The subdomain model is generalized: 1, 2 and 4 channel groups are
        # all valid socket layouts.
        for groups in (1, 2, 4):
            spec = SocketSpec(
                memory_controllers=tuple(
                    MemoryControllerSpec() for _ in range(groups)
                )
            )
            assert len(spec.memory_controllers) == groups

    def test_requires_at_least_one_channel_group(self) -> None:
        with pytest.raises(ConfigurationError):
            SocketSpec(memory_controllers=())

    def test_requires_core_per_channel_group(self) -> None:
        with pytest.raises(ConfigurationError):
            SocketSpec(
                cores=1,
                memory_controllers=(
                    MemoryControllerSpec(),
                    MemoryControllerSpec(),
                ),
            )

    def test_backpressure_strength_bounds(self) -> None:
        with pytest.raises(ConfigurationError):
            SocketSpec(backpressure_strength=1.0)


class TestMachineSpec:
    def test_total_cores(self) -> None:
        assert MachineSpec().total_cores == 32

    def test_requires_sockets(self) -> None:
        with pytest.raises(ConfigurationError):
            MachineSpec(sockets=())


class TestPlatformPresets:
    def test_three_distinct_platforms(self) -> None:
        names = {s().name for s in (tpu_host_spec, cloud_tpu_host_spec, gpu_host_spec)}
        assert len(names) == 3

    def test_cloud_tpu_is_most_remote_sensitive(self) -> None:
        assert cloud_tpu_host_spec().remote_sensitivity > tpu_host_spec().remote_sensitivity
        assert cloud_tpu_host_spec().remote_sensitivity > gpu_host_spec().remote_sensitivity
