"""Tests for the UPI cross-socket link model."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.hw.interconnect import UpiModel
from repro.hw.spec import UpiSpec


@pytest.fixture
def upi() -> UpiModel:
    return UpiModel(UpiSpec())


class TestUpiModel:
    def test_underload(self, upi: UpiModel) -> None:
        load = upi.resolve(5.0)
        assert load.grant_ratio == 1.0
        assert load.utilization < 1.0

    def test_overload_grants_proportionally(self, upi: UpiModel) -> None:
        peak = upi.spec.peak_bw_gbps
        load = upi.resolve(2 * peak)
        assert load.grant_ratio == pytest.approx(0.5)
        assert load.utilization == pytest.approx(1.0)

    def test_remote_latency_grows_with_load(self, upi: UpiModel) -> None:
        low = upi.resolve(1.0).remote_latency_factor
        high = upi.resolve(upi.spec.peak_bw_gbps * 0.95).remote_latency_factor
        assert high > low > 1.0

    def test_remote_latency_capped(self, upi: UpiModel) -> None:
        assert upi.resolve(100 * upi.spec.peak_bw_gbps).remote_latency_factor <= 8.0

    def test_home_injection_scales_with_sensitivity(self, upi: UpiModel) -> None:
        low = upi.home_latency_injection(0.8, remote_sensitivity=0.7)
        high = upi.home_latency_injection(0.8, remote_sensitivity=2.6)
        assert high > low
        assert upi.home_latency_injection(0.0, 2.6) == 0.0

    def test_negative_demand_raises(self, upi: UpiModel) -> None:
        with pytest.raises(ConfigurationError):
            upi.resolve(-1.0)

    def test_invalid_spec_raises(self) -> None:
        with pytest.raises(ConfigurationError):
            UpiModel(UpiSpec(peak_bw_gbps=0))
