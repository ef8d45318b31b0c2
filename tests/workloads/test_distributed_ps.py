"""Tests for the parameter-server cost model."""

from __future__ import annotations

import pytest

from repro.workloads.ml.distributed import PsUpdateModel
from repro.errors import ConfigurationError


class TestPsUpdateModel:
    def test_bytes_per_step(self) -> None:
        model = PsUpdateModel(shard_params_gb=0.25, optimizer_traffic_factor=4.0)
        assert model.bytes_per_step_gb == pytest.approx(1.0)

    def test_update_time(self) -> None:
        model = PsUpdateModel(
            shard_params_gb=0.25, optimizer_traffic_factor=4.0,
            standalone_bw_gbps=20.0,
        )
        assert model.standalone_update_time == pytest.approx(0.05)

    def test_heavier_optimizer_slower(self) -> None:
        sgd = PsUpdateModel(shard_params_gb=0.2, optimizer_traffic_factor=3.0)
        adam = PsUpdateModel(shard_params_gb=0.2, optimizer_traffic_factor=7.0)
        assert adam.standalone_update_time > sgd.standalone_update_time

    def test_validation(self) -> None:
        with pytest.raises(ConfigurationError):
            PsUpdateModel(shard_params_gb=0.0)
        with pytest.raises(ConfigurationError):
            PsUpdateModel(shard_params_gb=0.1, standalone_bw_gbps=0.0)
