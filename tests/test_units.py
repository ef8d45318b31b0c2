"""Tests for unit helpers."""

from __future__ import annotations

import pytest

from repro import units


class TestClamp:
    def test_clamps(self) -> None:
        assert units.clamp(5.0, 0.0, 1.0) == 1.0
        assert units.clamp(-5.0, 0.0, 1.0) == 0.0
        assert units.clamp(0.5, 0.0, 1.0) == 0.5

    def test_empty_interval_rejected(self) -> None:
        with pytest.raises(ValueError):
            units.clamp(0.5, 1.0, 0.0)
