"""Tests for task placement."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.hw.placement import Placement, normalized_weights


class TestNormalizedWeights:
    def test_normalizes(self) -> None:
        assert normalized_weights({0: 2.0, 1: 2.0}) == {0: 0.5, 1: 0.5}

    def test_drops_zero_weights(self) -> None:
        assert normalized_weights({0: 1.0, 1: 0.0}) == {0: 1.0}

    def test_rejects_empty(self) -> None:
        with pytest.raises(ConfigurationError):
            normalized_weights({})

    def test_rejects_negative(self) -> None:
        with pytest.raises(ConfigurationError):
            normalized_weights({0: -1.0, 1: 2.0})


class TestPlacement:
    def test_basic(self) -> None:
        p = Placement(cores=frozenset({0, 1}), mem_weights={0: 1.0})
        assert p.num_cores == 2
        assert p.mem_weights == {0: 1.0}

    def test_rejects_empty_cores(self) -> None:
        with pytest.raises(ConfigurationError):
            Placement(cores=frozenset(), mem_weights={0: 1.0})

    def test_with_cores(self) -> None:
        p = Placement(cores=frozenset({0}), mem_weights={0: 1.0})
        q = p.with_cores({1, 2})
        assert q.cores == frozenset({1, 2})
        assert q.mem_weights == p.mem_weights

    def test_with_mem_weights_renormalizes(self) -> None:
        p = Placement(cores=frozenset({0}), mem_weights={0: 1.0})
        q = p.with_mem_weights({0: 3.0, 1: 1.0})
        assert q.mem_weights == {0: 0.75, 1: 0.25}

    def test_negative_clos_rejected(self) -> None:
        with pytest.raises(ConfigurationError):
            Placement(cores=frozenset({0}), mem_weights={0: 1.0}, clos=-1)

    def test_overlaps_cores(self) -> None:
        a = Placement(cores=frozenset({0, 1}), mem_weights={0: 1.0})
        b = Placement(cores=frozenset({1, 2}), mem_weights={0: 1.0})
        c = Placement(cores=frozenset({3}), mem_weights={0: 1.0})
        assert a.overlaps_cores(b)
        assert not a.overlaps_cores(c)
