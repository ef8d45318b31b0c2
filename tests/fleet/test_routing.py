"""Admission routing strategies (unit level, stub members)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.fleet.config import PRESSURE_BUCKET
from repro.fleet.member import NodeSignals
from repro.fleet.routing import (
    InterferenceAwareRouter,
    LeastLoadedRouter,
    PRESSURE_WEIGHT,
    RandomRouter,
    make_router,
)


def _signals(
    index: int, saturation: float = 0.0, latency_factor: float = 1.0
) -> NodeSignals:
    return NodeSignals(
        node_index=index,
        time=1.0,
        socket_bw_gbps=0.0,
        latency_factor=latency_factor,
        saturation=saturation,
        hipri_bw_gbps=0.0,
        inflight=0,
        queued=0,
        batch_jobs=0,
        saturated=False,
        hot=False,
    )


@dataclass
class StubMember:
    """The slice of FleetMember the routers consume."""

    index: int
    load: int
    last_signals: NodeSignals | None = None


class TestMakeRouter:
    def test_instantiates_by_name(self):
        rng = np.random.default_rng(0)
        assert make_router("random", rng).name == "random"
        assert make_router("least-loaded").name == "least-loaded"
        assert make_router("interference-aware").name == "interference-aware"

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError):
            make_router("round-robin")

    def test_random_requires_rng(self):
        with pytest.raises(ConfigurationError):
            make_router("random")


class TestRandomRouter:
    def test_seeded_stream_is_deterministic(self):
        members = [StubMember(index=i, load=0) for i in range(5)]
        picks_a = [
            RandomRouter(np.random.default_rng(7)).choose(members).index
            for _ in range(1)
        ]
        router_a = RandomRouter(np.random.default_rng(7))
        router_b = RandomRouter(np.random.default_rng(7))
        seq_a = [router_a.choose(members).index for _ in range(20)]
        seq_b = [router_b.choose(members).index for _ in range(20)]
        assert seq_a == seq_b
        assert picks_a[0] == seq_a[0]
        # It actually spreads over the fleet.
        assert len(set(seq_a)) > 1


class TestLeastLoadedRouter:
    def test_picks_shortest_queue(self):
        members = [
            StubMember(index=0, load=3),
            StubMember(index=1, load=1),
            StubMember(index=2, load=2),
        ]
        assert LeastLoadedRouter().choose(members).index == 1

    def test_ties_break_by_index(self):
        members = [
            StubMember(index=1, load=2),
            StubMember(index=0, load=2),
        ]
        assert LeastLoadedRouter().choose(members).index == 0


class TestInterferenceAwareRouter:
    def test_avoids_pressured_node_at_equal_load(self):
        members = [
            StubMember(index=0, load=2, last_signals=_signals(0, saturation=0.4)),
            StubMember(index=1, load=2, last_signals=_signals(1, saturation=0.0)),
        ]
        assert InterferenceAwareRouter().choose(members).index == 1

    def test_no_signals_degrades_to_least_loaded(self):
        members = [
            StubMember(index=0, load=4),
            StubMember(index=1, load=2),
        ]
        assert InterferenceAwareRouter().choose(members).index == 1

    def test_latency_factor_contributes_to_pressure(self):
        hot = _signals(0, latency_factor=1.8)
        assert hot.pressure() == pytest.approx(0.4)
        members = [
            StubMember(index=0, load=1, last_signals=hot),
            StubMember(index=1, load=1, last_signals=_signals(1)),
        ]
        assert InterferenceAwareRouter().choose(members).index == 1

    def test_bias_is_capacity_safe_not_a_blacklist(self):
        """A pressured node still wins once the clean node queues enough.

        The multiplicative handicap means pressure can only inflate a
        node's effective load by a bounded factor — a clean node is never
        asked to absorb the whole fleet (the failure mode of absolute
        avoidance rules).
        """
        pressured = _signals(0, saturation=0.5)
        bucket = int(pressured.pressure() / PRESSURE_BUCKET)
        multiplier = 1.0 + PRESSURE_WEIGHT * bucket
        # Clean node loaded beyond the handicap factor: pressured node wins.
        clean_load = int(multiplier * 3) + 2
        members = [
            StubMember(index=0, load=2, last_signals=pressured),
            StubMember(index=1, load=clean_load, last_signals=_signals(1)),
        ]
        assert InterferenceAwareRouter().choose(members).index == 0

    def test_stale_float_jitter_cannot_reorder(self):
        """Pressures inside one bucket quantum do not override load order."""
        members = [
            StubMember(index=0, load=1, last_signals=_signals(0, saturation=0.04)),
            StubMember(index=1, load=2, last_signals=_signals(1, saturation=0.0)),
        ]
        # 0.04 < PRESSURE_BUCKET: node 0 still reads as clean.
        assert InterferenceAwareRouter().choose(members).index == 0
