"""The incremental routing index vs the reference O(N) scan.

The index's whole contract is *choice identity*: for any sequence of
member events (admissions, completions, telemetry samples, rotation
flips) it must pick exactly the member ``min(members, key=...)`` would —
including ties, which both sides break on the lowest member index. The
property test drives randomized event sequences over stub members
(including pressure values parked exactly on ``PRESSURE_BUCKET``
boundaries, where quantized keys tie); the golden test replays a real
trace fleet with the index enabled and disabled (reference mode) and
compares summaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet.config import PRESSURE_BUCKET
from repro.fleet.index import RoutingIndex, make_routing_index
from repro.fleet.member import NodeSignals
from repro.fleet.routing import (
    InterferenceAwareRouter,
    LeastLoadedRouter,
    make_router,
)
from repro.reference import REFERENCE_ENV


@pytest.fixture(autouse=True, scope="module")
def _index_enabled():
    """These tests exercise the index itself, even when the suite runs in
    reference mode."""
    with pytest.MonkeyPatch.context() as patch:
        patch.delenv(REFERENCE_ENV, raising=False)
        yield


def _signals(index: int, saturation: float) -> NodeSignals:
    """A telemetry snapshot whose pressure equals ``saturation``."""
    return NodeSignals(
        node_index=index,
        time=0.0,
        socket_bw_gbps=0.0,
        latency_factor=1.0,
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
    """The member surface the routers and the index actually touch."""

    index: int
    load: int = 0
    in_rotation: bool = True
    last_signals: NodeSignals | None = None
    on_state_change: object = field(default=None, repr=False)

    def notify(self, kind: str) -> None:
        if self.on_state_change is not None:
            self.on_state_change(self, kind)


def _reference_choose(router, members):
    eligible = [m for m in members if m.in_rotation]
    return router.choose(eligible) if eligible else None


#: One member event: (op, member index, value). Pressure values are
#: multiples of PRESSURE_BUCKET/2, so half of them sit exactly on bucket
#: boundaries — the quantized-key tie cases the scan breaks on index.
def _ops(n_members: int):
    return st.tuples(
        st.sampled_from(["admit", "complete", "signals", "rotation"]),
        st.integers(min_value=0, max_value=n_members - 1),
        st.integers(min_value=0, max_value=8),
    )


class TestIndexMatchesScan:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=5),
        ops=st.lists(_ops(5), max_size=120),
    )
    @pytest.mark.parametrize("routing", ["least-loaded", "interference-aware"])
    def test_randomized_event_sequences(self, routing, n, ops) -> None:
        router = make_router(routing)
        members = [StubMember(index=i) for i in range(n)]
        index = make_routing_index(router, members)
        assert index is not None
        for member in members:
            member.on_state_change = index.on_member_event

        assert index.choose() is _reference_choose(router, members)
        for op, raw_idx, value in ops:
            member = members[raw_idx % n]
            if op == "admit":
                member.load += 1
                member.notify("load")
            elif op == "complete":
                if member.load:
                    member.load -= 1
                member.notify("load")
            elif op == "signals":
                member.last_signals = _signals(
                    member.index, value * PRESSURE_BUCKET / 2
                )
                member.notify("signals")
            elif op == "rotation":
                member.in_rotation = value % 2 == 0
                member.notify("rotation")
            assert index.choose() is _reference_choose(router, members)

    def test_pressure_bucket_boundary_tie_breaks_on_index(self) -> None:
        """Pressures one bucket apart vs inside the same bucket."""
        router = InterferenceAwareRouter()
        members = [StubMember(index=i) for i in range(3)]
        index = RoutingIndex(members, router._key, load_only=False)
        for member in members:
            member.on_state_change = index.on_member_event
        # All three in the same bucket: quantized keys tie, lowest index
        # wins on both sides.
        for member, saturation in zip(members, [0.049, 0.0, 0.02]):
            member.last_signals = _signals(member.index, saturation)
            member.notify("signals")
        assert index.choose() is members[0]
        assert _reference_choose(router, members) is members[0]
        # Nudge member 0 exactly onto the boundary: one bucket up, so it
        # loses to the still-clean members despite the tiny raw delta.
        members[0].last_signals = _signals(0, PRESSURE_BUCKET)
        members[0].notify("signals")
        assert index.choose() is members[1]
        assert _reference_choose(router, members) is members[1]

    def test_compaction_keeps_choices_identical(self) -> None:
        """Push far past the compaction threshold; choices never drift."""
        router = LeastLoadedRouter()
        members = [StubMember(index=i) for i in range(2)]
        index = make_routing_index(router, members)
        for member in members:
            member.on_state_change = index.on_member_event
        for step in range(500):
            member = members[step % 2]
            member.load = (step * 7) % 11
            member.notify("load")
            assert index.choose() is _reference_choose(router, members)
        assert len(index._heap) <= index._compact_at

    def test_empty_rotation_returns_none(self) -> None:
        router = LeastLoadedRouter()
        members = [StubMember(index=i) for i in range(3)]
        index = make_routing_index(router, members)
        for member in members:
            member.on_state_change = index.on_member_event
            member.in_rotation = False
            member.notify("rotation")
        assert index.choose() is None
        # Rejoining re-inserts via the rotation mark.
        members[2].in_rotation = True
        members[2].notify("rotation")
        assert index.choose() is members[2]


class TestMakeRoutingIndex:
    def test_random_router_is_not_indexed(self) -> None:
        import numpy as np

        router = make_router("random", rng=np.random.default_rng(0))
        assert make_routing_index(router, []) is None

    def test_env_knob_disables(self, monkeypatch) -> None:
        """Reference mode builds no index, for either indexable router."""
        monkeypatch.setenv(REFERENCE_ENV, "1")
        assert make_routing_index(LeastLoadedRouter(), []) is None
        assert make_routing_index(InterferenceAwareRouter(), []) is None
        monkeypatch.delenv(REFERENCE_ENV)
        assert make_routing_index(LeastLoadedRouter(), []) is not None


class TestGoldenEquivalence:
    """A real trace fleet, index on vs reference mode: summaries are
    bit-identical."""

    @pytest.mark.parametrize("routing", ["least-loaded", "interference-aware"])
    def test_trace_replay_summary_identical(self, routing, monkeypatch) -> None:
        from repro.fleet.orchestrator import (
            FleetOrchestrator,
            fleet_config_for_trace,
        )
        from repro.traces import TraceGenConfig, generate_trace

        trace = generate_trace(
            TraceGenConfig(seed=13, duration_s=120.0, rate_qps=8.0)
        )
        config = fleet_config_for_trace(trace, nodes=3, routing=routing)
        summaries = {}
        for reference in (False, True):
            if reference:
                monkeypatch.setenv(REFERENCE_ENV, "1")
            orch = FleetOrchestrator(config, trace=trace)
            result = orch.run()
            assert (orch._routing_index is None) is reference
            summaries[reference] = result.summary()
        assert summaries[False] == summaries[True]
