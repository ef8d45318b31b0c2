"""Replay hot-path regression pins: lazy views and deferred accounting.

A plain fleet replay — no hooks, empty incident surface — must not pay
for observability it was never asked for: no per-tick telemetry dict
rows, no fleet-view snapshots, no per-arrival accounting in trace mode.
These tests pin the fast path so a future refactor cannot quietly
reintroduce the per-tick costs this PR removed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.fleet.member import NodeSignals
from repro.fleet.orchestrator import (
    FleetOrchestrator,
    fleet_config_for_trace,
)
from repro.traces import TraceGenConfig, generate_trace


@pytest.fixture(scope="module")
def trace():
    return generate_trace(
        TraceGenConfig(seed=21, duration_s=90.0, rate_qps=6.0)
    )


class _CountingList(list):
    """A list that counts appends (per-tick allocation witness)."""

    appends = 0

    def append(self, item) -> None:  # noqa: A003 - list API
        type(self).appends += 1
        super().append(item)


class TestLazyTelemetry:
    def test_telemetry_off_means_zero_per_tick_appends(self, trace) -> None:
        config = fleet_config_for_trace(trace, nodes=2)
        orch = FleetOrchestrator(config, collect_telemetry=False, trace=trace)
        _CountingList.appends = 0
        orch._telemetry_signals = _CountingList()
        result = orch.run()
        assert _CountingList.appends == 0
        assert result.telemetry == ()
        assert result.controller == ()
        assert result.actuation == ()

    def test_per_tick_storage_holds_signals_not_dicts(self, trace) -> None:
        """The lazy-view contract: ticks store the frozen NodeSignals the
        members produced anyway; JSON rows exist only after finalize."""
        config = fleet_config_for_trace(trace, nodes=2)
        orch = FleetOrchestrator(config, trace=trace)
        result = orch.run()
        assert orch._telemetry_signals
        assert all(
            isinstance(s, NodeSignals) for s in orch._telemetry_signals
        )
        # The finalize rows are exactly the signals, field for field, in
        # tick order — same shape the inline dicts used to have.
        assert len(result.telemetry) == len(orch._telemetry_signals)
        first_row = result.telemetry[0]
        first_signals = orch._telemetry_signals[0]
        assert list(first_row) == [
            "time", "node", "socket_bw_gbps", "latency_factor",
            "saturation", "hipri_bw_gbps", "inflight", "queued",
            "batch_jobs", "saturated", "hot",
        ]
        assert first_row["time"] == first_signals.time
        assert first_row["node"] == first_signals.node_index
        assert first_row["saturation"] == first_signals.saturation

    def test_no_hooks_builds_no_fleet_views(self, trace, monkeypatch) -> None:
        """A hook-free replay never touches the incident view machinery."""
        from repro.incidents import detect

        def boom(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("FleetView built on the no-hook path")

        monkeypatch.setattr(detect.FleetView, "__init__", boom)
        config = fleet_config_for_trace(trace, nodes=2)
        result = FleetOrchestrator(
            config, collect_telemetry=False, trace=trace
        ).run()
        assert result.completed_total > 0


class TestDeferredTraceAccounting:
    def test_trace_offered_precompute_matches_live_counters(
        self, trace
    ) -> None:
        """The precomputed offered chain equals what live accounting saw.

        The non-trace (live) accounting path still runs for open-loop
        fleets; here the same orchestrator is run in trace mode and its
        deferred offered totals must equal replaying the admission rule
        over the actual arrival event times.
        """
        config = fleet_config_for_trace(trace, nodes=2)
        orch = FleetOrchestrator(config, trace=trace)
        result = orch.run()
        assert orch._counted_arrivals is not None
        # Every counted arrival fires inside [warmup, duration].
        assert (orch._counted_arrivals >= config.warmup).all()
        assert (orch._counted_arrivals <= config.duration).all()
        offered_total = int(np.sum(orch._offered_by_tenant))
        assert result.offered_total == offered_total
        # Per-window offered sums to the same total (a counted arrival
        # lands in exactly one window).
        assert sum(orch._offered_by_window.values()) == offered_total
        # Windows were materialized at finalize, offered side included.
        assert result.windows
        assert (
            sum(row["offered"] for row in result.windows) == offered_total
        )

    def test_live_counters_monotonic_during_replay(self, trace) -> None:
        """counters() mid-run reflects arrivals fired so far, not totals."""
        from repro.fleet.orchestrator import FleetHooks

        seen: list[tuple[float, int]] = []

        class Probe(FleetHooks):
            def on_tick(self, orchestrator, now):
                offered, completed, good, _ = orchestrator.counters()
                seen.append((now, offered))
                assert completed <= offered
                assert good <= completed

        config = fleet_config_for_trace(trace, nodes=2)
        orch = FleetOrchestrator(
            config, collect_telemetry=False, trace=trace, hooks=Probe()
        )
        result = orch.run()
        assert seen
        offered_values = [offered for _, offered in seen]
        assert offered_values == sorted(offered_values)
        assert 0 < offered_values[-1] <= result.offered_total
