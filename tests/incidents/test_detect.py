"""Detector bank: episodic firing, hysteresis, and per-node baselines."""

from __future__ import annotations

from repro.incidents.detect import HISTORY_LIMIT, DetectorBank, FleetView, NodeView

_INTERVAL = 10.0


def _node(index: int, time: float, **overrides) -> NodeView:
    fields = dict(
        index=index,
        signals_time=time,
        saturation=0.2,
        latency_factor=1.0,
        socket_bw_gbps=10.0,
        inflight=2,
        queued=0,
        batch_jobs=0,
        hot=False,
        journal_failed=0,
        journal_total=0,
    )
    fields.update(overrides)
    return NodeView(**fields)


def _view(
    time: float,
    offered: int = 0,
    good: int | None = None,
    node_overrides: dict[int, dict] | None = None,
    nodes: int = 2,
) -> FleetView:
    node_overrides = node_overrides or {}
    return FleetView(
        time=time,
        interval=_INTERVAL,
        offered=offered,
        completed=good if good is not None else offered,
        good=good if good is not None else offered,
        nodes=tuple(
            _node(i, time, **node_overrides.get(i, {})) for i in range(nodes)
        ),
    )


class TestTelemetrySilence:
    def test_fires_once_per_episode_and_rearms(self) -> None:
        bank = DetectorBank()
        frozen = {0: {"signals_time": 10.0}}
        assert bank.observe(_view(10.0)) == []
        assert bank.observe(_view(20.0, node_overrides=frozen)) == []
        alarms = bank.observe(_view(30.0, node_overrides=frozen))
        assert [a.detector for a in alarms] == ["telemetry-silence"]
        assert alarms[0].node == 0
        # A persistent fault does not re-fire ...
        assert bank.observe(_view(40.0, node_overrides=frozen)) == []
        # ... a fresh export clears the episode ...
        assert bank.observe(_view(50.0)) == []
        # ... and a new blackout fires a new alarm.
        frozen2 = {0: {"signals_time": 50.0}}
        assert bank.observe(_view(60.0, node_overrides=frozen2)) == []
        alarms = bank.observe(_view(70.0, node_overrides=frozen2))
        assert [a.node for a in alarms] == [0]


class TestActuationDivergence:
    def test_needs_enough_recent_failures(self) -> None:
        bank = DetectorBank()
        assert bank.observe(_view(10.0)) == []
        one = {0: {"journal_failed": 1, "journal_total": 1}}
        assert bank.observe(_view(20.0, node_overrides=one)) == []
        burst = {0: {"journal_failed": 5, "journal_total": 5}}
        alarms = bank.observe(_view(30.0, node_overrides=burst))
        assert [a.detector for a in alarms] == ["actuation-divergence"]
        # Flat journal -> the delta decays to zero and the episode clears.
        assert bank.observe(_view(40.0, node_overrides=burst)) == []
        assert bank.observe(_view(50.0, node_overrides=burst)) == []
        again = {0: {"journal_failed": 9, "journal_total": 9}}
        alarms = bank.observe(_view(60.0, node_overrides=again))
        assert [a.node for a in alarms] == [0]


class TestSaturationSpike:
    def test_baseline_frozen_during_episode(self) -> None:
        bank = DetectorBank()
        assert bank.observe(_view(10.0)) == []
        assert bank.observe(_view(20.0)) == []
        hot = {1: {"saturation": 0.7}}
        alarms = bank.observe(_view(30.0, node_overrides=hot))
        assert [(a.detector, a.node) for a in alarms] == [
            ("saturation-spike", 1)
        ]
        # Still hot: no re-fire; baseline must not absorb the episode.
        assert bank.observe(_view(40.0, node_overrides=hot)) == []
        # Cooling clears the episode; a new spike fires again.
        assert bank.observe(_view(50.0)) == []
        alarms = bank.observe(_view(60.0, node_overrides=hot))
        assert [a.node for a in alarms] == [1]


class TestAttainmentDrop:
    def test_windowed_ratio_with_hysteresis(self) -> None:
        bank = DetectorBank()
        # Healthy warmup: offered == good, 10 per tick.
        for tick in range(1, 6):
            assert bank.observe(_view(10.0 * tick, offered=10 * tick)) == []
        # Good stalls while offered keeps arriving: ratio collapses.
        alarms = bank.observe(_view(60.0, offered=60, good=50))
        assert [a.detector for a in alarms] == ["attainment-drop"]
        # Persistently bad: episodic, no second alarm.
        assert bank.observe(_view(70.0, offered=70, good=50)) == []
        # Full recovery re-arms ...
        assert bank.observe(_view(80.0, offered=80, good=80)) == []
        assert bank.observe(_view(90.0, offered=90, good=90)) == []
        # ... and a fresh collapse fires again.
        alarms = bank.observe(_view(100.0, offered=120, good=90))
        assert [a.detector for a in alarms] == ["attainment-drop"]

    def test_min_offered_guard(self) -> None:
        bank = DetectorBank()
        # A trickle of offered traffic never trips the ratio test.
        for tick in range(1, 10):
            alarms = bank.observe(_view(10.0 * tick, offered=tick, good=0))
            assert alarms == []


class TestBankHistory:
    def test_history_is_bounded(self) -> None:
        bank = DetectorBank()
        for tick in range(1, HISTORY_LIMIT + 22):
            bank.observe(_view(10.0 * tick, offered=10 * tick))
        assert len(bank.views) == HISTORY_LIMIT
        assert bank.views[-1].time == 10.0 * (HISTORY_LIMIT + 21)
