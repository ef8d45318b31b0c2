"""Tests for fluid work quantities."""

from __future__ import annotations

import math
import pickle

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator
from repro.sim.work import FluidPool, FluidWork


def _live_events(sim: Simulator, label: str) -> int:
    return sum(
        1 for _, _, _, event in sim._heap
        if event.label == label and not event.cancelled
    )


class _Log:
    """A picklable ``on_done`` recording (instant, owner) per completion."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.done: list[tuple[float, str]] = []

    def __call__(self, work: FluidWork, owner: str) -> None:
        self.done.append((self.sim.now, owner))


def _pool(sim: Simulator) -> tuple[FluidPool, _Log]:
    log = _Log(sim)
    return FluidPool(sim, "t:work", log), log


class TestFluidWork:
    """A work's arithmetic, driven through the pool that owns it."""

    def test_drains_at_rate(self, sim: Simulator) -> None:
        pool, _ = _pool(sim)
        work = pool.add(10.0, "a")
        pool.set_rate(2.0, 0.0)
        pool.set_rate(1.0, 3.0)  # re-timing integrates the old rate first
        assert work.remaining == pytest.approx(4.0)
        assert work.due == pytest.approx(7.0)

    def test_eta(self, sim: Simulator) -> None:
        pool, _ = _pool(sim)
        work = pool.add(10.0, "a")
        pool.set_rate(2.0, 0.0)
        assert work.due == pytest.approx(5.0)
        assert pool._event.time == work.due

    def test_eta_infinite_when_stalled(self, sim: Simulator) -> None:
        pool, _ = _pool(sim)
        work = pool.add(10.0, "a")
        assert work.due == math.inf  # no rate yet
        pool.set_rate(0.0, 0.0)
        assert work.due == math.inf and pool._event is None

    def test_rate_change_mid_flight(self, sim: Simulator) -> None:
        pool, _ = _pool(sim)
        work = pool.add(10.0, "a")
        pool.set_rate(2.0, 0.0)
        pool.set_rate(4.0, 2.0)  # 6 remaining at t=2
        assert work.due == pytest.approx(3.5)

    def test_retime_returns_the_due_instant(self, sim: Simulator) -> None:
        pool, log = _pool(sim)
        work = pool.add(10.0, "a")
        pool.set_rate(0.0, 1.0)
        assert work.due == math.inf  # stalled
        pool.set_rate(2.0, 1.0)
        assert work.due == 6.0
        pool.set_rate(4.0, 3.0)
        assert work.due == 4.5  # 6 remaining at t=3
        pool.set_rate(8.0, 4.5)
        assert work.due == 4.5 and work.done  # done: due now
        sim.run_until(5.0)
        assert log.done == [(4.5, "a")]

    def test_done_at_zero(self, sim: Simulator) -> None:
        pool, log = _pool(sim)
        work = pool.add(1.0, "a")
        pool.set_rate(1.0, 0.0)
        sim.run_until(1.0)
        assert work.done and work.remaining == 0.0
        assert log.done == [(1.0, "a")] and not pool.works

    def test_never_negative(self, sim: Simulator) -> None:
        pool, _ = _pool(sim)
        work = pool.add(1.0, "a")
        pool.set_rate(1.0, 0.0)
        pool.set_rate(2.0, 100.0)  # long past its due instant
        assert work.remaining == 0.0
        assert work.due == 100.0

    def test_zero_amount_is_done(self, sim: Simulator) -> None:
        pool, log = _pool(sim)
        work = pool.add(0.0, "a")
        assert work.done
        pool.set_rate(1.0, 0.0)
        assert work.due == 0.0
        sim.run_until(0.0)
        assert log.done == [(0.0, "a")]

    def test_negative_amount_raises(self, sim: Simulator) -> None:
        pool, _ = _pool(sim)
        with pytest.raises(SimulationError, match="negative work amount"):
            pool.add(-1.0, "a")
        assert not pool.works

    def test_negative_rate_raises(self, sim: Simulator) -> None:
        pool, _ = _pool(sim)
        work = pool.add(1.0, "a")
        with pytest.raises(SimulationError, match="negative rate"):
            pool.set_rate(-1.0, 0.0)
        assert pool.rate == 0.0 and work.rate == 0.0

    def test_sync_backwards_raises(self, sim: Simulator) -> None:
        pool, _ = _pool(sim)
        pool.add(1.0, "a")
        pool.set_rate(1.0, 5.0)
        with pytest.raises(SimulationError, match="backwards"):
            pool.set_rate(2.0, 4.0)

    def test_repeated_sync_is_stable(self, sim: Simulator) -> None:
        pool, _ = _pool(sim)
        work = pool.add(10.0, "a")
        pool.set_rate(1.0, 0.0)
        pool.set_rate(2.0, 2.0)
        pool.set_rate(3.0, 2.0)  # a second re-time at one instant drains nothing
        assert work.remaining == pytest.approx(8.0)
        assert work.due == 2.0 + work.remaining / 3.0


class TestRetireResidue:
    """Regression: event-time rounding can leave residue above _EPSILON.

    A completion event scheduled ``remaining / rate`` ahead fires at an
    absolute float timestamp rounded by up to ``ulp(now) / 2``, leaving up
    to ~``rate * ulp(now)`` of work undrained — which exceeds the 1e-12
    epsilon once the clock is large. Before the fix, the PCIe finisher
    treated that state as a stale event and returned, stranding the
    transfer (and its inference request) forever; day-long trace replays
    showed multi-minute latencies on near-idle nodes.
    """

    def test_retires_clock_scale_residue(self, sim: Simulator) -> None:
        # rate * ulp(86400) ~ 1.7e-10 at rate 12: representative of the
        # observed strand (1.8e-12 left on a 0.0024 GB PCIe transfer).
        sim.run_until(86400.0)
        pool, log = _pool(sim)
        work = pool.add(0.0024, "a")
        pool.set_rate(12.0, 86400.0)
        fire_at = math.nextafter(work.due, 0.0)  # event rounded down one ulp
        # The residue survives the final integration...
        assert 0.0024 - 12.0 * (fire_at - 86400.0) > 1e-12
        work.due = fire_at
        pool._arm()
        sim.run_until(86401.0)
        # ...and is retired: the work completes where its event fired.
        assert log.done == [(fire_at, "a")]
        assert work.done and work.remaining == 0.0

    def test_refuses_substantial_remainder(self, sim: Simulator) -> None:
        pool, log = _pool(sim)
        work = pool.add(10.0, "a")
        pool.set_rate(1.0, 0.0)
        work.due = 4.0  # a stale event: 6.0 genuinely left at t=4
        pool._arm()
        sim.run_until(5.0)
        assert log.done == [] and list(pool.works) == [work]
        assert work.remaining == pytest.approx(6.0)
        assert work.due == pytest.approx(10.0)
        sim.run_until(11.0)
        assert log.done == [(10.0, "a")]

    def test_done_work_is_trivially_retired(self, sim: Simulator) -> None:
        pool, log = _pool(sim)
        work = pool.add(1.0, "a")
        pool.set_rate(1.0, 0.0)
        work.due = 2.0  # fires late: nothing is left
        pool._arm()
        sim.run_until(3.0)
        assert log.done == [(2.0, "a")] and work.remaining == 0.0


class TestFluidPool:
    def test_an_unchanged_due_keeps_its_stamp_and_event(self, sim: Simulator) -> None:
        pool, _ = _pool(sim)
        first = pool.add(2.0, "a")
        assert first.due == math.inf  # until a rate is set
        pool.set_rate(1.0, 0.0)
        event = pool._event
        assert (first.due, first.stamp) == (2.0, 0)
        second = pool.add(3.0, "b")
        pool.set_rate(1.0, 0.0)  # unchanged rate: only the new work is timed
        assert (first.due, first.stamp) == (2.0, 0)
        assert (second.due, second.stamp) == (3.0, 1)
        assert pool._event is event and not event.cancelled

    def test_ties_complete_in_stamp_order(self, sim: Simulator) -> None:
        pool, log = _pool(sim)
        early = pool.add(1.0, "a")
        pool.add(2.0, "b")
        pool.set_rate(1.0, 0.0)  # a due 1 (stamp 0), b due 2 (stamp 1)
        # Behind the pool's back, a drains at half speed: it fires at 1
        # with half its work left, re-arms at 2 with a new stamp (2), and
        # so completes after b, which is due at 2 with stamp 1.
        early._rate = 0.5
        sim.run_until(5.0)
        assert log.done == [(2.0, "b"), (2.0, "a")]

    def test_a_residue_above_rounding_noise_rearms(self, sim: Simulator) -> None:
        pool, log = _pool(sim)
        work = pool.add(1.0, "a")
        pool.set_rate(1.0, 0.0)
        work._rate = 0.5  # behind the pool's back
        sim.run_until(1.5)
        assert log.done == [] and list(pool.works) == [work]
        assert (work.due, work.stamp) == (2.0, 1)
        assert _live_events(sim, "t:work") == 1
        sim.run_until(3.0)
        assert log.done == [(2.0, "a")] and not pool.works

    def test_one_live_event_however_many_works(self, sim: Simulator) -> None:
        pool, log = _pool(sim)
        for index, amount in enumerate((0.5, 1.0, 1.0, 2.5, 4.0)):
            pool.add(amount, f"w{index}")
        pool.set_rate(1.0, 0.0)
        for step in range(1, 8):
            assert _live_events(sim, "t:work") == 1
            sim.run_until(step * 0.3)
        assert len(log.done) == 3 and len(pool.works) == 2
        pool.clear()
        assert _live_events(sim, "t:work") == 0 and not pool.works
        sim.run_until(10.0)
        assert len(log.done) == 3

    def test_restored_pool_finishes_at_the_same_instants(self, sim: Simulator) -> None:
        pool, log = _pool(sim)
        for index, amount in enumerate((1.0, 3.0, 3.0, 5.0)):
            pool.add(amount, f"w{index}")
        pool.set_rate(2.0, 0.0)
        sim.run_until(1.0)
        pool.set_rate(0.5, 1.0)
        copy_sim, copy_pool, copy_log = pickle.loads(pickle.dumps((sim, pool, log)))
        for each_sim, each_pool in ((sim, pool), (copy_sim, copy_pool)):
            each_sim.at(3.0, lambda p=each_pool: p.set_rate(1.5, 3.0))
            each_sim.run_until(20.0)
        assert len(log.done) == 4
        assert copy_log.done == log.done
