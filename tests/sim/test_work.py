"""Tests for fluid work quantities."""

from __future__ import annotations

import math

import pytest

from repro.errors import SimulationError
from repro.sim.work import FluidWork


class TestFluidWork:
    def test_drains_at_rate(self) -> None:
        work = FluidWork(10.0)
        work.set_rate(2.0, now=0.0)
        work.sync(3.0)
        assert work.remaining == pytest.approx(4.0)

    def test_eta(self) -> None:
        work = FluidWork(10.0)
        work.set_rate(2.0, now=0.0)
        assert work.eta() == pytest.approx(5.0)

    def test_eta_infinite_when_stalled(self) -> None:
        work = FluidWork(10.0)
        assert work.eta() == float("inf")

    def test_rate_change_mid_flight(self) -> None:
        work = FluidWork(10.0)
        work.set_rate(2.0, now=0.0)
        work.set_rate(4.0, now=2.0)  # 6 remaining at t=2
        assert work.eta() == pytest.approx(1.5)

    def test_done_at_zero(self) -> None:
        work = FluidWork(1.0)
        work.set_rate(1.0, now=0.0)
        work.sync(1.0)
        assert work.done
        assert work.eta() == 0.0

    def test_never_negative(self) -> None:
        work = FluidWork(1.0)
        work.set_rate(1.0, now=0.0)
        work.sync(100.0)
        assert work.remaining == 0.0

    def test_zero_amount_is_done(self) -> None:
        assert FluidWork(0.0).done

    def test_negative_amount_raises(self) -> None:
        with pytest.raises(SimulationError):
            FluidWork(-1.0)

    def test_negative_rate_raises(self) -> None:
        work = FluidWork(1.0)
        with pytest.raises(SimulationError):
            work.set_rate(-1.0, now=0.0)

    def test_sync_backwards_raises(self) -> None:
        work = FluidWork(1.0)
        work.sync(5.0)
        with pytest.raises(SimulationError):
            work.sync(4.0)

    def test_repeated_sync_is_stable(self) -> None:
        work = FluidWork(10.0)
        work.set_rate(1.0, now=0.0)
        work.sync(2.0)
        work.sync(2.0)
        assert work.remaining == pytest.approx(8.0)


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

    def test_retires_clock_scale_residue(self) -> None:
        # rate * ulp(86400) ~ 1.7e-10 at rate 12: representative of the
        # observed strand (1.8e-12 left on a 0.0024 GB PCIe transfer).
        work = FluidWork(0.0024, now=86400.0)
        work.set_rate(12.0, now=86400.0)
        fire_at = 86400.0 + work.eta()
        fire_at = math.nextafter(fire_at, 0.0)  # event rounded down one ulp
        work.sync(fire_at)
        assert not work.done  # the residue survives the final sync...
        assert work.retire_residue(now=fire_at)  # ...and is retired
        assert work.done

    def test_refuses_substantial_remainder(self) -> None:
        work = FluidWork(10.0)
        work.set_rate(1.0, now=0.0)
        work.sync(4.0)  # 6.0 genuinely left: a stale event, not residue
        assert not work.retire_residue(now=4.0)
        assert work.remaining == pytest.approx(6.0)

    def test_done_work_is_trivially_retired(self) -> None:
        work = FluidWork(1.0)
        work.set_rate(1.0, now=0.0)
        work.sync(2.0)
        assert work.retire_residue(now=2.0)
