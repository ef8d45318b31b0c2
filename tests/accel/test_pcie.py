"""Tests for the PCIe link model."""

from __future__ import annotations

import pytest

from repro.accel.pcie import PcieLink
from repro.errors import ConfigurationError
from repro.hw.spec import PcieSpec
from repro.sim import Simulator


@pytest.fixture
def link(sim: Simulator) -> PcieLink:
    return PcieLink(PcieSpec(peak_bw_gbps=10.0), sim)


class TestPcieLink:
    def test_single_transfer_time(self, sim: Simulator, link: PcieLink) -> None:
        done: list[float] = []
        link.transfer(5.0, lambda: done.append(sim.now))
        sim.run_until(1.0)
        assert done == [pytest.approx(0.5)]

    def test_concurrent_transfers_share_bandwidth(
        self, sim: Simulator, link: PcieLink
    ) -> None:
        done: list[float] = []
        link.transfer(5.0, lambda: done.append(sim.now))
        link.transfer(5.0, lambda: done.append(sim.now))
        sim.run_until(2.0)
        assert done == [pytest.approx(1.0), pytest.approx(1.0)]

    def test_later_transfer_rebalances(self, sim: Simulator, link: PcieLink) -> None:
        done: list[float] = []
        link.transfer(10.0, lambda: done.append(sim.now))
        sim.at(0.5, lambda: link.transfer(2.5, lambda: done.append(sim.now)))
        sim.run_until(3.0)
        # T1 moves 5 GB by t=0.5; both then share 5 GB/s each. T2 (2.5 GB)
        # finishes at t=1.0; T1's remaining 2.5 GB then runs at full speed
        # and finishes at t=1.25.
        assert done[0] == pytest.approx(1.0)
        assert done[1] == pytest.approx(1.25)

    def test_zero_size_completes_immediately(self, sim: Simulator, link: PcieLink) -> None:
        done: list[bool] = []
        link.transfer(0.0, lambda: done.append(True))
        assert done == [True]

    def test_negative_size_rejected(self, link: PcieLink) -> None:
        with pytest.raises(ConfigurationError):
            link.transfer(-1.0, lambda: None)

    def test_bytes_moved_accounting(self, sim: Simulator, link: PcieLink) -> None:
        link.transfer(3.0, lambda: None)
        link.transfer(2.0, lambda: None)
        sim.run_until(5.0)
        assert link.bytes_moved_gb == pytest.approx(5.0)
        assert link.active_transfers == 0

    def test_late_clock_transfer_never_strands(self, sim: Simulator) -> None:
        """Regression: float residue at the completion event must retire.

        With a large simulated clock, the event time ``now + remaining/rate``
        rounds by up to ulp(now)/2, so the finisher can fire with more work
        left than FluidWork's epsilon. The old stale-event guard returned
        without rescheduling, stranding the transfer (and the inference
        request riding it) until an unrelated transfer rebalanced the link —
        forever, on a near-idle node. Sweep many start offsets late in a
        day-long clock so some land on the unfavourable rounding.
        """
        link = PcieLink(PcieSpec(peak_bw_gbps=12.0), sim, name="late")
        completed = [0]
        starts = [86_000.0 + i * 0.618 for i in range(200)]
        for start in starts:
            sim.at(
                start,
                lambda: link.transfer(
                    0.0024, lambda: completed.__setitem__(0, completed[0] + 1)
                ),
            )
        sim.run_until(87_000.0)
        assert completed[0] == len(starts)
        assert link.active_transfers == 0

    def test_one_live_event_however_many_transfers(self, sim: Simulator) -> None:
        link = PcieLink(PcieSpec(peak_bw_gbps=10.0), sim, name="x")
        done: list[float] = []

        def finish() -> None:
            done.append(sim.now)

        for start, size in ((0.0, 4.0), (0.1, 2.0), (0.2, 3.0), (0.2, 0.5)):
            sim.at(start, lambda size=size: link.transfer(size, finish))
        shared = 0
        for step in range(1, 200):
            sim.run_until(step * 0.01)
            if link.active_transfers >= 2:
                shared += 1
                live = [
                    event for _, _, _, event in sim._heap
                    if event.label == "x:xfer" and not event.cancelled
                ]
                assert len(live) == 1
        assert shared > 50
        assert len(done) == 4 and link.active_transfers == 0
