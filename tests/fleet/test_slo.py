"""Per-window SLO accounting."""

from __future__ import annotations

from repro.fleet.slo import WindowAccount


class TestWindowAccount:
    def test_slo_boundary_counts_as_good(self) -> None:
        account = WindowAccount(offered=1)
        account.record(0.1, slo_p99_s=0.1)
        assert account.completed == 1
        assert account.good == 1  # latency == SLO is within SLO
