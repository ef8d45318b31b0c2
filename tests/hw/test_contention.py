"""Tests for the contention solver."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.hw.contention import Priority, TrafficSource
from repro.hw.machine import Machine
from repro.hw.spec import MachineSpec


@pytest.fixture
def solver(machine: Machine):
    return machine.solver


def source(
    sid: str = "s",
    demand: float = 10.0,
    mem: dict[int, float] | None = None,
    cores: frozenset[int] = frozenset({0, 1}),
    threads: int = 2,
    priority: Priority = Priority.LOW,
    **kwargs,
) -> TrafficSource:
    return TrafficSource(
        source_id=sid,
        task_id=sid,
        demand_gbps=demand,
        mem_weights=mem or {0: 1.0},
        cores=cores,
        threads=threads,
        priority=priority,
        **kwargs,
    )


class TestBasicSolve:
    def test_empty_solve(self, solver) -> None:
        result = solver.solve([])
        assert all(l.utilization == 0 for l in result.mc_loads.values())
        assert result.source_rates == {}

    def test_light_load_full_grant(self, solver) -> None:
        result = solver.solve([source(demand=5.0)])
        rates = result.rates_for("s")
        assert rates.bw_grant == pytest.approx(1.0)
        assert rates.core_throttle == 1.0

    def test_unknown_source_gets_idle_rates(self, solver) -> None:
        result = solver.solve([source()])
        assert result.rates_for("nope").bw_grant == 1.0

    def test_overload_reduces_grant(self, solver) -> None:
        result = solver.solve([source(demand=100.0, threads=2)])
        assert result.rates_for("s").bw_grant < 1.0

    def test_latency_grows_with_demand(self, solver) -> None:
        low = solver.solve([source(demand=5.0)]).rates_for("s").latency_factor
        high = solver.solve([source(demand=30.0)]).rates_for("s").latency_factor
        assert high > low

    def test_cpu_share_caps_demand(self, solver) -> None:
        # 8 threads on 2 cores: only 1/4 of the offered demand materializes.
        wide = solver.solve([source(demand=80.0, threads=8)])
        assert wide.mc_loads[0].demand_gbps < 80.0

    def test_multi_socket_source_rejected(self, solver) -> None:
        bad = source(cores=frozenset({0, 20}))
        with pytest.raises(ConfigurationError):
            solver.solve([bad])


class TestDistress:
    def test_saturating_source_asserts_distress(self, solver) -> None:
        result = solver.solve([source(demand=60.0, threads=2)])
        assert result.socket_pressures[0].saturation > 0
        assert result.socket_pressures[0].core_throttle < 1.0

    def test_distress_is_socket_wide(self, solver, machine: Machine) -> None:
        # Aggressor confined to subdomain 1 still throttles a subdomain-0 victim.
        machine.set_snc(True)
        aggressor = source(
            "agg", demand=70.0, mem={1: 1.0},
            cores=frozenset(machine.topology.cores_of_subdomain(1)), threads=8,
        )
        victim = source("victim", demand=2.0, mem={0: 1.0})
        result = solver.solve([aggressor, victim])
        assert result.rates_for("victim").core_throttle < 1.0

    def test_remote_socket_unaffected_by_distress(self, solver) -> None:
        aggressor = source("agg", demand=90.0, threads=8)
        remote = source(
            "far", demand=2.0, mem={2: 1.0}, cores=frozenset({20, 21})
        )
        result = solver.solve([aggressor, remote])
        assert result.rates_for("far").core_throttle == pytest.approx(1.0)


class TestPrefetchInteraction:
    def test_disabled_prefetchers_cut_offered_demand(
        self, solver, machine: Machine
    ) -> None:
        src = source(demand=50.0, threads=2)
        with_pf = solver.solve([src]).mc_loads[0].demand_gbps
        for core in (0, 1):
            machine.prefetchers.set_enabled(core, False)
        without_pf = solver.solve([src]).mc_loads[0].demand_gbps
        assert without_pf < with_pf

    def test_disabled_prefetchers_slow_the_task(
        self, solver, machine: Machine
    ) -> None:
        src = source(demand=5.0)
        before = solver.solve([src]).rates_for("s").prefetch_speed
        machine.prefetchers.set_enabled(0, False)
        machine.prefetchers.set_enabled(1, False)
        after = solver.solve([src]).rates_for("s").prefetch_speed
        assert after < before == 1.0


class TestSncEffects:
    def test_local_latency_bonus(self, solver, machine: Machine) -> None:
        src = source(demand=2.0, mem={0: 1.0})
        off = solver.solve([src]).rates_for("s").latency_factor
        machine.solver.snc_enabled = True
        on = solver.solve([src]).rates_for("s").latency_factor
        assert on < off

    def test_mesh_coupling_from_sibling(self, solver, machine: Machine) -> None:
        machine.solver.snc_enabled = True
        victim = source("v", demand=2.0, mem={0: 1.0})
        sibling = source(
            "sib", demand=30.0, mem={1: 1.0},
            cores=frozenset(machine.topology.cores_of_subdomain(1)), threads=8,
        )
        alone = solver.solve([victim]).rates_for("v").latency_factor
        coupled = solver.solve([victim, sibling]).rates_for("v").latency_factor
        assert coupled > alone


class TestPriorityMode:
    def test_hi_priority_shielded(self, solver) -> None:
        hi = source("hi", demand=5.0, priority=Priority.HIGH)
        lo = source(
            "lo", demand=100.0, cores=frozenset({4, 5, 6, 7}), threads=4
        )
        solver.priority_mode = True
        result = solver.solve([hi, lo])
        assert result.rates_for("hi").bw_grant == pytest.approx(1.0)
        assert result.rates_for("hi").latency_factor < result.rates_for(
            "lo"
        ).latency_factor

    def test_mba_cap_reduces_demand(self, solver) -> None:
        src = source(demand=50.0, threads=2)
        baseline = solver.solve([src]).mc_loads[0].demand_gbps
        solver.set_mba_cap(0, 0.5)
        capped = solver.solve([src]).mc_loads[0].demand_gbps
        assert capped == pytest.approx(0.5 * baseline)


class TestSmt:
    def test_overlapping_aggressive_source_slows_victim(self, solver) -> None:
        victim = source("v", demand=2.0, smt_sensitivity=0.5)
        bully = source(
            "b", demand=2.0, cores=frozenset({0, 1}), smt_aggression=0.8
        )
        result = solver.solve([victim, bully])
        assert result.rates_for("v").smt_factor < 1.0

    def test_disjoint_cores_no_smt_effect(self, solver) -> None:
        victim = source("v", demand=2.0, smt_sensitivity=0.5)
        other = source(
            "b", demand=2.0, cores=frozenset({4, 5}), smt_aggression=0.8
        )
        result = solver.solve([victim, other])
        assert result.rates_for("v").smt_factor == 1.0


class TestRemoteTraffic:
    def test_remote_traffic_loads_upi(self, solver, machine: Machine) -> None:
        remote = source(
            "r", demand=20.0, mem={0: 1.0},
            cores=frozenset(machine.topology.cores_of_socket(1)), threads=4,
        )
        result = solver.solve([remote])
        assert (1, 0) in result.upi_loads
        assert result.upi_loads[(1, 0)].demand_gbps > 20.0  # coherence overhead

    def test_remote_traffic_hurts_home_latency(
        self, machine: Machine
    ) -> None:
        victim = source("v", demand=2.0, mem={0: 1.0})
        local_agg = source(
            "a", demand=50.0, mem={0: 0.5, 1: 0.5},
            cores=frozenset(range(4, 12)), threads=8,
        )
        remote_agg = source(
            "a", demand=50.0, mem={0: 0.5, 1: 0.5},
            cores=frozenset(machine.topology.cores_of_socket(1)), threads=8,
        )
        local = machine.solver.solve([victim, local_agg]).rates_for("v")
        remote = machine.solver.solve([victim, remote_agg]).rates_for("v")
        assert remote.latency_factor > local.latency_factor


class TestSourceValidation:
    def test_negative_demand(self) -> None:
        with pytest.raises(ConfigurationError):
            source(demand=-1.0)

    def test_zero_threads(self) -> None:
        with pytest.raises(ConfigurationError):
            source(threads=0)

    def test_empty_cores(self) -> None:
        with pytest.raises(ConfigurationError):
            source(cores=frozenset())
