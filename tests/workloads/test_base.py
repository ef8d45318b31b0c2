"""Tests for the workload framework: phase profiles and phase_speed."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, WorkloadError
from repro.hw.contention import IDLE_RATES, SourceRates
from repro.hw.machine import Machine
from repro.hw.placement import Placement
from repro.workloads.base import HostPhaseProfile, Task, phase_speed


def rates(**overrides) -> SourceRates:
    base = dict(
        bw_grant=1.0, latency_factor=1.0, core_throttle=1.0, prefetch_speed=1.0,
        llc_hit=1.0, llc_speed=1.0, smt_factor=1.0, cpu_share=1.0,
    )
    base.update(overrides)
    return SourceRates(**base)


class TestHostPhaseProfile:
    def test_defaults_valid(self) -> None:
        HostPhaseProfile()

    def test_validation(self) -> None:
        with pytest.raises(ConfigurationError):
            HostPhaseProfile(mem_fraction=1.2)
        with pytest.raises(ConfigurationError):
            HostPhaseProfile(bw_bound_weight=-0.1)
        with pytest.raises(ConfigurationError):
            HostPhaseProfile(bw_gbps=-1.0)
        with pytest.raises(ConfigurationError):
            HostPhaseProfile(threads=0)


class TestPhaseSpeed:
    def test_idle_machine_full_speed(self) -> None:
        assert phase_speed(IDLE_RATES, HostPhaseProfile()) == pytest.approx(1.0)

    def test_pure_compute_ignores_memory(self) -> None:
        profile = HostPhaseProfile(mem_fraction=0.0)
        speed = phase_speed(rates(latency_factor=4.0, bw_grant=0.5), profile)
        assert speed == pytest.approx(1.0)

    def test_pure_memory_tracks_stretch(self) -> None:
        profile = HostPhaseProfile(mem_fraction=1.0, bw_bound_weight=0.0)
        speed = phase_speed(rates(latency_factor=2.0), profile)
        assert speed == pytest.approx(0.5)

    def test_bw_bound_tracks_grant(self) -> None:
        profile = HostPhaseProfile(mem_fraction=1.0, bw_bound_weight=1.0)
        speed = phase_speed(rates(bw_grant=0.5), profile)
        assert speed == pytest.approx(0.5)

    def test_distress_hits_memory_part_only(self) -> None:
        compute = HostPhaseProfile(mem_fraction=0.0)
        memory = HostPhaseProfile(mem_fraction=1.0)
        throttled = rates(core_throttle=0.5)
        assert phase_speed(throttled, compute) == pytest.approx(1.0)
        assert phase_speed(throttled, memory) == pytest.approx(0.5)

    def test_smt_hits_whole_phase(self) -> None:
        profile = HostPhaseProfile(mem_fraction=0.0)
        assert phase_speed(rates(smt_factor=0.8), profile) == pytest.approx(0.8)

    def test_cpu_share_hits_whole_phase(self) -> None:
        profile = HostPhaseProfile(mem_fraction=0.3)
        full = phase_speed(rates(), profile)
        half = phase_speed(rates(cpu_share=0.5), profile)
        assert half == pytest.approx(0.5 * full)

    def test_monotone_in_mem_fraction_under_contention(self) -> None:
        contended = rates(latency_factor=3.0, core_throttle=0.8)
        speeds = [
            phase_speed(contended, HostPhaseProfile(mem_fraction=f))
            for f in (0.1, 0.4, 0.7, 1.0)
        ]
        assert speeds == sorted(speeds, reverse=True)


class TestTaskLifecycle:
    def test_double_start_rejected(self, machine: Machine) -> None:
        class Dummy(Task):
            def traffic_sources(self):
                return []

            def apply_rates(self, result, now):
                pass

        task = Dummy(
            "d", machine, Placement(cores=frozenset({0}), mem_weights={0: 1.0})
        )
        task.start()
        with pytest.raises(WorkloadError):
            task.start()
        task.stop()
        task.stop()  # idempotent
