"""Cache correctness: cached and uncached solver paths must be identical.

The solve memo is only sound if the solve signature covers every input the
solver reads (see docs/model.md). These tests pin that invariant from both
ends: micro-level (signature sensitivity to each knob, memo hit behaviour)
and end-to-end (byte-identical policy experiment numbers with the cache on
and off, across every paper policy).
"""

from __future__ import annotations

import pytest

from repro.experiments import common as common_mod
from repro.experiments.common import MixConfig, run_colocation
from repro.hw.contention import (
    ContentionSolver,
    Priority,
    TrafficSource,
    cache_default_enabled,
    set_cache_default,
)
from repro.hw.llc import LlcModel
from repro.hw.machine import Machine
from repro.hw.prefetcher import PrefetcherBank
from repro.hw.spec import MachineSpec
from repro.hw.topology import Topology
from repro.reference import REFERENCE_ENV
from repro.sim import Simulator

POLICIES = ("BL", "CT", "KP-SD", "KP", "MBA", "HW-QOS")


@pytest.fixture(autouse=True)
def _restore_cache_default():
    """Every test leaves the process-wide cache default untouched."""
    yield
    set_cache_default(None)


def _solver(cache: bool = True) -> ContentionSolver:
    spec = MachineSpec()
    topo = Topology(spec)
    solver = ContentionSolver(
        spec,
        topo,
        PrefetcherBank(spec.total_cores),
        {i: LlcModel(s.llc) for i, s in enumerate(spec.sockets)},
    )
    solver.cache_enabled = cache
    return solver


def _sources() -> list[TrafficSource]:
    return [
        TrafficSource(
            source_id="ml",
            task_id="ml",
            demand_gbps=30.0,
            mem_weights={0: 0.5, 1: 0.5},
            cores=frozenset(range(0, 8)),
            priority=Priority.HIGH,
            working_set_mb=12.0,
            llc_miss_traffic_gain=0.4,
            llc_speed_sensitivity=0.3,
            smt_sensitivity=0.5,
        ),
        TrafficSource(
            source_id="cpu",
            task_id="cpu",
            demand_gbps=45.0,
            mem_weights={0: 1.0},
            cores=frozenset(range(8, 16)),
            threads=16,
            working_set_mb=24.0,
            smt_aggression=0.6,
        ),
    ]


class TestSolveMemo:
    def test_repeat_solve_hits_cache(self) -> None:
        solver = _solver()
        sources = _sources()
        first = solver.solve(sources)
        second = solver.solve(list(sources))
        assert solver.stats.cache_hits == 1
        assert solver.stats.cache_misses == 1
        assert second is first  # memo returns the identical result object

    def test_cache_disabled_always_recomputes(self) -> None:
        solver = _solver(cache=False)
        sources = _sources()
        assert solver.solve_signature(sources) is None
        a = solver.solve(sources)
        b = solver.solve(sources)
        assert solver.stats.cache_hits == 0
        assert a is not b
        assert a == b

    def test_cached_equals_uncached(self) -> None:
        cached = _solver(cache=True)
        uncached = _solver(cache=False)
        sources = _sources()
        for _ in range(3):  # repeat: later solves come from the memo
            assert cached.solve(sources) == uncached.solve(sources)

    def test_signature_covers_mba_caps(self) -> None:
        solver = _solver()
        sources = _sources()
        sig = solver.solve_signature(sources)
        solver.mba_caps[0] = 0.4
        assert solver.solve_signature(sources) != sig

    def test_signature_covers_snc_and_priority_and_qos(self) -> None:
        solver = _solver()
        sources = _sources()
        sig = solver.solve_signature(sources)
        solver.snc_enabled = True
        sig_snc = solver.solve_signature(sources)
        assert sig_snc != sig
        solver.priority_mode = True
        sig_prio = solver.solve_signature(sources)
        assert sig_prio not in (sig, sig_snc)
        solver.qos_aware_prefetch = True
        assert solver.solve_signature(sources) not in (sig, sig_snc, sig_prio)

    def test_signature_covers_llc_masks(self) -> None:
        solver = _solver()
        sources = _sources()
        sig = solver.solve_signature(sources)
        solver.llcs[0].set_clos_mask(1, 0x00FF)
        assert solver.solve_signature(sources) != sig

    def test_signature_covers_prefetcher_state(self) -> None:
        solver = _solver()
        sources = _sources()
        sig = solver.solve_signature(sources)
        solver.prefetchers.set_enabled(9, False)  # a core of the cpu source
        assert solver.solve_signature(sources) != sig

    def test_stale_knob_result_not_served(self) -> None:
        """A knob change must yield a different result, not a stale hit."""
        solver = _solver()
        sources = _sources()
        before = solver.solve(sources)
        solver.mba_caps[0] = 0.3
        after = solver.solve(sources)
        assert after.source_rates["cpu"] != before.source_rates["cpu"]

    def test_source_order_is_part_of_signature(self) -> None:
        solver = _solver()
        sources = _sources()
        sig_fwd = solver.solve_signature(sources)
        sig_rev = solver.solve_signature(list(reversed(sources)))
        # Order-sensitivity guarantees bit-identical float summation on hits.
        assert sig_fwd != sig_rev


class _StaticTask:
    """Minimal AttachedTask with a constant traffic source."""

    def __init__(self) -> None:
        self.task_id = "static"

    def traffic_sources(self) -> list[TrafficSource]:
        return [
            TrafficSource(
                source_id="static",
                task_id="static",
                demand_gbps=20.0,
                mem_weights={0: 1.0},
                cores=frozenset({0, 1}),
            )
        ]

    def sync(self, now: float) -> None:
        pass

    def apply_rates(self, result, now: float) -> None:
        pass


class TestMachineShortCircuit:
    def test_unchanged_signature_skips_resolve(self) -> None:
        sim = Simulator()
        machine = Machine(MachineSpec(), sim)
        machine.solver.cache_enabled = True
        machine.attach(_StaticTask())
        solves = machine.solver.stats.solves
        changes = machine.telemetry.state_changes
        machine.notify_change()  # nothing changed since the attach solve
        assert machine.solver.stats.signature_short_circuits >= 1
        assert machine.solver.stats.solves == solves
        assert machine.telemetry.state_changes == changes

    def test_knob_change_defeats_short_circuit(self) -> None:
        sim = Simulator()
        machine = Machine(MachineSpec(), sim)
        machine.solver.cache_enabled = True
        machine.attach(_StaticTask())
        solves = machine.solver.stats.solves
        machine.set_snc(True)
        assert machine.solver.stats.solves > solves


def _run_policy(policy: str) -> common_mod.ColocationResult:
    # The standalone-reference memo persists across runs; clear it so the
    # cache-on and cache-off passes recompute everything independently.
    common_mod._STANDALONE_CACHE.clear()
    return run_colocation(
        MixConfig(
            ml="cnn1",
            policy=policy,
            cpu="stream",
            intensity=1,
            duration=10.0,
            warmup=2.0,
        )
    )


class TestReferenceMode:
    def test_reference_mode_turns_caching_off(self, monkeypatch) -> None:
        monkeypatch.setenv(REFERENCE_ENV, "1")
        assert not cache_default_enabled()
        assert not Machine(MachineSpec(), Simulator()).solver.cache_enabled
        monkeypatch.delenv(REFERENCE_ENV)
        assert cache_default_enabled()
        assert Machine(MachineSpec(), Simulator()).solver.cache_enabled

    def test_explicit_default_wins(self, monkeypatch) -> None:
        monkeypatch.setenv(REFERENCE_ENV, "1")
        set_cache_default(True)
        assert cache_default_enabled()


class TestEndToEndEquivalence:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_policy_numbers_identical(self, policy: str) -> None:
        set_cache_default(True)
        cached = _run_policy(policy)
        set_cache_default(False)
        uncached = _run_policy(policy)
        assert cached.ml_perf == uncached.ml_perf
        assert cached.ml_perf_norm == uncached.ml_perf_norm
        assert cached.ml_tail == uncached.ml_tail
        assert cached.ml_tail_norm == uncached.ml_tail_norm
        assert cached.cpu_throughput == uncached.cpu_throughput
        assert cached.params == uncached.params
        assert cached.events_dispatched == uncached.events_dispatched
        assert uncached.solver_stats["cache_hits"] == 0

    def test_fig13_numbers_identical(self) -> None:
        from repro.experiments.fig13_overall import run_fig13

        common_mod._STANDALONE_CACHE.clear()
        set_cache_default(True)
        cached = run_fig13(
            duration=10.0,
            policies=("BL", "KP"),
            ml_workloads=("cnn1",),
            mixes=(("stream", 1),),
        )
        common_mod._STANDALONE_CACHE.clear()
        set_cache_default(False)
        uncached = run_fig13(
            duration=10.0,
            policies=("BL", "KP"),
            ml_workloads=("cnn1",),
            mixes=(("stream", 1),),
        )
        assert cached == uncached

    def test_cache_hit_rate_reported(self) -> None:
        set_cache_default(True)
        result = _run_policy("KP")
        stats = result.solver_stats
        assert stats["solves"] > 0
        # The perf layer must actually be doing something on a real run.
        assert (
            stats["cache_hits"] + stats["signature_short_circuits"] > 0
        )
