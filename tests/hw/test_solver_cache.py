"""Cache correctness: cached and uncached solver paths must be identical.

The solve memo is only sound if the solve signature covers every input the
solver reads (see docs/model.md). These tests pin that invariant from both
ends: micro-level (signature sensitivity to each knob, memo hit behaviour)
and end-to-end (byte-identical policy experiment numbers with the cache on
and off, across every paper policy).
"""

from __future__ import annotations

import pickle
from dataclasses import replace

import pytest

from repro.experiments import common as common_mod
from repro.experiments.common import MixConfig, run_colocation
from repro.hw import contention
from repro.hw.contention import (
    ContentionSolver,
    Priority,
    TrafficSource,
    clear_shared_cache,
)
from repro.hw.llc import LlcModel
from repro.hw.machine import Machine
from repro.hw.prefetcher import PrefetcherBank
from repro.hw.spec import MachineSpec, cloud_tpu_host_spec
from repro.hw.topology import Topology
from repro.reference import REFERENCE_ENV
from repro.sim import Simulator

POLICIES = ("BL", "CT", "KP-SD", "KP", "MBA", "HW-QOS")


@pytest.fixture(autouse=True)
def _empty_solve_memo():
    """Every test starts from an empty process-wide solve memo."""
    clear_shared_cache()


def _reference(monkeypatch: pytest.MonkeyPatch, on: bool) -> None:
    """Build later solvers on the reference (uncached) path, or not."""
    if on:
        monkeypatch.setenv(REFERENCE_ENV, "1")
    else:
        monkeypatch.delenv(REFERENCE_ENV, raising=False)


def _solver(cache: bool = True, spec: MachineSpec | None = None) -> ContentionSolver:
    spec = MachineSpec() if spec is None else spec
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
        solver.set_mba_cap(0, 0.4)
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
        solver.set_mba_cap(0, 0.3)
        after = solver.solve(sources)
        assert after.source_rates["cpu"] != before.source_rates["cpu"]

    def test_source_order_is_part_of_signature(self) -> None:
        solver = _solver()
        sources = _sources()
        sig_fwd = solver.solve_signature(sources)
        sig_rev = solver.solve_signature(list(reversed(sources)))
        # Order-sensitivity guarantees bit-identical float summation on hits.
        assert sig_fwd != sig_rev


    def test_signature_covers_each_prefetch_field(self) -> None:
        solver = _solver()
        base = _sources()[0]
        for name in ("traffic_gain", "off_demand", "off_speed"):
            profile = replace(
                base.prefetch, **{name: getattr(base.prefetch, name) * 0.95}
            )
            changed = replace(base, prefetch=profile)
            assert solver.solve_signature([changed]) != solver.solve_signature(
                [base]
            ), name


class TestHeldResult:
    """A signature-memo entry serves the result its signature resolved to
    only while the shared memo still holds that result."""

    def test_repeat_solve_reads_the_held_result(self) -> None:
        solver = _solver()
        sources = _sources()
        first = solver.solve(sources)
        assert solver._entry[3] is first
        assert solver.solve(sources) is first
        assert solver.stats.cache_hits == 1

    def test_size_clear_turns_a_held_result_into_a_miss(
        self, monkeypatch
    ) -> None:
        monkeypatch.setattr(contention, "_SOLVE_MEMO_SIZE", 2)
        solver = _solver()
        ml, cpu = _sources()
        solver.solve([ml])
        solver.solve([cpu])
        solver.solve([ml, cpu])  # the memo is full: cleared, then filled
        assert len(solver._memo) == 1
        assert solver.stats.cache_misses == 3
        solver.solve([ml])  # its held result predates the clear
        assert solver.stats.cache_misses == 4
        assert solver.stats.cache_hits == 0
        solver.solve([ml])
        assert solver.stats.cache_hits == 1


class TestMbaCapSetter:
    def test_view_rejects_in_place_mutation(self) -> None:
        solver = _solver()
        solver.set_mba_cap(1, 0.5)
        caps = solver.mba_caps
        with pytest.raises(TypeError):
            caps[1] = 0.2
        with pytest.raises(TypeError):
            del caps[1]
        for mutator in ("popitem", "pop", "clear", "update", "setdefault"):
            assert not hasattr(caps, mutator)
        with pytest.raises(TypeError):
            solver.mba_caps |= {2: 0.5}
        assert dict(solver.mba_caps) == {1: 0.5}

    def test_cached_matches_uncached_after_each_set(self) -> None:
        cached = _solver(cache=True)
        uncached = _solver(cache=False)
        sources = _sources()
        # Cap, re-cap, repeat a value, uncap (removing a cap must also
        # invalidate the cached solve), uncap again.
        writes = [(0, 0.3), (0, 0.6), (1, 0.5), (1, 0.5), (0, None), (0, None)]
        assert cached.solve(sources) == uncached.solve(sources)
        for clos, cap in writes:
            cached.set_mba_cap(clos, cap)
            uncached.set_mba_cap(clos, cap)
            assert dict(cached.mba_caps) == dict(uncached.mba_caps)
            assert cached.solve(sources) == uncached.solve(sources)
        assert cached.stats.cache_hits > 0
        rates = cached.solve(sources).source_rates["cpu"]
        assert rates.mba_issue == 1.0  # CLOS 0 is uncapped again

    def test_knob_version_moves_only_on_change(self) -> None:
        solver = _solver()
        version = solver._knob_version
        solver.set_mba_cap(0, None)  # already uncapped
        solver.set_mba_cap(2, 0.4)
        solver.set_mba_cap(2, 0.4)  # same value
        assert solver._knob_version == version + 1


class TestSharedMemo:
    def test_equal_specs_share_the_memo(self) -> None:
        first, second = _solver(), _solver()
        assert first.spec is not second.spec and first.spec == second.spec
        result = first.solve(_sources())
        assert second.solve(_sources()) is result
        assert second.stats.cache_hits == 1
        assert second.stats.cache_misses == 0

    def test_distinct_specs_do_not_share(self) -> None:
        first = _solver()
        other = _solver(spec=cloud_tpu_host_spec())
        assert other.spec != first.spec
        result = first.solve(_sources())
        assert other.solve(_sources()) is not result
        assert other.stats.cache_hits == 0
        assert other.stats.cache_misses == 1

    def test_clear_shared_cache_empties_a_live_solver(self) -> None:
        solver = _solver()
        sources = _sources()
        solver.solve(sources)
        assert len(solver._memo) == 1
        clear_shared_cache()
        assert len(solver._memo) == 0
        solver.solve(sources)
        assert solver.stats.cache_misses == 2
        assert solver._memo is contention._SOLVE_MEMO[solver.spec]

    def test_pickled_machine_leaves_the_memo_behind(self) -> None:
        machine = Machine(MachineSpec(), Simulator())
        machine.solver.cache_enabled = True
        machine.attach(_StaticTask())
        assert machine.solver._memo and machine.solver._sig_memo
        blob = pickle.dumps(machine)
        clear_shared_cache()
        restored = pickle.loads(blob)
        solver = restored.solver
        assert solver._sig_memo == {}
        assert solver._memo is contention._SOLVE_MEMO[solver.spec]
        assert len(solver._memo) == 0  # nothing rode along in the pickle
        sources = restored.task("static").traffic_sources()
        misses = solver.stats.cache_misses
        result = solver.solve(sources)
        assert solver.stats.cache_misses == misses + 1  # solved afresh
        assert result == machine.solver.solve(sources)


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
        _reference(monkeypatch, True)
        assert not Machine(MachineSpec(), Simulator()).solver.cache_enabled
        _reference(monkeypatch, False)
        assert Machine(MachineSpec(), Simulator()).solver.cache_enabled


class TestEndToEndEquivalence:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_policy_numbers_identical(self, policy: str, monkeypatch) -> None:
        _reference(monkeypatch, False)
        cached = _run_policy(policy)
        _reference(monkeypatch, True)
        uncached = _run_policy(policy)
        assert cached.ml_perf == uncached.ml_perf
        assert cached.ml_perf_norm == uncached.ml_perf_norm
        assert cached.ml_tail == uncached.ml_tail
        assert cached.ml_tail_norm == uncached.ml_tail_norm
        assert cached.cpu_throughput == uncached.cpu_throughput
        assert cached.params == uncached.params
        assert cached.events_dispatched == uncached.events_dispatched
        assert uncached.solver_stats["cache_hits"] == 0

    def test_fig13_numbers_identical(self, monkeypatch) -> None:
        from repro.experiments.fig13_overall import run_fig13

        common_mod._STANDALONE_CACHE.clear()
        _reference(monkeypatch, False)
        cached = run_fig13(
            duration=10.0,
            policies=("BL", "KP"),
            ml_workloads=("cnn1",),
            mixes=(("stream", 1),),
        )
        common_mod._STANDALONE_CACHE.clear()
        _reference(monkeypatch, True)
        uncached = run_fig13(
            duration=10.0,
            policies=("BL", "KP"),
            ml_workloads=("cnn1",),
            mixes=(("stream", 1),),
        )
        assert cached == uncached

    def test_cache_hit_rate_reported(self, monkeypatch) -> None:
        _reference(monkeypatch, False)
        result = _run_policy("KP")
        stats = result.solver_stats
        assert stats["solves"] > 0
        # The perf layer must actually be doing something on a real run.
        assert (
            stats["cache_hits"] + stats["signature_short_circuits"] > 0
        )
