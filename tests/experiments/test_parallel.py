"""Tests for the deterministic process-pool sweep runner.

The engine's contract: results are returned in point order and are
bit-identical regardless of the worker count, because each point runs under
a deterministic ``(base_seed, index)`` re-seed and fixed work partitioning.
"""

from __future__ import annotations

import os
import pstats
import random

import numpy as np
import pytest

import repro.parallel as parallel_mod
from repro.fleet.survey import FLEET_BLOCK_MACHINES, FleetSurvey
from repro.errors import ExperimentError
from repro.experiments.suite import run_suite
from repro.parallel import (
    PROFILE_DIR_ENV,
    PROFILE_ENV,
    SweepPool,
    get_pool,
    maybe_profiled,
    point_seed,
    profiling_enabled,
    resolve_jobs,
    run_points,
    shutdown_pool,
    sweep_context,
)


def _square(x: int) -> int:
    return x * x


def _draw(x: int) -> tuple[int, float, float]:
    """Uses both global RNGs: exercises the per-point re-seeding."""
    return (x, random.random(), float(np.random.random()))


def _read_context(x: int) -> tuple[int, object]:
    """Returns the worker-visible shared sweep context."""
    return (x, sweep_context())


def _getpid(_: int) -> int:
    return os.getpid()


@pytest.fixture
def many_cpus(monkeypatch: pytest.MonkeyPatch):
    """Report several CPUs, so ``run_points`` takes the pool path even on a
    single-CPU host; shut the pool down afterwards."""
    monkeypatch.setattr(parallel_mod.os, "cpu_count", lambda: 8)
    yield
    shutdown_pool()


class TestResolveJobs:
    def test_default_is_one(self, monkeypatch: pytest.MonkeyPatch) -> None:
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs() == 1

    def test_env_fallback(self, monkeypatch: pytest.MonkeyPatch) -> None:
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert resolve_jobs() == 4
        assert resolve_jobs(2) == 2  # explicit beats the env

    def test_bad_env_raises(self, monkeypatch: pytest.MonkeyPatch) -> None:
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ExperimentError):
            resolve_jobs()

    def test_non_positive_raises(self) -> None:
        with pytest.raises(ExperimentError):
            resolve_jobs(0)


class TestPointSeed:
    def test_deterministic(self) -> None:
        assert point_seed(7, 3) == point_seed(7, 3)

    def test_distinct_across_indices_and_seeds(self) -> None:
        seeds = {point_seed(s, i) for s in range(4) for i in range(16)}
        assert len(seeds) == 64

    def test_32bit_range(self) -> None:
        for i in range(100):
            assert 0 <= point_seed(12345, i) < 2**32


class TestRunPoints:
    def test_serial_order(self) -> None:
        assert run_points(_square, [1, 2, 3]) == [1, 4, 9]

    def test_parallel_equals_serial(self) -> None:
        points = list(range(8))
        serial = run_points(_square, points)
        parallel = run_points(_square, points, jobs=2)
        assert serial == parallel

    def test_rng_reseeding_is_jobs_invariant(self) -> None:
        points = list(range(6))
        serial = run_points(_draw, points, base_seed=11)
        parallel = run_points(_draw, points, jobs=3, base_seed=11)
        assert serial == parallel

    def test_base_seed_changes_draws(self) -> None:
        a = run_points(_draw, [0, 1], base_seed=1)
        b = run_points(_draw, [0, 1], base_seed=2)
        assert a != b

    def test_empty_points(self) -> None:
        assert run_points(_square, []) == []


class TestChunkedDeterminism:
    """Results must not depend on worker count or chunk geometry.

    The chunk size follows from the point count and the worker count, so
    varying both varies the geometry: one point per chunk (23 points on 7
    workers), ragged final chunks (23 points on 2 or 3 workers, 97 on every
    count tried) and the 64-point cap (600 points on 2 workers, ending on a
    24-point chunk).
    """

    def test_results_invariant_across_jobs_and_chunks(self, many_cpus) -> None:
        for n in (23, 97, 600):
            points = list(range(n))
            serial = run_points(_draw, points, jobs=1, base_seed=17)
            for jobs in (2, 3, 7):
                got = run_points(_draw, points, jobs=jobs, base_seed=17)
                assert got == serial, f"points={n} jobs={jobs}"


class TestPointSeedStatistics:
    def test_no_collisions_over_a_grid(self) -> None:
        seeds = {point_seed(s, i) for s in range(4) for i in range(4096)}
        assert len(seeds) == 4 * 4096

    def test_adjacent_indices_are_uncorrelated(self) -> None:
        xs = np.array([point_seed(123, i) for i in range(512)], dtype=float)
        r = np.corrcoef(xs[:-1], xs[1:])[0, 1]
        assert abs(r) < 0.1, f"lag-1 correlation {r}"

    def test_adjacent_base_seeds_are_uncorrelated(self) -> None:
        a = np.array([point_seed(9, i) for i in range(512)], dtype=float)
        b = np.array([point_seed(10, i) for i in range(512)], dtype=float)
        r = np.corrcoef(a, b)[0, 1]
        assert abs(r) < 0.1, f"cross-seed correlation {r}"

    def test_avalanche_between_neighbours(self) -> None:
        # A well-mixed hash flips about half of the 32 output bits between
        # consecutive indices.
        flips = [
            bin(point_seed(5, i) ^ point_seed(5, i + 1)).count("1")
            for i in range(256)
        ]
        mean = sum(flips) / len(flips)
        assert 13.0 <= mean <= 19.0, f"mean bit flips {mean}"


class TestSweepPoolLifecycle:
    def test_close_is_idempotent_and_observable(self) -> None:
        pool = SweepPool(workers=1)
        assert not pool.closed
        pool.close()
        pool.close()
        assert pool.closed

    def test_map_after_close_raises(self) -> None:
        pool = SweepPool(workers=1)
        pool.close()
        with pytest.raises(ExperimentError):
            pool.map_points(_square, [1])

    def test_context_manager_closes(self) -> None:
        with SweepPool(workers=1) as pool:
            assert pool.map_points(_square, [2, 3]) == [4, 9]
        assert pool.closed

    def test_get_pool_reuses_then_recreates(self) -> None:
        try:
            first = get_pool(2)
            assert get_pool(2) is first  # same shape: same warm pool
            third = get_pool(3)
            assert third is not first
            assert first.closed  # the replaced pool was shut down
        finally:
            shutdown_pool()

    def test_invalid_worker_count(self) -> None:
        with pytest.raises(ExperimentError):
            SweepPool(workers=0)


class TestSweepContext:
    def test_serial_path_installs_and_restores(self) -> None:
        context = ("trace", 42)
        results = run_points(_read_context, [0, 1], jobs=1, context=context)
        assert results == [(0, context), (1, context)]
        assert sweep_context() is None  # restored after the sweep

    def test_pool_workers_see_context(self, many_cpus) -> None:
        context = ("trace", 42)
        results = run_points(_read_context, list(range(6)), jobs=2, context=context)
        assert [value for _, value in results] == [context] * 6


class TestChunkSizing:
    def test_auto_sizing(self) -> None:
        pool = SweepPool.__new__(SweepPool)
        pool.workers = 2
        # ~4 chunks per worker, capped at 64, floor of 1.
        assert pool._chunk_size(10) == 2
        assert pool._chunk_size(1000) == 64
        assert pool._chunk_size(3) == 1


class TestProfilingHook:
    def test_disabled_by_default(self, monkeypatch: pytest.MonkeyPatch) -> None:
        monkeypatch.delenv(PROFILE_ENV, raising=False)
        assert not profiling_enabled()

    def test_dumps_loadable_profile(
        self, monkeypatch: pytest.MonkeyPatch, tmp_path
    ) -> None:
        monkeypatch.setenv(PROFILE_ENV, "1")
        monkeypatch.setenv(PROFILE_DIR_ENV, str(tmp_path))
        with maybe_profiled("unit_probe"):
            sum(range(1000))
        out = tmp_path / "unit_probe.prof"
        assert out.exists()
        stats = pstats.Stats(str(out))
        assert stats.total_calls > 0

    def test_profiling_forces_serial(
        self, monkeypatch: pytest.MonkeyPatch, many_cpus
    ) -> None:
        monkeypatch.setenv(PROFILE_ENV, "1")
        pids = run_points(_getpid, [0, 1, 2], jobs=7)
        assert pids == [os.getpid()] * 3


class TestFleetParallel:
    def test_block_partition_covers_fleet(self) -> None:
        survey = FleetSurvey(machines=FLEET_BLOCK_MACHINES + 10, seed=3)
        assert survey.num_blocks() == 2
        assert len(survey.machine_p99()) == survey.machines

    def test_jobs_invariant(self) -> None:
        survey = FleetSurvey(machines=600, seed=7)
        serial = survey.machine_p99()
        parallel = survey.machine_p99(jobs=2)
        assert np.array_equal(serial, parallel)


class TestSuiteParallel:
    def test_parallel_suite_equals_serial(self) -> None:
        subset = ["fig02", "table1"]
        serial = run_suite(experiments=subset, duration=10.0)
        parallel = run_suite(experiments=subset, duration=10.0, jobs=2)
        assert [e.exp_id for e in serial] == [e.exp_id for e in parallel]
        assert [e.text for e in serial] == [e.text for e in parallel]
