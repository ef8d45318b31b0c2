"""Deterministic persistent-worker sweep engine for the experiment suite.

Every per-figure driver is a sweep: a list of independent *points* (one
colocation run, one sensitivity placement, one fleet block) mapped through a
pure evaluation function. This module provides one primitive —
:func:`run_points` — that evaluates such a sweep either serially or on a
persistent :class:`SweepPool` of worker processes, with four guarantees:

1. **Determinism.** Before each point, the worker's global RNGs (``random``
   and legacy ``numpy.random``) are re-seeded from ``(base_seed, index)``
   where ``index`` is the point's *absolute* position in the sweep. The
   serial path applies *the same* re-seeding, so ``jobs=1`` and ``jobs=8``
   (and any chunk geometry) produce bit-identical results for the same points.
2. **Order.** Results come back in point order, never completion order.
3. **Purity requirements.** The evaluation function must be a module-level
   callable (picklable) and must not depend on mutable process-global state
   other than the re-seeded RNGs; experiment drivers satisfy this because a
   point builds its own ``Simulator``/``Machine`` from scratch.
4. **Warm workers.** Workers persist across :func:`run_points` calls (the
   pool is reused while the worker count and shared context are unchanged),
   so process-global memo state — most importantly the contention solver's
   shared solve cache — survives from one point, chunk, and sweep to the
   next instead of being rebuilt per point.

Points are shipped to workers in contiguous *chunks*, amortizing pickling
and scheduling overhead. The executor pickles a chunk only when a worker is
about to need it (at most ``workers + 1`` ahead), so a long sweep's pending
chunks stay references into the caller's point list.

``jobs=None`` falls back to the ``REPRO_JOBS`` environment variable (then
to 1), so wrapping scripts can parallelize a whole pipeline without
threading the flag through every call site. Single-core hosts fall back to
the serial path automatically: a process pool on one CPU only adds
serialization overhead.

Setting ``REPRO_PROFILE=1`` also forces the serial path so that the
per-experiment :func:`maybe_profiled` cProfile hook observes the real work
in-process rather than an idle parent waiting on futures.
"""

from __future__ import annotations

import atexit
import cProfile
import os
import random
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.errors import ExperimentError

#: Environment variable consulted when ``jobs`` is not given explicitly.
JOBS_ENV = "REPRO_JOBS"

#: Environment variable enabling the opt-in cProfile hook (and forcing the
#: serial path so the profile captures the actual point evaluations).
PROFILE_ENV = "REPRO_PROFILE"

#: Environment variable naming the directory ``.prof`` dumps land in
#: (defaults to the current working directory).
PROFILE_DIR_ENV = "REPRO_PROFILE_DIR"

#: Default base seed mixed into per-point RNG re-seeding.
DEFAULT_BASE_SEED = 0

#: Upper bound on the automatic chunk size.
_MAX_AUTO_CHUNK = 64


def resolve_jobs(jobs: int | None = None) -> int:
    """Normalize a ``jobs`` request: explicit value > ``REPRO_JOBS`` > 1."""
    if jobs is None:
        raw = os.environ.get(JOBS_ENV, "").strip()
        if raw:
            try:
                jobs = int(raw)
            except ValueError:
                raise ExperimentError(
                    f"{JOBS_ENV}={raw!r} is not an integer"
                ) from None
        else:
            jobs = 1
    if jobs < 1:
        raise ExperimentError(f"jobs must be >= 1, got {jobs}")
    return jobs


def profiling_enabled() -> bool:
    """Whether the opt-in ``REPRO_PROFILE=1`` cProfile hook is active."""
    return os.environ.get(PROFILE_ENV, "").strip() in {"1", "true", "yes", "on"}


@contextmanager
def maybe_profiled(name: str) -> Iterator[None]:
    """Profile the enclosed block when ``REPRO_PROFILE=1``.

    Dumps ``<name>.prof`` (pstats format) into ``REPRO_PROFILE_DIR`` or the
    current working directory. A no-op when profiling is disabled, so hot
    paths can wrap themselves unconditionally.
    """
    if not profiling_enabled():
        yield
        return
    profile = cProfile.Profile()
    profile.enable()
    try:
        yield
    finally:
        profile.disable()
        out_dir = os.environ.get(PROFILE_DIR_ENV, "").strip() or os.getcwd()
        os.makedirs(out_dir, exist_ok=True)
        profile.dump_stats(os.path.join(out_dir, f"{name}.prof"))


def point_seed(base_seed: int, index: int) -> int:
    """The deterministic 32-bit seed for point ``index`` of a sweep."""
    # SplitMix-style mix keeps nearby (seed, index) pairs uncorrelated.
    x = (base_seed * 0x9E3779B97F4A7C15 + index * 0xBF58476D1CE4E5B9) & (
        (1 << 64) - 1
    )
    x ^= x >> 31
    x = (x * 0x94D049BB133111EB) & ((1 << 64) - 1)
    x ^= x >> 29
    return x & 0xFFFFFFFF


def _reseed(base_seed: int, index: int) -> None:
    """Re-seed the global RNGs for one point (identical serial/parallel)."""
    seed = point_seed(base_seed, index)
    random.seed(seed)
    try:  # numpy is a hard dependency today, but stay import-tolerant.
        import numpy as np

        np.random.seed(seed)
    except ImportError:  # pragma: no cover
        pass


def _eval_point(
    fn: Callable[[Any], Any], index: int, point: Any, base_seed: int
) -> Any:
    """Worker body: re-seed, then evaluate one point."""
    _reseed(base_seed, index)
    return fn(point)


# --------------------------------------------------------------------------
# Worker-side shared context
# --------------------------------------------------------------------------

#: Immutable context shipped once per worker by the pool initializer (and
#: installed by the serial path for symmetry). ``None`` when no sweep set one.
_WORKER_CONTEXT: Any = None


def _init_worker(context: Any) -> None:
    """Pool initializer: install the sweep's shared immutable context."""
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = context


def sweep_context() -> Any:
    """The shared context of the active sweep (``None`` outside one).

    Evaluation functions use this to reach large shared *read-only* inputs
    (a spec table, a trace, a config object) that would otherwise be pickled
    into every chunk; the pool ships it once per worker instead.
    """
    return _WORKER_CONTEXT


def _eval_chunk(
    fn: Callable[[Any], Any],
    start: int,
    points: Sequence[Any],
    base_seed: int,
) -> list[Any]:
    """Worker body: evaluate one contiguous chunk of points.

    Each point is re-seeded from its *absolute* sweep index, so results are
    independent of how the sweep was chunked.
    """
    return [
        _eval_point(fn, start + offset, point, base_seed)
        for offset, point in enumerate(points)
    ]


# --------------------------------------------------------------------------
# The persistent pool
# --------------------------------------------------------------------------


class SweepPool:
    """A reusable pool of warm worker processes for chunked sweeps.

    Workers are spawned once and survive across :meth:`map_points` calls, so
    process-global memo state (the solver's shared solve cache above all)
    stays warm from sweep to sweep. An optional immutable ``context`` object
    is shipped to each worker exactly once via the pool initializer and is
    readable through :func:`sweep_context`.
    """

    def __init__(self, workers: int, context: Any = None) -> None:
        if workers < 1:
            raise ExperimentError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.context = context
        self._pool: ProcessPoolExecutor | None = ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_worker,
            initargs=(context,),
        )

    # ------------------------------------------------------------- mapping
    def map_points(
        self,
        fn: Callable[[Any], Any],
        points: Sequence[Any] | Iterable[Any],
        base_seed: int = DEFAULT_BASE_SEED,
    ) -> list[Any]:
        """Evaluate ``fn`` over ``points`` on the pool, in point order."""
        if self._pool is None:
            raise ExperimentError("SweepPool is closed")
        points = list(points)
        size = self._chunk_size(len(points))
        futures = [
            self._pool.submit(
                _eval_chunk, fn, start, points[start : start + size], base_seed
            )
            for start in range(0, len(points), size)
        ]
        return [result for future in futures for result in future.result()]

    def _chunk_size(self, n_points: int) -> int:
        """Points per chunk: about four chunks per worker (load-balance
        slack without per-point scheduling overhead), capped for cache
        friendliness."""
        target = -(-n_points // (self.workers * 4))
        return max(1, min(_MAX_AUTO_CHUNK, target))

    # ----------------------------------------------------------- lifecycle
    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._pool is None

    def close(self) -> None:
        """Shut the worker processes down. Idempotent."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def __enter__(self) -> "SweepPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


#: The process-wide reusable pool (single entry: consecutive sweeps almost
#: always share one worker count and context).
_ACTIVE_POOL: SweepPool | None = None


def get_pool(workers: int, context: Any = None) -> SweepPool:
    """The shared persistent pool, recreated only when its shape changes.

    Reuses the live pool while ``workers`` and ``context`` (by identity)
    match; otherwise the old pool is shut down and a fresh one spawned.
    """
    global _ACTIVE_POOL
    pool = _ACTIVE_POOL
    if (
        pool is not None
        and not pool.closed
        and pool.workers == workers
        and pool.context is context
    ):
        return pool
    if pool is not None:
        pool.close()
    _ACTIVE_POOL = SweepPool(workers, context)
    return _ACTIVE_POOL


def shutdown_pool() -> None:
    """Shut down the shared persistent pool (tests, interpreter exit)."""
    global _ACTIVE_POOL
    if _ACTIVE_POOL is not None:
        _ACTIVE_POOL.close()
        _ACTIVE_POOL = None


atexit.register(shutdown_pool)


# --------------------------------------------------------------------------
# The sweep primitive
# --------------------------------------------------------------------------


def run_points(
    fn: Callable[[Any], Any],
    points: Sequence[Any] | Iterable[Any],
    jobs: int | None = None,
    base_seed: int = DEFAULT_BASE_SEED,
    context: Any = None,
) -> list[Any]:
    """Evaluate ``fn`` over ``points``, serially or on the persistent pool.

    ``fn`` must be a module-level (picklable) callable taking one point.
    Results are returned in point order; the per-point RNG re-seeding makes
    the output bit-identical for every ``jobs``.

    Falls back to the serial path when any of these hold (a process pool
    would only add overhead, never throughput):

    - ``jobs`` resolves to 1, or the sweep has at most one point;
    - the host has a single CPU;
    - ``REPRO_PROFILE=1`` is set (the profile must see the real work).

    ``context`` is an immutable object shipped once per worker (and
    installed process-locally on the serial path) — see :func:`sweep_context`.
    """
    points = list(points)
    jobs = resolve_jobs(jobs)
    cpus = os.cpu_count() or 1
    serial = jobs == 1 or len(points) <= 1 or cpus == 1 or profiling_enabled()
    if serial:
        global _WORKER_CONTEXT
        previous = _WORKER_CONTEXT
        _WORKER_CONTEXT = context
        try:
            return [
                _eval_point(fn, index, point, base_seed)
                for index, point in enumerate(points)
            ]
        finally:
            _WORKER_CONTEXT = previous
    workers = min(jobs, len(points))
    pool = get_pool(workers, context)
    return pool.map_points(fn, points, base_seed=base_seed)
