"""Deterministic sweep engine for the experiment suite.

Every per-figure driver is a sweep: a list of independent *points* (one
colocation run, one sensitivity placement, one fleet block) mapped through a
pure evaluation function. This module provides one primitive —
:func:`run_points` — that evaluates such a sweep either serially or on a
pool of worker processes that lives for that one call, with three
guarantees:

1. **Determinism.** Before each point, the global RNGs (``random`` and
   legacy ``numpy.random``) are re-seeded from ``(base_seed, index)`` where
   ``index`` is the point's *absolute* position in the sweep. The serial
   path applies *the same* re-seeding, so ``jobs=1`` and ``jobs=8`` (and any
   chunk geometry) produce bit-identical results for the same points.
2. **Order.** Results come back in point order, never completion order.
3. **Purity requirements.** The evaluation function must be a module-level
   callable (picklable) and must not depend on mutable process-global state
   other than the re-seeded RNGs; experiment drivers satisfy this because a
   point builds its own ``Simulator``/``Machine`` from scratch.

Points are shipped to workers in contiguous *chunks*, amortizing pickling
and scheduling overhead. The executor pickles a chunk only when a worker is
about to need it (at most ``workers + 1`` ahead), so a long sweep's pending
chunks stay references into the caller's point list. A worker stays alive
for every chunk of its call, so process-global memo state — most
importantly the contention solver's shared solve cache — stays warm across
the whole sweep. The pool is shut down before :func:`run_points` returns,
so nothing outlives the call, and a point may run a sweep of its own.

Single-core hosts fall back to the serial path automatically: a process
pool on one CPU only adds serialization overhead.
"""

from __future__ import annotations

import os
import random
from concurrent.futures import ProcessPoolExecutor
from itertools import repeat
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.errors import ExperimentError

#: Default base seed mixed into per-point RNG re-seeding.
DEFAULT_BASE_SEED = 0

#: Upper bound on the automatic chunk size.
_MAX_AUTO_CHUNK = 64


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


def _eval_point(
    fn: Callable[[Any], Any], index: int, point: Any, base_seed: int
) -> Any:
    """Re-seed the global RNGs for point ``index``, then evaluate it
    (identical on the serial path and in a worker)."""
    seed = point_seed(base_seed, index)
    random.seed(seed)
    np.random.seed(seed)
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


# --------------------------------------------------------------------------
# The sweep primitive
# --------------------------------------------------------------------------


def _chunk_size(n_points: int, workers: int) -> int:
    """Points per chunk: about four chunks per worker (load-balance slack
    without per-point scheduling overhead), capped for cache friendliness."""
    target = -(-n_points // (workers * 4))
    return max(1, min(_MAX_AUTO_CHUNK, target))


def run_points(
    fn: Callable[[Any], Any],
    points: Sequence[Any] | Iterable[Any],
    jobs: int = 1,
    base_seed: int = DEFAULT_BASE_SEED,
    context: Any = None,
) -> list[Any]:
    """Evaluate ``fn`` over ``points`` on up to ``jobs`` worker processes.

    ``fn`` must be a module-level (picklable) callable taking one point.
    Results are returned in point order; the per-point RNG re-seeding makes
    the output bit-identical for every ``jobs``.

    Runs serially when ``jobs`` is 1, when the sweep has at most one point,
    or on a single-CPU host (a process pool would only add overhead, never
    throughput). Otherwise a pool of ``min(jobs, len(points))`` workers runs
    the sweep and is shut down before this returns. When a point raises,
    the chunks not yet started are cancelled and the error propagates.

    ``context`` is an immutable object shipped once per worker (and
    installed process-locally on the serial path) — see :func:`sweep_context`.
    """
    if jobs < 1:
        raise ExperimentError(f"jobs must be >= 1, got {jobs}")
    points = list(points)
    if jobs == 1 or len(points) <= 1 or (os.cpu_count() or 1) == 1:
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
    with ProcessPoolExecutor(
        workers, initializer=_init_worker, initargs=(context,)
    ) as pool:
        # When a chunk raises, ``map``'s result iterator cancels every chunk
        # not yet started; leaving the ``with`` then waits only for the
        # chunks already running.
        return list(
            pool.map(
                _eval_point,
                repeat(fn),
                range(len(points)),
                points,
                repeat(base_seed),
                chunksize=_chunk_size(len(points), workers),
            )
        )
