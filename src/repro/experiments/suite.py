"""Run every registered experiment and assemble one report.

``python -m repro report`` (or :func:`run_suite`) executes the full
per-figure registry at configurable scale and writes a single markdown/text
document — the regenerated evaluation section of the paper.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING

from repro.experiments.registry import OBS_AWARE, experiment_ids, run_experiment
from repro.parallel import maybe_profiled, resolve_jobs, run_points

if TYPE_CHECKING:
    from repro.obs.recorder import RunObserver

#: Experiments taking a workload argument, run once per listed workload.
_PER_WORKLOAD: dict[str, tuple[str, ...]] = {
    "fig07": ("rnn1", "cnn1", "cnn2"),
    "fig16": ("cnn1", "cnn2"),
}

#: Experiments that do not accept a duration override.
_NO_DURATION = {"fig02", "table1", "ablation-churn", "ablation-hwprefetch"}


@dataclass(frozen=True)
class SuiteEntry:
    """One executed experiment in the report."""

    exp_id: str
    text: str
    seconds: float


def _suite_point(
    point: tuple[str, str | None, float],
    observer: "RunObserver | None" = None,
) -> SuiteEntry:
    """Evaluate one suite entry (module-level: runs inside pool workers)."""
    exp_id, ml, duration = point
    kwargs: dict = {}
    if exp_id not in _NO_DURATION:
        kwargs["duration"] = duration
    if ml is not None:
        kwargs["ml"] = ml
    if observer is not None and exp_id in OBS_AWARE:
        kwargs["observer"] = observer
    name = exp_id if ml is None else f"{exp_id}:{ml}"
    started = time.perf_counter()
    # REPRO_PROFILE=1 dumps one <experiment>.prof per entry (and forces the
    # suite serial, so the profile sees the real work in-process).
    with maybe_profiled(name.replace(":", "_")):
        _, text = run_experiment(exp_id, **kwargs)
    return SuiteEntry(
        exp_id=name,
        text=text,
        seconds=time.perf_counter() - started,
    )


def suite_points(
    experiments: list[str] | None = None,
    duration: float = 30.0,
) -> list[tuple[str, str | None, float]]:
    """Expand the registry (or a subset) into independent suite points."""
    wanted = experiments if experiments is not None else experiment_ids()
    return [
        (exp_id, ml, duration)
        for exp_id in wanted
        for ml in _PER_WORKLOAD.get(exp_id, (None,))
    ]


def run_suite(
    experiments: list[str] | None = None,
    duration: float = 30.0,
    jobs: int | None = None,
    observer: "RunObserver | None" = None,
) -> list[SuiteEntry]:
    """Execute the registry (or a subset) and collect formatted outputs.

    ``jobs`` > 1 fans the independent experiment points out over a process
    pool (see :mod:`repro.parallel`); results are identical to
    the serial run and come back in registry order.

    An enabled ``observer`` records per-experiment wall-clock spans and
    roll-up metrics. When running serially it is additionally threaded into
    the obs-aware experiments (``OBS_AWARE``), exporting their full tick/
    telemetry streams; parallel workers cannot share the parent's observer,
    so ``jobs`` > 1 keeps the suite-level view only.
    """
    points = suite_points(experiments, duration)
    observing = observer is not None and observer.enabled
    fn = _suite_point
    if observing and resolve_jobs(jobs) == 1:
        fn = partial(_suite_point, observer=observer)
    entries = run_points(fn, points, jobs=jobs)
    if observing:
        observer.note_config(
            suite_duration=duration,
            suite_jobs=resolve_jobs(jobs),
            suite_experiments=[e.exp_id for e in entries],
        )
        offset = 0.0
        for entry in entries:
            observer.add_span(
                "suite", "experiments", entry.exp_id, offset, entry.seconds,
                args={"wall_s": round(entry.seconds, 3)},
            )
            offset += entry.seconds
            observer.record(
                "suite_entry", exp_id=entry.exp_id,
                wall_s=round(entry.seconds, 3), chars=len(entry.text),
            )
            observer.metrics.histogram("suite.experiment_seconds").observe(
                entry.seconds
            )
        observer.metrics.counter("suite.experiments").inc(len(entries))
    return entries


def format_suite(entries: list[SuiteEntry]) -> str:
    """Assemble the suite report."""
    total = sum(e.seconds for e in entries)
    lines = [
        "# Kelp reproduction — full experiment report",
        "",
        f"{len(entries)} experiment runs, {total:.0f}s wall clock.",
        "",
    ]
    for entry in entries:
        lines.append(f"## {entry.exp_id}  ({entry.seconds:.1f}s)")
        lines.append("")
        lines.append("```")
        lines.append(entry.text)
        lines.append("```")
        lines.append("")
    return "\n".join(lines)
