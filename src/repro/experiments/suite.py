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

from repro.experiments.registry import accepts, experiment_ids, run_experiment
from repro.parallel import run_points

if TYPE_CHECKING:
    from repro.obs.recorder import RunObserver

#: Experiments taking a workload argument, run once per listed workload.
_PER_WORKLOAD: dict[str, tuple[str, ...]] = {
    "fig07": ("rnn1", "cnn1", "cnn2"),
    "fig16": ("cnn1", "cnn2"),
}


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
    takes = accepts(exp_id)
    kwargs: dict = {}
    if "duration" in takes:
        kwargs["duration"] = duration
    if ml is not None:
        kwargs["ml"] = ml
    if observer is not None and "observer" in takes:
        kwargs["observer"] = observer
    name = exp_id if ml is None else f"{exp_id}:{ml}"
    started = time.perf_counter()
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
    jobs: int = 1,
    observer: "RunObserver | None" = None,
) -> list[SuiteEntry]:
    """Execute the registry (or a subset) and collect formatted outputs.

    ``jobs`` > 1 fans the independent experiment points out over a process
    pool (see :mod:`repro.parallel`); results are identical to
    the serial run and come back in registry order.

    An enabled ``observer`` records per-experiment wall-clock spans and
    roll-up metrics. When running serially it is additionally threaded into
    every experiment whose runner takes an ``observer``, exporting its full
    tick/telemetry streams; parallel workers cannot share the parent's observer,
    so ``jobs`` > 1 keeps the suite-level view only.
    """
    points = suite_points(experiments, duration)
    observing = observer is not None and observer.enabled
    fn = _suite_point
    if observing and jobs == 1:
        fn = partial(_suite_point, observer=observer)
    entries = run_points(fn, points, jobs=jobs)
    if observing:
        observer.note_config(
            suite_duration=duration,
            suite_jobs=jobs,
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
