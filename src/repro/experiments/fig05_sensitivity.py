"""Fig 5: workload sensitivity to LLC vs DRAM interference (Section III-B).

Each of the four accelerated workloads is colocated with the LLC antagonist
(SMT-sharing the whole socket) and the DRAM antagonist (same socket, spare
cores). Performance is normalized to no interference. Shape targets: LLC
causes a noticeable ~14 % average degradation; DRAM a dramatic ~40 %.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.report import format_table
from repro.experiments.sensitivity import run_sensitivity
from repro.metrics.slowdown import arithmetic_mean
from repro.parallel import run_points

WORKLOADS = ("rnn1", "cnn1", "cnn2", "cnn3")


@dataclass(frozen=True)
class Fig05Result:
    """Normalized performance per workload and antagonist."""

    llc: dict[str, float]
    dram: dict[str, float]
    llc_average: float
    dram_average: float


def _fig05_point(point: tuple[str, str | None, str, float]) -> float:
    """One raw sensitivity run (module-level: runs inside pool workers)."""
    ml, antagonist, level, duration = point
    return run_sensitivity(ml, antagonist, level, duration=duration)


def run_fig05(duration: float = 40.0, jobs: int = 1) -> Fig05Result:
    """Run the 4x2 sensitivity matrix (plus 4 baselines), 12 points total.

    With ``jobs`` > 1 the points run on a process pool; normalization
    happens after the sweep, so the numbers are identical to a serial run.
    """
    points = [
        (ml, antagonist, level, duration)
        for ml in WORKLOADS
        for antagonist, level in ((None, "H"), ("llc", "H"), ("dram", "H"))
    ]
    raw = run_points(_fig05_point, points, jobs=jobs)
    llc: dict[str, float] = {}
    dram: dict[str, float] = {}
    for i, ml in enumerate(WORKLOADS):
        baseline, llc_perf, dram_perf = raw[3 * i : 3 * i + 3]
        llc[ml] = llc_perf / baseline
        dram[ml] = dram_perf / baseline
    return Fig05Result(
        llc=llc,
        dram=dram,
        llc_average=arithmetic_mean(llc.values()),
        dram_average=arithmetic_mean(dram.values()),
    )


def format_fig05(result: Fig05Result) -> str:
    """Render the Fig 5 bars as a table."""
    rows = [[ml, result.llc[ml], result.dram[ml]] for ml in WORKLOADS]
    rows.append(["average", result.llc_average, result.dram_average])
    return format_table(
        "Fig 5: sensitivity to shared-resource interference (normalized perf)",
        ["workload", "LLC", "DRAM"],
        rows,
        note="paper averages: LLC 0.86, DRAM 0.60; CNN1 is the most DRAM-sensitive",
    )
