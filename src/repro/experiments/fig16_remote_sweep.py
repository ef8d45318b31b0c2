"""Fig 16: Cloud TPU platform remote-memory sweep (Section VI-A).

For CNN1 and CNN2, sweep the percentage of the antagonist's dataset homed on
the ML task's socket (x-axis) against the percentage of its threads running
there (series). Slowdown (1 / normalized performance) grows as more traffic
crosses the socket boundary; remote traffic hurts more than the equivalent
local interference.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import standalone_performance
from repro.experiments.report import format_series
from repro.experiments.sensitivity import run_sensitivity
from repro.parallel import run_points

DATA_FRACTIONS = (0.0, 0.25, 0.5, 1.0)
THREAD_FRACTIONS = (0.0, 0.25, 0.5, 1.0)


@dataclass(frozen=True)
class Fig16Result:
    """Slowdown grid for one workload: (thread_fraction -> series over data)."""

    ml: str
    data_fractions: tuple[float, ...]
    slowdown: dict[float, list[float]]

    def max_slowdown(self) -> float:
        """Worst slowdown anywhere in the grid."""
        return max(max(series) for series in self.slowdown.values())


def _fig16_point(point: tuple[str, float | None, float | None, float]) -> float:
    """One locality-sweep run (module-level: runs inside pool workers).

    A ``None`` fraction pair marks the no-antagonist baseline point: the
    standalone run every experiment normalizes by, simulated once per
    process.
    """
    ml, df, tf, duration = point
    if df is None:
        return standalone_performance(ml, duration)[0]
    return run_sensitivity(
        ml, "remote-dram", "H",
        remote_data_fraction=df, remote_thread_fraction=tf,
        duration=duration,
    )


def run_fig16(
    ml: str = "cnn1",
    duration: float = 40.0,
    data_fractions: tuple[float, ...] = DATA_FRACTIONS,
    thread_fractions: tuple[float, ...] = THREAD_FRACTIONS,
    jobs: int = 1,
) -> Fig16Result:
    """Run the locality sweep for ``ml`` (cnn1 or cnn2).

    The baseline plus the full (threads x data) grid are independent
    simulations; ``jobs`` > 1 runs them on a process pool with identical
    results to the serial sweep.
    """
    points: list[tuple[str, float | None, float | None, float]] = [
        (ml, None, None, duration)
    ]
    for tf in thread_fractions:
        for df in data_fractions:
            points.append((ml, df, tf, duration))
    raw = run_points(_fig16_point, points, jobs=jobs)
    baseline = raw[0]
    grid: dict[float, list[float]] = {}
    cursor = 1
    for tf in thread_fractions:
        grid[tf] = [baseline / perf for perf in raw[cursor : cursor + len(data_fractions)]]
        cursor += len(data_fractions)
    return Fig16Result(
        ml=ml, data_fractions=tuple(data_fractions), slowdown=grid
    )


def format_fig16(result: Fig16Result) -> str:
    """Render the slowdown grid."""
    return format_series(
        f"Fig 16 ({result.ml}): slowdown vs antagonist data locality",
        "pct_data_on_local_socket",
        [f"{f:.0%}" for f in result.data_fractions],
        {
            f"{tf:.0%} local threads": series
            for tf, series in result.slowdown.items()
        },
        note="paper: remote traffic causes higher slowdown than local "
             "interference, up to ~2.5-3x on the Cloud TPU platform",
    )
