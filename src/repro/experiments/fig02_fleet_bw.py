"""Fig 2: 99 %-ile memory bandwidth across a production-like fleet.

The paper's survey of one server generation over a day finds 16 % of
machines with 99 %-ile bandwidth above 70 % of peak. The driver regenerates
the CDF from the synthetic fleet model and reports the same statistic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.fleet.survey import FleetSurvey, fleet_bandwidth_cdf
from repro.experiments.report import format_series

if TYPE_CHECKING:
    from repro.obs.recorder import RunObserver


@dataclass(frozen=True)
class Fig02Result:
    """The CDF evaluated on a fixed grid plus the headline statistic."""

    utilization_grid: list[float]
    fraction_of_machines: list[float]
    fraction_above_70pct: float


def run_fig02(
    machines: int = 1000,
    seed: int = 42,
    jobs: int = 1,
    observer: "RunObserver | None" = None,
) -> Fig02Result:
    """Regenerate the Fig 2 curve.

    ``jobs`` > 1 evaluates the fleet's fixed seed-blocks on a process pool;
    block seeding makes the curve independent of the worker count. With an
    enabled ``observer`` the survey publishes the per-machine p99
    distribution and the headline statistic into the metrics registry.
    """
    cdf = fleet_bandwidth_cdf(FleetSurvey(machines=machines, seed=seed), jobs=jobs)
    grid = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
    fractions = [
        float(np.searchsorted(cdf.utilization, u, side="right") / machines)
        for u in grid
    ]
    result = Fig02Result(
        utilization_grid=grid,
        fraction_of_machines=fractions,
        fraction_above_70pct=cdf.fraction_above_70pct,
    )
    if observer is not None and observer.enabled:
        observer.note_seed("fleet.seed", seed)
        observer.note_config(fleet_machines=machines)
        observer.metrics.counter("fleet.machines").inc(machines)
        observer.metrics.gauge("fleet.fraction_above_70pct").set(
            cdf.fraction_above_70pct
        )
        p99_hist = observer.metrics.histogram("fleet.machine_p99_utilization")
        for value in cdf.utilization:
            p99_hist.observe(float(value))
        observer.record(
            "fleet_cdf",
            utilization_grid=grid,
            fraction_of_machines=fractions,
            fraction_above_70pct=cdf.fraction_above_70pct,
        )
    return result


def format_fig02(result: Fig02Result) -> str:
    """Render the CDF and the headline statistic."""
    return format_series(
        "Fig 2: fleet 99%-ile memory-BW CDF",
        "pct_of_peak",
        [f"{u:.0%}" for u in result.utilization_grid],
        {"machines_at_or_below": result.fraction_of_machines},
        note=(
            f"{result.fraction_above_70pct:.1%} of machines above 70% of peak "
            "(paper: 16%)"
        ),
    )
