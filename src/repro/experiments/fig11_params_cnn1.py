"""Figs 11: runtime parameters for the CNN1 + Stitch mixes.

For each Stitch instance count, record the steady-state knob each mechanism
settles on: cores allocated to CPU tasks (CT), prefetchers enabled for CPU
tasks (KP-SD), and cores allocated to CPU tasks including backfill (KP).
Values are normalized to their maxima, matching the paper's y-axes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.control.records import ControlTickRecord
from repro.experiments.common import MixConfig, run_colocation
from repro.experiments.report import format_series

if TYPE_CHECKING:
    from repro.obs.recorder import RunObserver


@dataclass(frozen=True)
class ParamSweepResult:
    """Normalized steady-state knob values over a sweep."""

    ml: str
    cpu: str
    intensities: tuple[int, ...]
    ct_cores: list[float]
    kpsd_prefetchers: list[float]
    kp_cores: list[float]


def _steady_state(params: list[ControlTickRecord], knob: str) -> float:
    """Average of a knob over the last half of the run (post-convergence)."""
    if not params:
        return 0.0
    tail = params[len(params) // 2:]
    return sum(getattr(p, knob) for p in tail) / len(tail)


def run_param_sweep(
    ml: str,
    cpu: str,
    intensities: tuple[int, ...],
    duration: float = 40.0,
    observer: "RunObserver | None" = None,
) -> ParamSweepResult:
    """Record controller parameters for CT / KP-SD / KP over a sweep.

    With an enabled ``observer`` every point's full controller tick stream
    (measurements + decisions, not just the steady-state averages plotted
    in the figure) lands in the JSONL/trace export.
    """
    ct, kpsd, kp = [], [], []
    for n in intensities:
        r_ct = run_colocation(
            MixConfig(ml=ml, policy="CT", cpu=cpu, intensity=n, duration=duration),
            observer=observer, label=f"{ml}+{cpu}:CT:n={n}",
        )
        ct.append(_steady_state(r_ct.params, "lo_cores"))
        r_sd = run_colocation(
            MixConfig(ml=ml, policy="KP-SD", cpu=cpu, intensity=n, duration=duration),
            observer=observer, label=f"{ml}+{cpu}:KP-SD:n={n}",
        )
        kpsd.append(_steady_state(r_sd.params, "lo_prefetchers"))
        r_kp = run_colocation(
            MixConfig(ml=ml, policy="KP", cpu=cpu, intensity=n, duration=duration),
            observer=observer, label=f"{ml}+{cpu}:KP:n={n}",
        )
        kp.append(
            _steady_state(r_kp.params, "lo_cores")
            + _steady_state(r_kp.params, "backfill_cores")
        )
    def normalize(values: list[float]) -> list[float]:
        peak = max(values) if values and max(values) > 0 else 1.0
        return [v / peak for v in values]
    if observer is not None and observer.enabled:
        observer.note_config(
            sweep_ml=ml, sweep_cpu=cpu, intensities=list(intensities),
            duration=duration,
        )
        for n, steady in zip(intensities, kp):
            observer.metrics.gauge(
                "param_sweep.kp_cores_steady", ml=ml, cpu=cpu, intensity=n
            ).set(steady)
    return ParamSweepResult(
        ml=ml, cpu=cpu, intensities=tuple(intensities),
        ct_cores=normalize(ct),
        kpsd_prefetchers=normalize(kpsd),
        kp_cores=normalize(kp),
    )


def run_fig11(
    duration: float = 40.0, observer: "RunObserver | None" = None
) -> ParamSweepResult:
    """The CNN1 + Stitch parameter sweep (Fig 11a-c)."""
    return run_param_sweep(
        "cnn1", "stitch", (1, 2, 3, 4, 5, 6), duration, observer=observer
    )


def format_params(result: ParamSweepResult, figure: str) -> str:
    """Render the three parameter series."""
    return format_series(
        f"{figure}: runtime parameters for {result.ml} + {result.cpu}",
        "intensity",
        list(result.intensities),
        {
            "CT cores (norm)": result.ct_cores,
            "KP-SD prefetchers (norm)": result.kpsd_prefetchers,
            "KP cores incl backfill (norm)": result.kp_cores,
        },
        note="paper: throttling deepens with load; KP leaves CPU tasks more cores than CT",
    )


def format_fig11(result: ParamSweepResult) -> str:
    """Render Fig 11."""
    return format_params(result, "Fig 11")
