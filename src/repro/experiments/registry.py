"""Registry mapping experiment ids to their driver modules.

Each id names a module of :mod:`repro.experiments` that defines
``run_<id>`` and ``format_<id>``, with ``-`` mapped to ``_``: the runner
produces a result object and the formatter renders the paper-style rows.
The runner's keyword parameters are the experiment's contract.
:func:`accepts` reads them from its signature, so callers pass ``jobs``,
``observer`` or ``duration`` only where the runner takes them, and
:func:`run_experiment` refuses any other keyword.
"""

from __future__ import annotations

import importlib
import inspect
from typing import Any, Callable

from repro.errors import ExperimentError

_MODULES: dict[str, str] = {
    "fig02": "fig02_fleet_bw",
    "fig03": "fig03_timeline",
    "fig05": "fig05_sensitivity",
    "fig07": "fig07_backpressure",
    "fig09": "fig09_cnn1_stitch",
    "fig10": "fig10_rnn1_cpuml",
    "fig11": "fig11_params_cnn1",
    "fig12": "fig12_params_rnn1",
    "fig13": "fig13_overall",
    "fig14": "fig14_efficiency",
    "fig15": "fig15_remote",
    "fig16": "fig16_remote_sweep",
    "table1": "table1_workloads",
    "fleet-sim": "fleet_sim",
    "fleet-trace": "fleet_trace",
    "fleet-serve": "fleet_serve",
    "fleet-incidents": "fleet_incidents",
    "ablation-hwqos": "ablation_hwqos",
    "ablation-backfill": "ablation_backfill",
    "ablation-mba": "ablation_mba",
    "ablation-infeed-ratio": "ablation_infeed_ratio",
    "ablation-knee": "ablation_knee",
    "ablation-churn": "ablation_churn",
    "ablation-tail": "ablation_tail",
    "ablation-hwprefetch": "ablation_hwprefetch",
    "ablation-sensor-noise": "ablation_sensor_noise",
}


def experiment_ids() -> list[str]:
    """All registered experiment ids, in figure order."""
    return list(_MODULES)


def _driver(exp_id: str) -> tuple[Callable, Callable]:
    """Import the experiment's module; return ``(runner, formatter)``."""
    if exp_id not in _MODULES:
        raise ExperimentError(
            f"unknown experiment {exp_id!r}; known: {experiment_ids()}"
        )
    module = importlib.import_module(f"repro.experiments.{_MODULES[exp_id]}")
    stem = exp_id.replace("-", "_")
    return getattr(module, f"run_{stem}"), getattr(module, f"format_{stem}")


def accepts(exp_id: str) -> frozenset[str]:
    """The keyword arguments the experiment's runner takes."""
    runner, _ = _driver(exp_id)
    return frozenset(
        name
        for name, param in inspect.signature(runner).parameters.items()
        if param.kind in (param.POSITIONAL_OR_KEYWORD, param.KEYWORD_ONLY)
    )


def run_experiment(exp_id: str, **kwargs: Any) -> tuple[Any, str]:
    """Run one experiment and return ``(result, formatted_text)``."""
    takes = accepts(exp_id)
    unknown = sorted(set(kwargs) - takes)
    if unknown:
        raise ExperimentError(
            f"{exp_id} takes no {', '.join(unknown)}; it takes "
            f"{', '.join(sorted(takes)) or 'no arguments'}"
        )
    runner, formatter = _driver(exp_id)
    result = runner(**kwargs)
    return result, formatter(result)
