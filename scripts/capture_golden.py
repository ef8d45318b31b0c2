#!/usr/bin/env python
"""Capture the golden-equivalence snapshots under ``tests/golden/``.

The control-plane refactor carries a hard guarantee: under
:class:`~repro.control.sensors.PerfectSensors` with actuation faults
disabled, experiment summaries are **bit-identical** to the pre-refactor
implementation. This script produces the reference artifacts the
``tests/integration/test_golden_equivalence.py`` suite compares against:

* ``fig13_small.json`` — a reduced Fig 13 matrix (one ML workload, two CPU
  mixes, all four policies) at an 8 s horizon;
* ``fleet_sim_small.json`` — the per-trial summaries of a 4-node KP fleet
  with batch jobs, two trials.

Run it only when an intentional behaviour change invalidates the goldens::

    PYTHONPATH=src python scripts/capture_golden.py
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

GOLDEN_DIR = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "tests", "golden"
)

#: Reduced Fig 13 shape shared with the equivalence test.
FIG13_KWARGS = dict(
    duration=8.0,
    ml_workloads=("cnn1",),
    mixes=(("stream", 12), ("stitch", 4)),
)

#: Reduced fleet-sim shape shared with the equivalence test.
FLEET_KWARGS = dict(
    nodes=4,
    policy="KP",
    routing="interference-aware",
    ml="rnn1",
    batch_jobs=2,
    duration=4.0,
    warmup=1.0,
    trials=2,
    seed=0,
)


def fig13_summary() -> dict:
    """The reduced Fig 13 matrix as an exactly-comparable JSON object."""
    from repro.experiments.fig13_overall import run_fig13

    result = run_fig13(**FIG13_KWARGS)
    return {
        f"{c.ml}+{c.cpu}:{c.policy}": {
            "ml_slowdown": c.ml_slowdown,
            "cpu_norm_throughput": c.cpu_norm_throughput,
        }
        for c in result.cells
    }


def fleet_summary(jobs: int = 1) -> list[dict]:
    """The reduced fleet-sim per-trial summaries."""
    from repro.experiments.fleet_sim import run_fleet_sim

    result = run_fleet_sim(jobs=jobs, **FLEET_KWARGS)
    return [dict(s) for s in result.summaries]


def main() -> int:
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    fig13_path = os.path.join(GOLDEN_DIR, "fig13_small.json")
    with open(fig13_path, "w", encoding="utf-8") as handle:
        json.dump(fig13_summary(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {fig13_path}")

    fleet_path = os.path.join(GOLDEN_DIR, "fleet_sim_small.json")
    with open(fleet_path, "w", encoding="utf-8") as handle:
        json.dump(fleet_summary(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {fleet_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
