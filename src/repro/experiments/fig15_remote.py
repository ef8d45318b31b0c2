"""Fig 15: sensitivity to remote memory interference (Section VI-A).

Adds the Remote-DRAM antagonist — same traffic as DRAM, but issued from the
remote socket against data homed on the ML task's socket — to the Fig 5
matrix. Shape targets: on the Cloud TPU platform (CNN1/CNN2) Remote-DRAM
costs an additional ~16 % and ~27 % beyond local DRAM; TPU and GPU hosts are
far less affected.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import standalone_performance
from repro.experiments.report import format_table
from repro.experiments.sensitivity import run_sensitivity
from repro.metrics.slowdown import arithmetic_mean

WORKLOADS = ("rnn1", "cnn1", "cnn2", "cnn3")


@dataclass(frozen=True)
class Fig15Result:
    """Normalized performance per workload under the three antagonists."""

    llc: dict[str, float]
    dram: dict[str, float]
    remote_dram: dict[str, float]

    def remote_extra_loss(self, ml: str) -> float:
        """Additional loss of Remote-DRAM beyond local DRAM."""
        return self.dram[ml] - self.remote_dram[ml]


def run_fig15(duration: float = 40.0) -> Fig15Result:
    """Run the 4x3 sensitivity matrix."""
    llc: dict[str, float] = {}
    dram: dict[str, float] = {}
    remote: dict[str, float] = {}
    for ml in WORKLOADS:
        baseline = standalone_performance(ml, duration)[0]
        llc[ml] = run_sensitivity(ml, "llc", duration=duration) / baseline
        dram[ml] = run_sensitivity(ml, "dram", "H", duration=duration) / baseline
        remote[ml] = (
            run_sensitivity(
                ml, "remote-dram", "H",
                remote_data_fraction=1.0, remote_thread_fraction=0.0,
                duration=duration,
            )
            / baseline
        )
    return Fig15Result(llc=llc, dram=dram, remote_dram=remote)


def format_fig15(result: Fig15Result) -> str:
    """Render the Fig 15 bars."""
    rows = [
        [ml, result.llc[ml], result.dram[ml], result.remote_dram[ml]]
        for ml in WORKLOADS
    ]
    rows.append([
        "average",
        arithmetic_mean(result.llc.values()),
        arithmetic_mean(result.dram.values()),
        arithmetic_mean(result.remote_dram.values()),
    ])
    return format_table(
        "Fig 15: sensitivity incl. remote memory interference (normalized perf)",
        ["workload", "LLC", "DRAM", "RemoteDRAM"],
        rows,
        note="paper: RemoteDRAM costs an extra ~16% (CNN1) / ~27% (CNN2) on the "
             "Cloud TPU platform",
    )
