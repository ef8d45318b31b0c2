"""Ablation: dynamic churn — aggressors arriving and leaving mid-run.

Section II-B motivates runtime (rather than scheduling-time) isolation with
production churn: "task colocation is often inevitable due to miscellaneous
software behavior (system updates, garbage collection, load spikes of benign
tasks, etc.)". This experiment injects a Stitch burst into a quiet machine
mid-run and removes it later, then measures the ML task's performance in
each phase and how far the controller's knobs moved — demonstrating that
Kelp both reacts to the burst and *releases* resources afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.node import Node
from repro.core.policies import IsolationPolicy, make_policy
from repro.experiments.common import standalone_performance
from repro.experiments.report import format_table
from repro.sim import Simulator
from repro.sim.engine import PRIORITY_CONTROL
from repro.workloads.cpu.base import BatchTask
from repro.workloads.cpu.catalog import cpu_workload
from repro.workloads.ml.catalog import ml_workload


@dataclass(frozen=True)
class ChurnPhase:
    """ML performance over one phase of the churn timeline."""

    name: str
    start: float
    end: float
    ml_perf_norm: float
    lo_prefetchers_at_end: int


@dataclass(frozen=True)
class ChurnResult:
    """The three-phase churn timeline for one policy."""

    policy: str
    phases: list[ChurnPhase]

    def phase(self, name: str) -> ChurnPhase:
        """Look up a phase by name (quiet/burst/recovered)."""
        for p in self.phases:
            if p.name == name:
                return p
        raise KeyError(name)


def run_ablation_churn(
    policy: str = "KP",
    ml: str = "cnn1",
    quiet: float = 20.0,
    burst: float = 25.0,
    recovery: float = 25.0,
    warmup: float = 5.0,
) -> ChurnResult:
    """Run the quiet -> burst -> recovered timeline under ``policy``."""
    factory = ml_workload(ml)
    sim = Simulator()
    node = Node.create(factory.host_spec(), sim)
    isolation: IsolationPolicy = make_policy(
        policy, node, ml_cores=factory.default_cores()
    )
    isolation.prepare()
    instance = factory.build(
        node.machine, isolation.ml_placement(), warmup_until=warmup
    )
    instance.start()
    if isolation.loop is not None:
        sim.every(isolation.interval, isolation.tick, label="policy:tick",
                  priority=PRIORITY_CONTROL)

    burst_tasks: list[BatchTask] = []

    def start_burst() -> None:
        burst_tasks.extend(isolation.place(cpu_workload("stitch", 5)))

    def stop_burst() -> None:
        isolation.evict(burst_tasks)

    t_burst_start = quiet
    t_burst_end = quiet + burst
    t_end = t_burst_end + recovery
    sim.at(t_burst_start, start_burst, label="churn:start")
    sim.at(t_burst_end, stop_burst, label="churn:stop")

    reference, _ = standalone_performance(ml)
    phases: list[ChurnPhase] = []
    marks = [
        ("quiet", warmup, t_burst_start),
        ("burst", t_burst_start, t_burst_end),
        ("recovered", t_burst_end, t_end),
    ]
    sim.run_until(warmup)
    progress_before = _progress(instance)
    for name, start, end in marks:
        # Sample the controller state just before the phase boundary so the
        # burst phase reports the knobs as they stood *during* the burst.
        sim.run_until(end - 1e-6)
        prefetchers = node.lo_prefetchers_enabled()
        sim.run_until(end)
        progress_now = _progress(instance)
        perf = (progress_now - progress_before) / (end - start) / reference
        progress_before = progress_now
        phases.append(
            ChurnPhase(
                name=name, start=start, end=end, ml_perf_norm=perf,
                lo_prefetchers_at_end=prefetchers,
            )
        )
    return ChurnResult(policy=policy, phases=phases)


def _progress(instance) -> float:
    """Monotone completed-work counter for the ML instance."""
    task = instance.task
    if hasattr(task, "steps_completed"):
        return float(task.steps_completed)
    return float(task.recorder.completed)


def format_ablation_churn(result: ChurnResult) -> str:
    """Render the churn timeline."""
    rows = [
        [p.name, f"{p.start:.0f}-{p.end:.0f}s", p.ml_perf_norm,
         p.lo_prefetchers_at_end]
        for p in result.phases
    ]
    return format_table(
        f"Ablation ({result.policy}): dynamic churn (Stitch burst mid-run)",
        ["phase", "window", "ml_perf_norm", "lo_prefetchers"],
        rows,
        note="the runtime must throttle during the burst and release afterwards",
    )
