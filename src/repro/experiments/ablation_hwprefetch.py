"""Ablation: hardware vs software prefetcher management during transients.

Section VI-B argues for integrating prefetcher-pressure management into
hardware: "A hardware-based solution has the advantage of being able to
adapt to fast-changing system behavior with little performance overhead."
Software management reacts at the sampling interval; during a sudden load
transient the accelerated task eats the full backpressure for up to one
interval before the runtime responds.

This driver injects a DRAM burst and compares the ML task's performance in
the *transient window* (the first sampling interval after burst start) and
in steady state, under software KP-SD at the paper's 10 s sampling interval
versus the solver-integrated hardware prefetch QoS.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.node import LO_SUBDOMAIN, Node
from repro.core.policies import IsolationPolicy, make_policy
from repro.experiments.common import standalone_performance
from repro.experiments.report import format_table
from repro.hw.placement import Placement
from repro.sim import Simulator
from repro.sim.engine import PRIORITY_CONTROL
from repro.workloads.cpu.base import BatchTask
from repro.workloads.cpu.catalog import cpu_workload
from repro.workloads.ml.catalog import ml_workload


@dataclass(frozen=True)
class TransientResult:
    """Transient vs steady-state protection for one mechanism."""

    policy: str
    transient_perf: float
    steady_perf: float


def _run(
    policy_name: str,
    interval: float,
    ml: str,
    quiet: float,
    transient_window: float,
    steady_until: float,
) -> TransientResult:
    factory = ml_workload(ml)
    sim = Simulator()
    node = Node.create(factory.host_spec(), sim)
    policy: IsolationPolicy = make_policy(
        policy_name, node, ml_cores=factory.default_cores(), interval=interval
    )
    policy.prepare()
    instance = factory.build(node.machine, policy.ml_placement(), warmup_until=2.0)
    instance.start()
    if policy.loop is not None:
        sim.every(interval, policy.tick, label="policy:tick",
                  priority=PRIORITY_CONTROL)

    def start_burst() -> None:
        task = BatchTask(
            "dram",
            node.machine,
            Placement(
                cores=frozenset(node.lo_subdomain_cores()),
                mem_weights={LO_SUBDOMAIN: 1.0},
            ),
            cpu_workload("dram", "H"),
        )
        task.start()
        node.lo_tasks.append(task)

    sim.at(quiet, start_burst, label="burst")
    reference, _ = standalone_performance(ml)

    sim.run_until(quiet)
    steps0 = _progress(instance)
    sim.run_until(quiet + transient_window)
    steps1 = _progress(instance)
    sim.run_until(steady_until)
    steps2 = _progress(instance)
    transient = (steps1 - steps0) / transient_window / reference
    steady = (steps2 - steps1) / (steady_until - quiet - transient_window) / reference
    return TransientResult(
        policy=policy_name, transient_perf=transient, steady_perf=steady
    )


def _progress(instance) -> float:
    task = instance.task
    if hasattr(task, "steps_completed"):
        return float(task.steps_completed)
    return float(task.recorder.completed)


@dataclass(frozen=True)
class HwPrefetchResult:
    """The software-vs-hardware transient comparison."""

    software: TransientResult
    hardware: TransientResult
    sampling_interval: float


def run_ablation_hwprefetch(
    ml: str = "cnn1",
    sampling_interval: float = 10.0,
    quiet: float = 8.0,
    transient_window: float = 8.0,
    steady_until: float = 45.0,
) -> HwPrefetchResult:
    """Compare KP-SD (sampled) against HW-PF (instant) across a burst."""
    software = _run(
        "KP-SD", sampling_interval, ml, quiet, transient_window, steady_until
    )
    hardware = _run(
        "HW-PF", sampling_interval, ml, quiet, transient_window, steady_until
    )
    return HwPrefetchResult(
        software=software, hardware=hardware, sampling_interval=sampling_interval
    )


def format_ablation_hwprefetch(result: HwPrefetchResult) -> str:
    """Render the transient comparison."""
    rows = [
        ["KP-SD (software)", result.software.transient_perf,
         result.software.steady_perf],
        ["HW-PF (hardware)", result.hardware.transient_perf,
         result.hardware.steady_perf],
    ]
    return format_table(
        "Ablation (§VI-B): prefetcher QoS reaction time across a load burst",
        ["mechanism", "transient ml perf", "steady ml perf"],
        rows,
        note=(
            f"software loop samples every {result.sampling_interval:.0f}s "
            "(the paper's production interval); hardware reacts immediately"
        ),
    )
