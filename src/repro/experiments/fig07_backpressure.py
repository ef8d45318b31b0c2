"""Fig 7: shared memory backpressure and prefetcher-toggling effectiveness.

Setup (Section IV-B): NUMA subdomains on, accelerated task in the
high-priority subdomain, a DRAM antagonist at aggressiveness L/M/H in the
low-priority subdomain. No runtime management — instead the fraction of the
antagonist's cores with L2 prefetchers *disabled* is swept manually, and for
each point the accelerated task's normalized performance (plus tail latency
for RNN1) and the measured memory saturation are reported.

Shape targets: with 0 % disabled, RNN1 loses ~14 % QPS (+16 % tail), CNN1
~50 %, CNN2 ~10 %; disabling prefetchers restores performance and drives
saturation down; at low pressure CNN1/CNN2 can slightly exceed standalone
thanks to the subdomain's local-latency benefit.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.node import ACCEL_SOCKET, HI_SUBDOMAIN, LO_SUBDOMAIN, Node
from repro.control.actuators import HostControlPlane
from repro.experiments.common import standalone_performance
from repro.experiments.report import format_table
from repro.hw.placement import Placement
from repro.sim import Simulator
from repro.workloads.cpu.base import BatchTask
from repro.workloads.cpu.catalog import cpu_workload
from repro.workloads.ml.catalog import ml_workload

LEVELS = ("L", "M", "H")
#: Fractions of low-priority prefetchers disabled, as in the Fig 7 x-axes.
DISABLED_FRACTIONS = (0.0, 0.25, 0.5, 0.75, 1.0)


@dataclass(frozen=True)
class BackpressurePoint:
    """One (level, fraction-disabled) sample."""

    level: str
    disabled_fraction: float
    ml_perf_norm: float
    tail_norm: float | None
    saturation: float


@dataclass(frozen=True)
class Fig07Result:
    """The full sweep for one workload."""

    ml: str
    points: list[BackpressurePoint]

    def point(self, level: str, fraction: float) -> BackpressurePoint:
        """Look up one sweep sample."""
        for p in self.points:
            if p.level == level and abs(p.disabled_fraction - fraction) < 1e-9:
                return p
        raise KeyError((level, fraction))


def _run_point(
    ml: str, level: str, disabled_fraction: float, duration: float, warmup: float
) -> BackpressurePoint:
    factory = ml_workload(ml)
    sim = Simulator()
    node = Node.create(factory.host_spec(), sim)
    node.machine.set_snc(True)
    placement = Placement(
        cores=frozenset(node.hi_subdomain_cores()[: factory.default_cores()]),
        mem_weights={HI_SUBDOMAIN: 1.0},
    )
    instance = factory.build(node.machine, placement, warmup_until=warmup)
    instance.start()

    lo_cores = node.lo_subdomain_cores()
    BatchTask(
        task_id="dram",
        machine=node.machine,
        placement=Placement(
            cores=frozenset(lo_cores), mem_weights={LO_SUBDOMAIN: 1.0}
        ),
        profile=cpu_workload("dram", level),
        warmup_until=warmup,
    ).start()
    disabled = round(disabled_fraction * len(lo_cores))
    HostControlPlane(node).set_lo_prefetchers(len(lo_cores) - disabled)

    node.perf.read("fig07")  # reset the window at t=0
    sim.run_until(duration)
    reading = node.perf.read("fig07")

    ref_perf, ref_tail = standalone_performance(ml, duration, warmup)
    tail = instance.tail_latency()
    return BackpressurePoint(
        level=level,
        disabled_fraction=disabled_fraction,
        ml_perf_norm=instance.performance(duration) / ref_perf,
        tail_norm=tail / ref_tail if (tail is not None and ref_tail) else None,
        saturation=reading.socket_saturation.get(ACCEL_SOCKET, 0.0),
    )


def run_fig07(
    ml: str = "cnn1", duration: float = 40.0, warmup: float = 6.0,
    fractions: tuple[float, ...] = DISABLED_FRACTIONS,
) -> Fig07Result:
    """Sweep prefetchers-disabled fraction x aggressor level for ``ml``."""
    points = [
        _run_point(ml, level, fraction, duration, warmup)
        for fraction in fractions
        for level in LEVELS
    ]
    return Fig07Result(ml=ml, points=points)


def format_fig07(result: Fig07Result) -> str:
    """Render the sweep as one table per workload."""
    headers = ["pf_disabled"] + [
        f"{metric}-{level}"
        for metric in ("perf", "sat")
        for level in LEVELS
    ]
    rows = []
    fractions = sorted({p.disabled_fraction for p in result.points})
    for fraction in fractions:
        row: list[object] = [f"{fraction:.0%}"]
        for level in LEVELS:
            row.append(result.point(level, fraction).ml_perf_norm)
        for level in LEVELS:
            row.append(result.point(level, fraction).saturation)
        rows.append(row)
    return format_table(
        f"Fig 7 ({result.ml}): backpressure vs prefetcher toggling",
        headers,
        rows,
        note="paper at 0% disabled/H: RNN1 -14% QPS, CNN1 -50%, CNN2 -10%",
    )
