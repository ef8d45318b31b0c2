#!/usr/bin/env python
"""Scenario: author and evaluate your own isolation policy.

The policy interface (:class:`repro.core.policies.base.IsolationPolicy`) is
open: a policy decides machine preparation (``prepare``), placements
(``ml_placement``, ``plan_cpu``), and an optional control loop (built with
``_make_loop`` in ``prepare``; without one, ``policy.loop`` is ``None``).
This example implements **StaticHalf** — a naive static partition that pins
the ML task to the high-priority subdomain and CPU tasks to the other,
disables all low-priority prefetchers permanently, and never adapts — and
compares it against Kelp on the Fig 9 mix.

The lesson is the paper's: static throttling over-pays when pressure is low
and the machine's spare capacity is wasted; a feedback runtime adapts.

Run:  python examples/custom_policy.py
"""

from __future__ import annotations

from repro import (
    MixConfig,
    Node,
    Simulator,
    cpu_workload,
    run_colocation,
    standalone_performance,
)
from repro.node import HI_SUBDOMAIN, LO_SUBDOMAIN
from repro.core.policies.base import (
    CpuTaskPlan,
    IsolationPolicy,
    ML_CLOS,
    ROLE_LO,
)
from repro.hw.placement import Placement
from repro.workloads.cpu.base import BatchProfile
from repro.workloads.ml.catalog import ml_workload


class StaticHalfPolicy(IsolationPolicy):
    """Static subdomain split with prefetchers permanently off."""

    name = "STATIC"

    def prepare(self) -> None:
        self.node.machine.set_snc(True)
        self._apply_cat()
        for core in self.node.lo_subdomain_cores():
            self.node.msr.set_prefetchers(core, False)

    def ml_placement(self) -> Placement:
        return Placement(
            cores=frozenset(self.node.hi_subdomain_cores()[: self.ml_cores]),
            mem_weights={HI_SUBDOMAIN: 1.0},
            clos=ML_CLOS,
        )

    def plan_cpu(self, profile: BatchProfile) -> list[CpuTaskPlan]:
        return [
            CpuTaskPlan(
                task_id=profile.name,
                profile=profile,
                placement=Placement(
                    cores=frozenset(self.node.lo_subdomain_cores()),
                    mem_weights={LO_SUBDOMAIN: 1.0},
                ),
                role=ROLE_LO,
            )
        ]


def run_static(intensity: int) -> tuple[float, float]:
    """Run CNN1 + Stitch under StaticHalf (bypassing the registry)."""
    factory = ml_workload("cnn1")
    sim = Simulator()
    node = Node.create(factory.host_spec(), sim)
    policy = StaticHalfPolicy(
        node, factory.default_cores(),
        StaticHalfPolicy.default_qos_profile(
            factory.host_spec(), factory.default_cores()
        ),
    )
    policy.prepare()
    instance = factory.build(node.machine, policy.ml_placement(), warmup_until=6.0)
    instance.start()
    # No _make_loop in prepare(), so policy.loop is None: nothing to tick.
    tasks = policy.place(cpu_workload("stitch", intensity), warmup=6.0)
    sim.run_until(40.0)
    standalone, _ = standalone_performance("cnn1")
    return (
        instance.performance(40.0) / standalone,
        sum(task.throughput(40.0) for task in tasks),
    )


def main() -> None:
    print("Custom StaticHalf policy vs Kelp on CNN1 + Stitch:\n")
    print(f"{'instances':>9}  {'STATIC ml/cpu':>14}  {'KP ml/cpu':>12}")
    for n in (1, 3, 6):
        static_ml, static_cpu = run_static(n)
        kelp = run_colocation(
            MixConfig(ml="cnn1", policy="KP", cpu="stitch", intensity=n)
        )
        print(
            f"{n:>9}  {static_ml:6.2f}/{static_cpu:5.2f}   "
            f"{kelp.ml_perf_norm:6.2f}/{kelp.cpu_throughput:5.2f}"
        )
    print(
        "\nStaticHalf protects the ML task but leaves batch throughput on the\n"
        "table at every pressure level: prefetchers stay off even when the\n"
        "antagonist is mild, and no backfilling reclaims the idle hi-subdomain\n"
        "cores. Kelp's feedback loop pays only when pressure demands it."
    )


if __name__ == "__main__":
    main()
