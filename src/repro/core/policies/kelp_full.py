"""Kelp (KP): the full runtime of Section IV.

Everything KP-SD does, plus the Section IV-C throughput recovery: CPU-task
threads that do not fit on the low-priority subdomain's cores are *backfilled*
into the high-priority subdomain (with their memory homed there), and the
Algorithm 1/2 loop throttles them by core count whenever the high-priority
subdomain's bandwidth or the socket's latency watermark is breached. The
low-priority subdomain is managed by prefetcher halving first, core removal
second.
"""

from __future__ import annotations

from repro.control.governors import KelpGovernor
from repro.core.policies.base import (
    CpuTaskPlan,
    IsolationPolicy,
    ML_CLOS,
    ROLE_BACKFILL,
    ROLE_LO,
)
from repro.hw.placement import Placement
from repro.workloads.cpu.base import BatchProfile


class KelpPolicy(IsolationPolicy):
    """Subdomains + backpressure management + backfilling (full Kelp)."""

    name = "KP"

    def prepare(self) -> None:
        self.node.machine.set_snc(True)
        self._apply_cat()
        self._make_loop(KelpGovernor(self.node, self.profile))

    def ml_placement(self) -> Placement:
        cores = self.node.hi_subdomain_cores()[: self.ml_cores]
        return Placement(
            cores=frozenset(cores),
            mem_weights={self.node.hi_subdomain: 1.0},
            clos=ML_CLOS,
        )

    def plan_cpu(self, profile: BatchProfile) -> list[CpuTaskPlan]:
        lo_cores = self.node.lo_subdomain_cores()
        spare_hi = self._spare_hi_cores()
        threads = profile.phase.threads
        plans: list[CpuTaskPlan] = []

        lo_threads = min(threads, len(lo_cores))
        plans.append(
            CpuTaskPlan(
                task_id=profile.name,
                profile=profile.scaled_to_threads(lo_threads),
                placement=Placement(
                    cores=frozenset(lo_cores),
                    mem_weights={self.node.lo_subdomain: 1.0},
                ),
                role=ROLE_LO,
            )
        )

        backfill_threads = threads - lo_threads
        if backfill_threads > 0 and spare_hi:
            backfill_cores = spare_hi[-min(len(spare_hi), backfill_threads):]
            plans.append(
                CpuTaskPlan(
                    task_id=f"{profile.name}-backfill",
                    profile=profile.scaled_to_threads(backfill_threads),
                    placement=Placement(
                        cores=frozenset(backfill_cores),
                        mem_weights={self.node.hi_subdomain: 1.0},
                    ),
                    role=ROLE_BACKFILL,
                )
            )
        return plans
