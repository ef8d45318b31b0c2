"""Kelp Subdomain (KP-SD): NUMA subdomains + prefetcher toggling only.

The simplified Kelp of Section V-A: SNC/CoD splits the socket, the ML task
owns the high-priority subdomain, CPU tasks own the low-priority one, and
the only runtime knob is the number of low-priority cores with L2
prefetchers enabled — used to keep memory saturation (and with it the
socket-wide distress throttling) below the watermark. No core throttling,
no backfilling; the hi-subdomain cores beyond the ML task sit idle, which is
exactly the fragmentation cost Fig 13/14 charge this configuration with.
"""

from __future__ import annotations

from repro.control.governors import KelpGovernor
from repro.core.policies.base import (
    CpuTaskPlan,
    IsolationPolicy,
    ML_CLOS,
    ROLE_LO,
)
from repro.hw.placement import Placement
from repro.workloads.cpu.base import BatchProfile


class SubdomainPolicy(IsolationPolicy):
    """SNC isolation with saturation-driven prefetcher management."""

    name = "KP-SD"

    def prepare(self) -> None:
        self.node.machine.set_snc(True)
        self._apply_cat()
        self._make_loop(KelpGovernor(self.node, self.profile, manage_cores=False))

    def ml_placement(self) -> Placement:
        cores = self.node.hi_subdomain_cores()[: self.ml_cores]
        return Placement(
            cores=frozenset(cores),
            mem_weights={self.node.hi_subdomain: 1.0},
            clos=ML_CLOS,
        )

    def plan_cpu(self, profile: BatchProfile) -> list[CpuTaskPlan]:
        return [
            CpuTaskPlan(
                task_id=profile.name,
                profile=profile,
                placement=Placement(
                    cores=frozenset(self.node.lo_subdomain_cores()),
                    mem_weights={self.node.lo_subdomain: 1.0},
                ),
                role=ROLE_LO,
            )
        ]
