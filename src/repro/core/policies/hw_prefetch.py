"""HW-PF: QoS-aware hardware prefetching (Section VI-B).

The paper argues prefetcher-pressure management "can be integrated into
hardware", where it "can adapt to fast-changing system behavior with little
performance overhead" and "guide the aggressiveness of prefetchers based on
the immediately-available information of memory resources" (citing
feedback-directed prefetching). This policy is the KP-SD layout with the
software prefetcher loop replaced by the solver's instantaneous
saturation-coupled prefetch throttle — no sampling interval, no MSR writes.

Used by the ``ablation-hwprefetch`` experiment to quantify the reaction-time
advantage over the sampled software loop during load transients.
"""

from __future__ import annotations

from repro.core.policies.base import (
    CpuTaskPlan,
    IsolationPolicy,
    ML_CLOS,
    ROLE_LO,
)
from repro.hw.placement import Placement
from repro.workloads.cpu.base import BatchProfile


class HwPrefetchPolicy(IsolationPolicy):
    """Subdomains + hardware-integrated prefetcher QoS."""

    name = "HW-PF"

    def prepare(self) -> None:
        self.node.machine.set_snc(True)
        self._apply_cat()
        self.node.machine.solver.qos_aware_prefetch = True
        self.node.machine.notify_change()

    def ml_placement(self) -> Placement:
        return Placement(
            cores=frozenset(self.node.hi_subdomain_cores()[: self.ml_cores]),
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
