"""HW-QoS: the Section VI-D fine-grained hardware isolation estimate.

The paper argues a future memory controller with request-level
prioritization could beat both Kelp and Subdomain: the ML task keeps full
channel interleaving (no subdomain fragmentation or latency penalty), its
requests are served ahead of low-priority traffic, and the distress wire is
never tripped because the rate controller throttles offenders at the source.
This policy enables the model's priority mode to approximate that bound: no
core throttling, no prefetcher management, no SNC — CPU tasks run wide open
and simply lose the bandwidth race at the controller.
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


class HwQosPolicy(IsolationPolicy):
    """Request-level memory prioritization (future-hardware upper bound)."""

    name = "HW-QOS"

    def prepare(self) -> None:
        self.node.machine.set_snc(False)
        self._apply_cat()
        self.node.machine.set_priority_mode(True)

    def ml_placement(self) -> Placement:
        topo = self.node.machine.topology
        cores = self.node.accel_socket_cores()[: self.ml_cores]
        return Placement(
            cores=frozenset(cores),
            mem_weights=topo.socket_memory_weights(self.node.accel_socket),
            clos=ML_CLOS,
        )

    def plan_cpu(self, profile: BatchProfile) -> list[CpuTaskPlan]:
        topo = self.node.machine.topology
        return [
            CpuTaskPlan(
                task_id=profile.name,
                profile=profile,
                placement=Placement(
                    cores=frozenset(self._spare_socket_cores()),
                    mem_weights=topo.socket_memory_weights(self.node.accel_socket),
                ),
                role=ROLE_LO,
            )
        ]
