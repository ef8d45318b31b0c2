"""Baseline (BL): priorities declared, contention unmanaged (Section V-A).

Task priority exists only in the scheduler's metadata — no CAT partition, no
subdomains, no throttling. The ML task and the CPU tasks simply share the
accelerator-local socket.
"""

from __future__ import annotations

from repro.core.policies.base import (
    CpuTaskPlan,
    IsolationPolicy,
    ROLE_LO,
)
from repro.hw.placement import Placement
from repro.workloads.cpu.base import BatchProfile


class BaselinePolicy(IsolationPolicy):
    """Unmanaged colocation."""

    name = "BL"

    def prepare(self) -> None:
        self.node.machine.set_snc(False)

    def ml_placement(self) -> Placement:
        topo = self.node.machine.topology
        cores = self.node.accel_socket_cores()[: self.ml_cores]
        return Placement(
            cores=frozenset(cores),
            mem_weights=topo.socket_memory_weights(self.node.accel_socket),
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
