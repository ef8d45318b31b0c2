"""MBA: Memory Bandwidth Allocation throttling (Section VI-D discussion).

Intel's MBA feature rate-controls a class of service's memory requests.
The paper notes its flaw for this use case: the rate controller sits between
the core and the LLC, so "throttling decisions also impact last-level cache
BW in addition to main memory BW" — low-priority tasks pay an extra compute
tax per unit of bandwidth reclaimed. This policy closes the loop on the MB%
knob the way CT closes it on core counts, and exists to quantify that
trade against CT/Kelp (the ``ablation-mba`` experiment).

The feedback kernel is :class:`~repro.control.governors.MbaGovernor`; the
throttle value rides in the tick record's ``lo_prefetchers`` slot (the
Fig 11/12 encoding) and as an ``("mb_percent", …)`` extra.
"""

from __future__ import annotations

from repro.control.governors import LO_CLOS, MBA_MAX, MbaGovernor
from repro.core.policies.base import (
    CpuTaskPlan,
    IsolationPolicy,
    ML_CLOS,
    ROLE_LO,
)
from repro.hw.placement import Placement
from repro.workloads.cpu.base import BatchProfile


class MbaPolicy(IsolationPolicy):
    """Feedback control over the low-priority CLOS's MB% throttle."""

    name = "MBA"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._governor = MbaGovernor(self.node, self.profile, self.ml_cores)
        self._make_loop(self._governor)

    @classmethod
    def default_qos_profile(cls, spec, ml_cores: int):
        """MBA runs with CT's throughput-preserving watermarks."""
        from repro.core.policies.core_throttle import CoreThrottlePolicy

        return CoreThrottlePolicy.default_qos_profile(spec, ml_cores)

    def prepare(self) -> None:
        self.node.machine.set_snc(False)
        self._apply_cat()
        self.control_plane.create_clos_group(LO_CLOS)
        self.control_plane.setup_mb_percent(LO_CLOS, MBA_MAX)

    def ml_placement(self) -> Placement:
        topo = self.node.machine.topology
        return Placement(
            cores=frozenset(self.node.accel_socket_cores()[: self.ml_cores]),
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
                    clos=LO_CLOS,
                ),
                role=ROLE_LO,
            )
        ]

    @property
    def mb_percent(self) -> int:
        """The current MB% throttle applied to the low-priority CLOS."""
        return self._governor.mb_percent
