"""CoreThrottle (CT): the prior-work comparison configuration (Section V-A).

CT mimics Heracles/Dirigent/CPI2-style management: the ML task gets a
dedicated LLC partition via CAT, and memory-bandwidth interference is managed
reactively by shrinking or growing the CPU mask of the low-priority tasks —
one core at a time — whenever socket bandwidth or loaded latency crosses the
profile's watermarks. NUMA subdomains stay off; prefetchers stay on.

The feedback kernel lives in
:class:`~repro.control.governors.CoreThrottleGovernor`; this policy assembles
it into a :class:`~repro.control.loop.ControlLoop` over its sensor suite and
journaled actuator plane, and arms it with the initial core grant when the
CPU tasks are planned.
"""

from __future__ import annotations

from repro.control.governors import CoreThrottleGovernor
from repro.core.policies.base import (
    CpuTaskPlan,
    IsolationPolicy,
    ML_CLOS,
    ROLE_LO,
)
from repro.hw.placement import Placement
from repro.workloads.cpu.base import BatchProfile


class CoreThrottlePolicy(IsolationPolicy):
    """Reactive core-count throttling plus CAT."""

    name = "CT"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._governor = CoreThrottleGovernor(
            self.node, self.profile, self.ml_cores
        )
        self._make_loop(self._governor)

    @classmethod
    def default_qos_profile(cls, spec, ml_cores: int):
        """CT's operating point: run the shared channels hot.

        Without subdomains every core of CPU-task throughput costs shared
        bandwidth, so a CT deployment cannot afford Kelp's conservative
        watermarks — it would throttle the batch tier to nothing. These are
        the throughput-preserving thresholds prior-work controllers target;
        the price is that the ML task always sees loaded-latency inflation
        on the channels it shares (Section IV's motivation for subdomains).
        """
        from dataclasses import replace

        from repro.core.watermarks import Watermark, default_profile

        base = default_profile(spec, ml_cores=ml_cores)
        socket_peak = spec.sockets[0].peak_bw_gbps
        return replace(
            base,
            socket_bw=Watermark(lo=0.72 * socket_peak, hi=0.88 * socket_peak),
            socket_latency=Watermark(lo=1.5, hi=1.9),
        )

    def prepare(self) -> None:
        self.node.machine.set_snc(False)
        self._apply_cat()

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
        spare = self._spare_socket_cores()
        self._governor.engage(len(spare))
        return [
            CpuTaskPlan(
                task_id=profile.name,
                profile=profile,
                placement=Placement(
                    cores=frozenset(spare),
                    mem_weights=topo.socket_memory_weights(self.node.accel_socket),
                ),
                role=ROLE_LO,
            )
        ]
