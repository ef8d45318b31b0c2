"""Algorithm 1: the Kelp node-level resource-management loop.

Every control interval the runtime samples the four measurements, decides a
THROTTLE/BOOST/NOP action per subdomain by comparing against the loaded QoS
profile, updates the resource plans via the Algorithm 2 procedures, and
enforces them through cpusets (core counts) and MSR writes (prefetchers).

Since the control-plane refactor this module is a thin facade: the decision
kernel lives in :class:`~repro.control.governors.KelpGovernor`, sensing in a
:class:`~repro.control.sensors.SensorSuite`, enforcement in the
:class:`~repro.control.actuators.HostControlPlane`, and the tick skeleton in
:class:`~repro.control.loop.ControlLoop`. :class:`KelpRuntime` wires the
four together with the historical constructor signature and per-tick
behaviour (under perfect sensors and no actuation faults it is bit-identical
to the pre-refactor implementation); its history is the unified
:class:`~repro.control.records.ControlTickRecord` stream.
"""

from __future__ import annotations

from repro.node import Node
from repro.control.actuators import ActuationFaultConfig, HostControlPlane
from repro.control.governors import KelpGovernor
from repro.control.loop import ControlLoop
from repro.control.records import ControlTickRecord
from repro.control.sensors import SensorSuite, build_sensor_suite
from repro.core.actions import HiPriorityPlan, LoPriorityPlan
from repro.core.watermarks import QosProfile


class KelpRuntime:
    """The Kelp controller for one node (a facade over the control plane)."""

    def __init__(
        self,
        node: Node,
        profile: QosProfile,
        manage_lo_cores: bool = True,
        manage_backfill: bool = True,
        manage_prefetchers: bool = True,
        sensors: SensorSuite | None = None,
        plane: HostControlPlane | None = None,
        faults: ActuationFaultConfig | None = None,
    ) -> None:
        self.node = node
        self._governor = KelpGovernor(
            node,
            profile,
            manage_lo_cores=manage_lo_cores,
            manage_backfill=manage_backfill,
            manage_prefetchers=manage_prefetchers,
        )
        if sensors is None:
            sensors = build_sensor_suite(node, reader="kelp", config=None)
        if plane is None:
            plane = HostControlPlane(node, faults)
        self.loop = ControlLoop(node, self._governor, sensors, plane)

    # ------------------------------------------------------------ access
    @property
    def profile(self) -> QosProfile:
        """The QoS profile the governor compares against (swappable)."""
        return self._governor.profile

    @profile.setter
    def profile(self, value: QosProfile) -> None:
        self.loop.catch_up()
        self._governor.profile = value

    @property
    def governor(self) -> KelpGovernor:
        """The Algorithm 1/2 decision kernel."""
        return self._governor

    @property
    def plane(self) -> HostControlPlane:
        """The journaled actuator facade all writes go through."""
        return self.loop.plane

    @property
    def history(self) -> list[ControlTickRecord]:
        """One record per tick, in time order (the loop's live history)."""
        return self.loop.history

    @property
    def hi_plan(self) -> HiPriorityPlan:
        """Current backfill resource plan."""
        return self._governor.hi_plan

    @property
    def lo_plan(self) -> LoPriorityPlan:
        """Current low-priority resource plan."""
        return self._governor.lo_plan

    # -------------------------------------------------------------- tick
    def tick(self) -> ControlTickRecord:
        """One pass of Algorithm 1: measure, decide, configure, enforce."""
        record = self.loop.tick()
        assert record is not None  # the Kelp governor is never dormant
        return record
