"""Policy interface shared by the evaluated configurations.

A policy decides machine-level preparation (SNC, CAT, priority mode), where
the ML task and the CPU tasks are placed, and what — if anything — its
control loop does every interval. The experiment harness is policy-agnostic:
it asks the policy for the ML placement, has it :meth:`~IsolationPolicy.place`
(and later :meth:`~IsolationPolicy.evict`) the CPU tasks, and drives
``tick()`` on the policy's interval when the policy has a :attr:`loop`.

Every policy owns a :class:`~repro.control.actuators.HostControlPlane` — the
single journaled facade all its knob writes go through. An adaptive policy
builds its :class:`~repro.control.loop.ControlLoop` with :meth:`_make_loop`
from a sensor suite (optionally degraded via
:class:`~repro.control.sensors.SensorConfig`) and a policy-specific
:class:`~repro.control.governors.Governor`; ``tick_history`` is the loop's
unified :class:`~repro.control.records.ControlTickRecord` stream.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Iterable

from repro.node import Node
from repro.control.actuators import ActuationFaultConfig, HostControlPlane
from repro.control.governors import Governor
from repro.control.loop import ControlLoop
from repro.control.records import ActuationRecord, ControlTickRecord
from repro.control.sensors import SensorConfig, build_sensor_suite
from repro.core.watermarks import QosProfile
from repro.hw.placement import Placement
from repro.workloads.cpu.base import BatchProfile, BatchTask

#: resctrl class of service dedicated to the accelerated ML task.
ML_CLOS = 1
#: LLC ways dedicated to the ML task's CLOS by managed policies.
ML_DEDICATED_WAYS = 6

#: Roles a CPU task can occupy on the node.
ROLE_LO = "lo"
ROLE_BACKFILL = "backfill"


@dataclass(frozen=True)
class CpuTaskPlan:
    """One CPU task the policy wants created."""

    task_id: str
    profile: BatchProfile
    placement: Placement
    role: str


class IsolationPolicy(abc.ABC):
    """Base class for BL / CT / KP-SD / KP / HW-QoS / MBA / HW-PF."""

    #: Registry name, set by subclasses.
    name: str = "abstract"

    def __init__(
        self,
        node: Node,
        ml_cores: int,
        profile: QosProfile,
        interval: float = 1.0,
        sensors: SensorConfig | None = None,
        faults: ActuationFaultConfig | None = None,
    ) -> None:
        self.node = node
        self.ml_cores = ml_cores
        self.profile = profile
        self.interval = interval
        #: Telemetry-degradation knobs applied to this policy's sensors.
        self.sensor_config = sensors
        #: The journaled actuator facade every knob write goes through.
        self.control_plane = HostControlPlane(node, faults)
        self._loop: ControlLoop | None = None

    @classmethod
    def default_qos_profile(cls, spec, ml_cores: int) -> QosProfile:
        """Watermarks this policy runs with when none are supplied.

        Subclasses override to encode their operating point (CoreThrottle
        must run the shared channels hotter to preserve throughput).
        """
        from repro.core.watermarks import default_profile

        return default_profile(spec, ml_cores=ml_cores)

    # ------------------------------------------------------------ set-up
    @abc.abstractmethod
    def prepare(self) -> None:
        """Apply machine-level configuration (SNC, CAT, priority mode)."""

    @abc.abstractmethod
    def ml_placement(self) -> Placement:
        """Where the high-priority ML task runs."""

    @abc.abstractmethod
    def plan_cpu(self, profile: BatchProfile) -> list[CpuTaskPlan]:
        """Split/place one CPU workload into concrete tasks."""

    # ------------------------------------------------------------- tasks
    def place(
        self, profile: BatchProfile, warmup: float = 0.0, prefix: str = ""
    ) -> list[BatchTask]:
        """Run one CPU workload on the node, as :meth:`plan_cpu` splits it.

        Builds one task per plan (its id is ``prefix`` plus the plan's,
        and it counts progress after ``warmup``), adds it to the node's
        role list the control loop enforces on, starts it, and returns the
        tasks in plan order.
        """
        node = self.node
        roles = {ROLE_LO: node.lo_tasks, ROLE_BACKFILL: node.backfill_tasks}
        tasks = []
        for plan in self.plan_cpu(profile):
            task = BatchTask(
                task_id=prefix + plan.task_id,
                machine=node.machine,
                placement=plan.placement,
                profile=plan.profile,
                warmup_until=warmup,
            )
            roles[plan.role].append(task)
            tasks.append(task)
        for task in tasks:
            task.start()
        return tasks

    def evict(self, tasks: Iterable[BatchTask]) -> None:
        """Stop placed tasks and drop them from the node's role lists.

        Each meter freezes at the eviction instant: a stopped task no
        longer receives solver rates, and a stale non-zero rate would
        extrapolate phantom units to the end of the run. A task left in a
        role list would keep receiving the loop's cpuset writes.
        """
        node = self.node
        for task in tasks:
            task.meter.set_rate(0.0, node.sim.now)
            task.stop()
            if task in node.lo_tasks:
                node.lo_tasks.remove(task)
            if task in node.backfill_tasks:
                node.backfill_tasks.remove(task)

    # ----------------------------------------------------------- control
    @property
    def loop(self) -> ControlLoop | None:
        """The policy's control loop; ``None`` for a policy that never
        adapts (the harness then schedules no ticks)."""
        return self._loop

    def tick(self) -> None:
        """One control interval: drive the loop, if one was assembled."""
        if self._loop is not None:
            self._loop.tick()

    def tick_history(self) -> list[ControlTickRecord]:
        """Full controller tick records (measurements + decisions).

        The unified stream consumed by the observability layer
        (:mod:`repro.obs`) for the JSONL tick export. The Fig 11/12 plots
        read its ``time``/``lo_cores``/``lo_prefetchers``/``backfill_cores``
        knob fields.
        """
        return list(self._loop.history) if self._loop is not None else []

    def add_fault_window(self, start: float, stop: float) -> None:
        """Arm a stuck-actuator window ``[start, stop)`` mid-run.

        The loop catches up first (see
        :meth:`~repro.control.loop.ControlLoop.catch_up`): ticks it skipped
        before the window was armed ran without it.
        """
        if self._loop is not None:
            self._loop.catch_up()
        self.control_plane.fault_windows.append((start, stop))

    def actuation_journal(self) -> list[ActuationRecord]:
        """Every physical knob write this policy performed, in order."""
        return list(self.control_plane.journal)

    # ------------------------------------------------------------ helpers
    def _make_loop(self, governor: Governor) -> ControlLoop:
        """Assemble this policy's control loop over its plane and sensors."""
        suite = build_sensor_suite(self.node, self.sensor_config)
        self._loop = ControlLoop(self.node, governor, suite, self.control_plane)
        return self._loop

    def _spare_socket_cores(self) -> tuple[int, ...]:
        """Socket-0 cores not reserved for the ML task (SNC-off layouts)."""
        return self.node.accel_socket_cores()[self.ml_cores:]

    def _spare_hi_cores(self) -> tuple[int, ...]:
        """Hi-subdomain cores not reserved for the ML task (SNC-on layouts)."""
        return self.node.hi_subdomain_cores()[self.ml_cores:]

    def _apply_cat(self) -> None:
        """Dedicate an LLC partition to the ML task's class of service."""
        self.control_plane.create_clos_group(ML_CLOS)
        self.control_plane.dedicate_llc_ways(ML_CLOS, ML_DEDICATED_WAYS)
