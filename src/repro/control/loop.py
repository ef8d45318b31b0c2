"""The shared control loop: sample → decide → actuate → record.

:class:`ControlLoop` owns the tick skeleton of every managed policy: draw
one sample from the :class:`~repro.control.sensors` suite, ask the
:class:`~repro.control.governors.Governor` for a decision, enforce the
decided knob values through the
:class:`~repro.control.actuators.HostControlPlane`, and append one
:class:`~repro.control.records.ControlTickRecord` to :attr:`history`.

Enforcement order is fixed: low-task cpusets → prefetcher MSRs → backfill
cpusets → MBA cap. A ``None`` decision (a dormant governor) still consumes
the sample — the perf window keeps the tick cadence — but performs no
writes and records nothing.

A fleet member that parks while quiescent skips its ticks and later hands
them to :meth:`ControlLoop.elide` with the readings they would have taken;
:attr:`ControlLoop.history` builds their records on first read, identical
to the records the ticks would have appended.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.control.actuators import HostControlPlane
from repro.control.governors import Governor
from repro.control.records import ControlTickRecord
from repro.control.sensors import PerfectSensors, SensorSuite
from repro.core.measurements import KelpMeasurements

if TYPE_CHECKING:
    from repro.node import Node


class ControlLoop:
    """One node's sense→decide→enforce tick, with unified history."""

    def __init__(
        self,
        node: "Node",
        governor: Governor,
        sensors: SensorSuite,
        plane: HostControlPlane,
    ) -> None:
        self.node = node
        self._governor = governor
        self.sensors = sensors
        self.plane = plane
        self._history: list[ControlTickRecord] = []
        #: Records not yet in ``_history``, in tick order: real records, and
        #: ``(rows, fields)`` batches of elided ticks (see :meth:`elide`)
        #: whose records are built only when the history is read.
        self._pending: list = []
        #: A parked fleet member's replay of its skipped ticks (see
        #: :meth:`catch_up`); None while nobody parks this loop.
        self.replay: Callable[[], None] | None = None
        #: Engaged ticks whose enforcement produced zero actuation writes
        #: (every knob already held the decided value): the machine was
        #: never notified, so no contention re-solve ran at all.
        self.noop_ticks = 0
        #: Writes of the last tick, None before the first engaged one.
        self._last_writes: int | None = None
        #: Telemetry-blackout support: while ``now < _hold_until`` the loop
        #: reuses the last pre-hold sample instead of reading the sensors —
        #: the governor keeps deciding on a frozen, stale view of the node.
        self._held_sample = None
        self._hold_until = 0.0

    def catch_up(self) -> None:
        """Replay the ticks a parked owner skipped, if any, right now.

        Skipped ticks repeat the decision the loop would have made from
        the state they saw, so they are replayed before anything reads
        them or changes that state without touching the node's telemetry:
        every :attr:`history` read, a :attr:`governor` swap and a new
        stuck-actuator window (``IsolationPolicy.add_fault_window``).
        """
        if self.replay is not None:
            self.replay()

    @property
    def governor(self) -> Governor:
        """The decision kernel; swapping it catches up first."""
        return self._governor

    @governor.setter
    def governor(self, governor: Governor) -> None:
        self.catch_up()
        self._governor = governor

    @property
    def history(self) -> list[ControlTickRecord]:
        """One :class:`ControlTickRecord` per engaged tick, in time order."""
        self.catch_up()
        if self._pending:
            self._build_pending()
        return self._history

    def hold_sensors(self, until: float) -> None:
        """Freeze the sensor view until ``until`` (telemetry blackout).

        Ticks before ``until`` reuse the most recent real sample; the perf
        window is not read, so after the hold the first fresh sample spans
        the whole blackout. No-op until at least one real sample exists.
        """
        self._hold_until = max(self._hold_until, until)

    def tick(self) -> ControlTickRecord | None:
        """Run one control interval; ``None`` when the governor is dormant."""
        node = self.node
        plane = self.plane
        machine = node.machine
        machine.begin_hold()
        try:
            plane.begin_tick()
        finally:
            machine.end_hold()
        if node.sim.now < self._hold_until and self._held_sample is not None:
            m = self._held_sample
        else:
            m = self.sensors.sample()
            self._held_sample = m
        decision = self._governor.decide(m)
        if decision is None:
            self._last_writes = None
            return None

        # All enforcement writes land at one simulated instant; the hold
        # coalesces their notify_change storm into (at most) one re-solve.
        # A fully-deduplicated tick — every knob already at its decided
        # value — performs zero writes and therefore never re-solves.
        machine.begin_hold()
        try:
            if decision.lo_task_mask is not None:
                for task in node.lo_tasks:
                    plane.set_task_cpus(task, decision.lo_task_mask)
            if decision.prefetcher_count is not None:
                plane.set_lo_prefetchers(decision.prefetcher_count)
            if decision.backfill_mask is not None:
                for task in node.backfill_tasks:
                    plane.set_task_cpus(task, decision.backfill_mask)
            if decision.mb_percent is not None:
                clos, percent = decision.mb_percent
                plane.set_mb_percent(clos, percent)
        finally:
            machine.end_hold()
        self._last_writes = plane.writes_this_tick
        if plane.writes_this_tick == 0:
            self.noop_ticks += 1

        record = ControlTickRecord(
            time=node.sim.now,
            lo_cores=decision.lo_cores,
            lo_prefetchers=decision.lo_prefetchers,
            backfill_cores=(
                decision.backfill_cores if node.backfill_tasks else 0
            ),
            action_hi=decision.action_hi,
            action_lo=decision.action_lo,
            measurements=m,
            extra=decision.extra,
            writes=plane.writes_this_tick,
        )
        if self._pending:
            self._pending.append(record)
        else:
            self._history.append(record)
        return record

    # -------------------------------------------------------------- parking
    @property
    def quiet(self) -> bool:
        """Whether only the sample can make the next tick act: the last
        tick wrote nothing, the sensors are perfect and not held, and the
        actuators carry no fault injection and no deferred write."""
        plane = self.plane
        return not (
            self._last_writes != 0
            or type(self.sensors) is not PerfectSensors
            or plane.faults is not None
            or plane.fault_windows
            or plane.has_pending
            or self.node.sim.now < self._hold_until
        )

    def steady(
        self, m: KelpMeasurements, error: KelpMeasurements
    ) -> tuple | None:
        """The record fields every tick would repeat while each sample
        field stays within ``error`` of ``m``'s, or None when a tick could
        do more.

        A tick is provably a repeat only when the loop is :attr:`quiet`
        and the governor reports a
        :meth:`~repro.control.governors.KelpGovernor.steady` decision (no
        plan moves). The fields are ``(lo_cores, lo_prefetchers,
        backfill_cores, action_hi, action_lo, extra)``, as :meth:`tick`
        would record them.
        """
        if not self.quiet:
            return None
        steady = getattr(self._governor, "steady", None)
        decision = steady(m, error) if steady is not None else None
        if decision is None:
            return None
        return (
            decision.lo_cores,
            decision.lo_prefetchers,
            decision.backfill_cores if self.node.backfill_tasks else 0,
            decision.action_hi,
            decision.action_lo,
            decision.extra,
        )

    def elide(self, rows: list[tuple[float, tuple]], fields: tuple) -> None:
        """Account for ticks that were skipped while their node was parked.

        ``rows`` holds ``(time, reading)`` per skipped tick, where
        ``reading`` is the ``(socket_bw, socket_latency, saturation,
        hipri_bw, elapsed)`` sample the tick would have taken; ``fields``
        is the :meth:`steady` decision in force. The ticks count as no-op
        ticks now; their records are built on the next :attr:`history`
        read.
        """
        self._pending.append((rows, fields))
        self.noop_ticks += len(rows)
        self._held_sample = KelpMeasurements(*rows[-1][1])

    def _build_pending(self) -> None:
        history = self._history
        for entry in self._pending:
            if isinstance(entry, ControlTickRecord):
                history.append(entry)
                continue
            rows, fields = entry
            lo_cores, lo_prefetchers, backfill_cores, action_hi, action_lo, extra = fields
            history.extend(
                ControlTickRecord(
                    time=time,
                    lo_cores=lo_cores,
                    lo_prefetchers=lo_prefetchers,
                    backfill_cores=backfill_cores,
                    action_hi=action_hi,
                    action_lo=action_lo,
                    measurements=KelpMeasurements(*reading),
                    extra=extra,
                    writes=0,
                )
                for time, reading in rows
            )
        self._pending.clear()
