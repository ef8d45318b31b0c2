"""Unified control-plane records: controller ticks and actuation writes.

Every policy, the Algorithm-1 runtime included, records its history in
one shape, so every consumer (fig 11/12, the obs JSONL export, the fleet
member) reads the same rows. :class:`ControlTickRecord` is one
frozen row per control interval with the measurements the governor saw, the
actions it took, the knob values it settled on, and how many physical
writes the actuation pass actually performed (0 on a NOP/NOP tick whose
plans are unchanged — the journal dedup guarantee).

:class:`ActuationRecord` is one entry of the :class:`HostControlPlane`
actuation journal: a physical knob write (or a failed/deferred attempt)
with its target and outcome.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.actions import Action
from repro.core.measurements import KelpMeasurements


@dataclass(frozen=True)
class ControlTickRecord:
    """What a governor saw, decided and enforced on one control tick.

    This is the single tick-record type of the control plane: policies built
    on :class:`~repro.control.loop.ControlLoop` expose a stream of these via
    ``tick_history()``; the knob fields double as the Figs 11-12 parameter
    samples.
    """

    time: float
    #: Cores granted to low-priority tasks (CT: the shrinking CPU mask).
    lo_cores: int
    #: Low-subdomain cores with prefetching enabled (MBA reuses this slot
    #: for its MB% throttle, mirrored in :attr:`extra`).
    lo_prefetchers: int
    #: Cores granted to backfilled tasks (0 when none are resident).
    backfill_cores: int
    #: High-priority-subdomain (backfill) decision.
    action_hi: Action = Action.NOP
    #: Low-priority-subdomain decision.
    action_lo: Action = Action.NOP
    #: The (possibly degraded) sensor sample the decision was based on.
    measurements: KelpMeasurements | None = None
    #: Extra policy-specific knob values, e.g. ``(("mb_percent", 40.0),)``.
    extra: tuple[tuple[str, float], ...] = ()
    #: Actuation-journal entries this tick (applied + deferred + failed).
    writes: int = 0

    def as_dict(self) -> dict[str, float | str]:
        """A flat JSON-clean row (the ``tick`` record of the JSONL export)."""
        row: dict[str, float | str] = {"time": self.time}
        m = self.measurements
        if m is not None:
            row.update(
                socket_bw_gbps=m.socket_bw,
                socket_latency=m.socket_latency,
                saturation=m.saturation,
                hipri_bw_gbps=m.hipri_bw,
                window_s=m.elapsed,
            )
        row.update(
            action_hi=self.action_hi.value,
            action_lo=self.action_lo.value,
            backfill_cores=self.backfill_cores,
            lo_cores=self.lo_cores,
            lo_prefetchers=self.lo_prefetchers,
            writes=self.writes,
        )
        for name, value in self.extra:
            row[name] = value
        return row


@dataclass(frozen=True)
class ActuationRecord:
    """One journaled knob write through the :class:`HostControlPlane`.

    No-op re-writes (the requested value already in effect) never reach the
    journal, so a quiescent controller produces zero entries per tick.
    """

    time: float
    #: Knob family: ``cpuset`` | ``msr`` | ``resctrl`` | ``mba``.
    kind: str
    #: What was written: a task id, ``core<N>`` or ``clos<N>``.
    target: str
    #: Rendered requested value (mask, on/off, percentage, ...).
    value: str
    #: ``applied`` | ``deferred`` (landed at the next tick) | ``failed``.
    status: str
    #: Physical write attempts consumed (1 + retries).
    attempts: int = 1

    def as_dict(self) -> dict[str, float | str | int]:
        """A flat JSON-clean row (the ``actuation`` record of the export)."""
        return {
            "time": self.time,
            "knob": self.kind,
            "target": self.target,
            "value": self.value,
            "status": self.status,
            "attempts": self.attempts,
        }
