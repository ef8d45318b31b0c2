"""The incident engine: scheduled injection + online detection + response.

:class:`IncidentEngine` is a :class:`~repro.fleet.orchestrator.FleetHooks`
implementation. Attached to a fleet run it

1. schedules every :class:`~repro.incidents.faults.IncidentSpec` of its
   schedule as simulator events (injection at ``start_s``, the underlying
   fault clearing at ``end_s``),
2. freezes one :class:`~repro.incidents.detect.FleetView` per control tick
   from the members' telemetry exports, the counted request counters and
   the actuation journals, feeding the detector bank, and
3. when built with ``remediate=True``, localizes each alarm and dispatches
   the :class:`~repro.incidents.remediate.Remediator` playbooks.

Determinism: the only randomness an incident ever introduces is the
intruder tenant's arrival stream, drawn from a dedicated
``SeedSequence((schedule.seed, tag, incident_index))`` generator — node
death, blackouts, fault windows and null-routing are all RNG-free, and the
engine never draws from (or reorders draws of) the fleet's own router /
tenant / node streams. An engine with an *empty* schedule only performs
reads, so attaching one leaves a clean run bit-identical to an unhooked
run — the property the composition tests pin.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.fleet.config import BatchJobSpec
from repro.fleet.orchestrator import FleetHooks, FleetOrchestrator
from repro.fleet.routing import Router
from repro.incidents.detect import (
    Alarm,
    DetectorBank,
    FleetView,
    NodeView,
)
from repro.incidents.faults import INCIDENT_PARAMS, IncidentSchedule, IncidentSpec
from repro.incidents.localize import Candidate, localize
from repro.incidents.remediate import Remediator
from repro.workloads.loadgen import OpenLoopGenerator

if TYPE_CHECKING:
    from repro.fleet.member import FleetMember
    from repro.sim import Simulator

#: Stream tag for intruder arrival processes (independent of every fleet
#: stream tag in :mod:`repro.fleet.orchestrator`).
_STREAM_INTRUDER = 0x41_46


class _NullRouteRouter(Router):
    """A misconfigured router: silently drops a fraction of admissions.

    Wraps the real router so the inner routing decision (and, for the
    random strategy, its RNG draw) happens exactly as before; a
    deterministic error-accumulator then null-routes ``drop_fraction`` of
    requests with no RNG of its own.
    """

    name = "null-route"

    def __init__(self, inner: Router, drop_fraction: float) -> None:
        self.inner = inner
        self._fraction = drop_fraction
        self._acc = 0.0

    def choose(self, members: Sequence["FleetMember"]):
        member = self.inner.choose(members)
        self._acc += self._fraction
        if self._acc >= 1.0:
            self._acc -= 1.0
            return None
        return member


class IncidentEngine(FleetHooks):
    """Fault injection, detection and (optional) auto-remediation."""

    def __init__(self, schedule: IncidentSchedule, remediate: bool = False) -> None:
        self.schedule = schedule
        self.remediate = remediate
        #: Per-tick counted counters: ``(time, offered, completed, good)``.
        self.ticks: list[tuple[float, int, int, int]] = []
        #: Every alarm with its ranked candidates, in firing order.
        self.alarms: list[tuple[Alarm, tuple[Candidate, ...]]] = []
        self.remediator: Remediator | None = None
        self._bank: DetectorBank | None = None
        self._orch: FleetOrchestrator | None = None
        self._sim: "Simulator | None" = None
        self._expected_router: Router | None = None
        self._intruders: dict[str, OpenLoopGenerator] = {}
        #: Per-node incremental journal scan state: (offset, failed count),
        #: keyed by member index so members added mid-run start at zero.
        self._journal_cursor: dict[int, tuple[int, int]] = {}
        self._intruder_name = INCIDENT_PARAMS["noisy-neighbor"]["tenant"].default
        for spec in schedule.incidents:
            if spec.kind == "noisy-neighbor":
                self._intruder_name = spec.param("tenant")

    # ------------------------------------------------------------- hooks
    def on_start(self, orchestrator: FleetOrchestrator, sim: "Simulator") -> None:
        self._orch = orchestrator
        self._sim = sim
        self._expected_router = orchestrator.router
        self._journal_cursor = {}
        self._bank = DetectorBank()
        if self.remediate:
            assert self._expected_router is not None
            self.remediator = Remediator(
                orchestrator,
                self._expected_router,
                throttle_tenant=self._throttle_tenant,
            )
        for index, spec in enumerate(self.schedule.incidents):
            sim.at(
                spec.start_s,
                partial(self._inject, index),
                label=f"incident:{spec.kind}:start",
            )
            if spec.end_s < orchestrator.config.duration:
                sim.at(
                    spec.end_s,
                    partial(self._clear, index),
                    label=f"incident:{spec.kind}:end",
                )

    def on_tick(self, orchestrator: FleetOrchestrator, now: float) -> None:
        assert self._bank is not None
        view = self._build_view(orchestrator, now)
        self.ticks.append((now, view.offered, view.completed, view.good))
        alarms = self._bank.observe(view)
        for alarm in alarms:
            candidates = localize(
                alarm, self._bank.views, intruder_name=self._intruder_name
            )
            self.alarms.append((alarm, candidates))
            if self.remediator is not None:
                self.remediator.handle(alarm, candidates, view)
        if self.remediator is not None:
            self.remediator.tick(view)

    # --------------------------------------------------------- injection
    def _inject(self, index: int) -> None:
        assert self._orch is not None and self._sim is not None
        spec = self.schedule.incidents[index]
        orch = self._orch
        if spec.kind == "node-death":
            member = orch.members[spec.node]
            # A *silent* death: the member stays in rotation, black-holing
            # whatever the router keeps sending it.
            orch.requests_dropped += member.fail()
        elif spec.kind == "telemetry-blackout":
            member = orch.members[spec.node]
            member.begin_blackout(spec.end_s)
            self._maybe_batch_arrival(spec, member)
        elif spec.kind == "stuck-actuator":
            member = orch.members[spec.node]
            member.policy.add_fault_window(spec.start_s, spec.end_s)
            self._maybe_batch_arrival(spec, member)
        elif spec.kind == "noisy-neighbor":
            self._start_intruder(index, spec)
        elif spec.kind == "routing-misconfig":
            assert orch.router is not None
            fraction = float(spec.param("drop_fraction"))
            orch.router = _NullRouteRouter(orch.router, fraction)

    def _clear(self, index: int) -> None:
        assert self._orch is not None
        spec = self.schedule.incidents[index]
        orch = self._orch
        if spec.kind == "node-death":
            # The node reboots and silently rejoins; if remediation
            # quarantined it, the recovery probe restores rotation once
            # fresh telemetry confirms the reboot.
            orch.members[spec.node].restart()
        elif spec.kind == "noisy-neighbor":
            generator = self._intruders.pop(spec.param("tenant"), None)
            if generator is not None:
                generator.stop()
        elif spec.kind == "routing-misconfig":
            # The bad config is rolled back at the fault's natural end (an
            # operator fixing it out-of-band); remediation just gets there
            # first. Blackouts and fault windows expire by themselves.
            router = orch.router
            if isinstance(router, _NullRouteRouter):
                orch.router = router.inner

    def _maybe_batch_arrival(self, spec: IncidentSpec, member) -> None:
        """The interference rider: a batch job pinned to the faulted node."""
        workload = spec.param("batch_workload")
        if workload is None:
            return
        assert self._orch is not None
        queue = self._orch.queue
        if queue is None:  # pragma: no cover - hooks only run inside run()
            return
        queue.add_job(
            BatchJobSpec(
                workload=workload, intensity=spec.param("batch_intensity")
            ),
            member=member,
        )

    def _start_intruder(self, index: int, spec: IncidentSpec) -> None:
        assert self._sim is not None
        name = spec.param("tenant")
        demand = float(spec.param("demand"))
        rate = float(spec.param("rate_qps"))
        generator = OpenLoopGenerator(
            sim=self._sim,
            rate_qps=rate,
            submit=partial(self._intruder_submit, demand),
            rng=np.random.default_rng(
                np.random.SeedSequence(
                    (self.schedule.seed, _STREAM_INTRUDER, index)
                )
            ),
        )
        self._intruders[name] = generator
        generator.start()

    def _intruder_submit(self, demand: float) -> None:
        """One intruder arrival: grab the least-loaded in-rotation node.

        The intruder does its own least-loaded probing (tenant-side load
        balancing) rather than going through the fleet router, so it never
        consumes a router RNG draw; its requests are ``counted=False`` —
        invisible to the offered/good accounting, visible only as occupied
        lanes and telemetry load.
        """
        assert self._orch is not None
        eligible = [m for m in self._orch.members if m.in_rotation]
        if not eligible:  # pragma: no cover - fleets never fully drain
            return
        member = min(eligible, key=lambda m: (m.load, m.index))
        member.submit(-1, demand=demand, counted=False)

    def _throttle_tenant(self, name: str) -> bool:
        generator = self._intruders.pop(name, None)
        if generator is None:
            return False
        generator.stop()
        return True

    # --------------------------------------------------------------- view
    def _build_view(
        self, orchestrator: FleetOrchestrator, now: float
    ) -> FleetView:
        offered, completed, good = orchestrator.counters()
        nodes = []
        for member in orchestrator.members:
            signals = member.last_signals
            assert signals is not None  # sampled earlier this tick
            offset, failed = self._journal_cursor.get(member.index, (0, 0))
            journal = member.policy.control_plane.journal
            while offset < len(journal):
                if journal[offset].status == "failed":
                    failed += 1
                offset += 1
            self._journal_cursor[member.index] = (offset, failed)
            nodes.append(
                NodeView(
                    index=member.index,
                    signals_time=signals.time,
                    saturation=signals.saturation,
                    latency_factor=signals.latency_factor,
                    socket_bw_gbps=signals.socket_bw_gbps,
                    inflight=signals.inflight,
                    queued=signals.queued,
                    batch_jobs=signals.batch_jobs,
                    hot=signals.hot,
                    journal_failed=failed,
                    journal_total=offset,
                )
            )
        return FleetView(
            time=now,
            interval=orchestrator.config.interval,
            offered=offered,
            completed=completed,
            good=good,
            nodes=tuple(nodes),
        )

    # ------------------------------------------------------------- export
    def export(self) -> dict:
        """A JSON-clean, picklable record of everything the engine saw."""
        return {
            "incidents": [s.as_dict() for s in self.schedule.incidents],
            "remediate": self.remediate,
            "ticks": [
                [round(t, 6), offered, completed, good]
                for t, offered, completed, good in self.ticks
            ],
            "alarms": [
                {
                    **alarm.as_dict(),
                    "candidates": [c.as_dict() for c in candidates],
                }
                for alarm, candidates in self.alarms
            ],
            "remediations": (
                [a.as_dict() for a in self.remediator.actions]
                if self.remediator is not None
                else []
            ),
        }
