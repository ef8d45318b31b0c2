"""Live service snapshots — the obs-facing view of a running fleet.

A snapshot reads *pure counters only* (admission/completion totals, batch
queue statistics, incident alarm counts). It never syncs a throughput
meter or fluid work mid-interval: doing so would change the float
accumulation order and make an observed run diverge bit-for-bit from an
unobserved one. Observing a service is free, in the determinism sense.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.fleet.orchestrator import FleetOrchestrator


@dataclass(frozen=True)
class ServiceSnapshot:
    """One epoch boundary's counters, JSON-clean via :meth:`as_dict`."""

    epoch: int
    time_s: float
    #: Cumulative counted totals at this boundary.
    offered: int
    completed: int
    good: int
    dropped: int
    #: Deltas over the last epoch.
    epoch_offered: int
    epoch_completed: int
    #: good / offered so far (1.0 when nothing offered yet).
    attainment: float
    #: Fleet membership at the boundary.
    nodes_active: int
    nodes_built: int
    nodes_retired: int
    #: Batch tier counters (zero without a batch tier).
    batch_placements: int
    batch_evictions: int
    batch_requeues: int
    #: Incident alarms fired so far (zero without an incident engine).
    incident_alarms: int

    def as_dict(self) -> dict:
        """A JSON-clean row (e.g. for ``RunObserver.record``)."""
        return asdict(self)


def take_snapshot(
    orchestrator: "FleetOrchestrator",
    epoch: int,
    time_s: float,
    prev_offered: int,
    prev_completed: int,
) -> ServiceSnapshot:
    """Assemble a snapshot from the orchestrator's pure counters."""
    offered, completed, good = orchestrator.counters()
    queue = orchestrator.queue
    hooks = orchestrator.hooks
    alarms = getattr(hooks, "alarms", None) if hooks is not None else None
    return ServiceSnapshot(
        epoch=epoch,
        time_s=time_s,
        offered=offered,
        completed=completed,
        good=good,
        dropped=orchestrator.requests_dropped,
        epoch_offered=offered - prev_offered,
        epoch_completed=completed - prev_completed,
        attainment=good / offered if offered else 1.0,
        nodes_active=orchestrator.active_members,
        nodes_built=len(orchestrator.members),
        nodes_retired=len(orchestrator.members) - orchestrator.active_members,
        batch_placements=queue.stats.placements if queue is not None else 0,
        batch_evictions=queue.stats.evictions if queue is not None else 0,
        batch_requeues=queue.stats.requeues if queue is not None else 0,
        incident_alarms=len(alarms) if alarms is not None else 0,
    )
