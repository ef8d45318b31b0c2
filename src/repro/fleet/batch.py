"""The cluster-level best-effort batch queue.

Batch CPU jobs are pure throughput work: the queue bin-packs them onto
nodes (fewest resident jobs first, interference pressure as tie-breaker)
and — when eviction is enabled — pulls them back off nodes whose socket
watermarks have tripped for ``patience`` consecutive control intervals.
Evicted jobs return to the queue and are backfilled elsewhere (or later on
the same node once it cools down), so no batch work is ever lost, it is
only delayed — exactly the contract of a best-effort tier.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.fleet.config import BatchJobSpec
from repro.fleet.member import FleetMember
from repro.workloads.cpu.base import BatchProfile
from repro.workloads.cpu.catalog import cpu_workload

#: Job states.
PENDING = "pending"
RUNNING = "running"


def _hot_now(member: FleetMember) -> bool:
    """True when the node's latest telemetry sample tripped the watermarks."""
    return member.last_signals is not None and member.last_signals.hot


@dataclass
class BatchJob:
    """One best-effort job's lifecycle inside the queue."""

    job_id: str
    spec: BatchJobSpec
    profile: BatchProfile
    state: str = PENDING
    #: Node currently hosting the job (None while pending).
    node_index: int | None = None
    #: How many times the job has been evicted so far.
    evictions: int = 0

    def nominal_rate(self) -> float:
        """Full-speed units/s of this job (the batch-yield denominator)."""
        return self.profile.unit_rate_per_thread * self.profile.phase.threads


@dataclass
class BatchQueueStats:
    """Counters the fleet result reports for the batch tier."""

    placements: int = 0
    evictions: int = 0
    pending_at_end: int = 0
    #: Jobs pulled back to the queue by a node death / quarantine (distinct
    #: from watermark evictions: the node was lost, not hot).
    requeues: int = 0


class BatchQueue:
    """Bin-packing queue with watermark-driven eviction and backfill."""

    def __init__(
        self,
        specs: Sequence[BatchJobSpec],
        max_jobs_per_node: int,
        eviction: bool,
        patience: int,
        warmup: float,
    ) -> None:
        self.jobs: list[BatchJob] = [
            BatchJob(
                job_id=f"job{i}",
                spec=spec,
                profile=cpu_workload(spec.workload, spec.intensity),
            )
            for i, spec in enumerate(specs)
        ]
        self._by_node: dict[int, list[BatchJob]] = {}
        self._pending: list[BatchJob] = list(self.jobs)
        self._max_per_node = max_jobs_per_node
        self._eviction = eviction
        self._patience = patience
        self._warmup = warmup
        self.stats = BatchQueueStats()

    # ----------------------------------------------------------------- tick
    def tick(self, members: Iterable[FleetMember]) -> None:
        """One control interval: evict from hot nodes, then place pending.

        Called after every member has refreshed its telemetry sample, so
        eviction decisions and placement scores act on this interval's
        signals. ``members`` (the nodes the queue may use, in member
        order) is read only while some job is resident or pending, so an
        idle queue costs nothing per member.
        """
        if self._by_node or self._pending:
            members = list(members)
            if self._eviction:
                self._evict_hot(members)
            self._place_pending(members)
        self.stats.pending_at_end = len(self._pending)

    def _evict_hot(self, members: Sequence[FleetMember]) -> None:
        for member in members:
            jobs = self._by_node.get(member.index)
            if not jobs or member.hot_streak < self._patience:
                continue
            # Shed the most recently placed job first: it is the likeliest
            # cause of the regression and the cheapest to restart elsewhere.
            job = jobs.pop()
            if not jobs:
                del self._by_node[member.index]
            member.remove_job(job.job_id)
            job.state = PENDING
            job.node_index = None
            job.evictions += 1
            self.stats.evictions += 1
            self._pending.append(job)
            # One job per node per interval: re-measure before shedding more.
            member.hot_streak = 0

    def _place_pending(self, members: Sequence[FleetMember]) -> None:
        still_pending: list[BatchJob] = []
        for job in self._pending:
            target = self._pick_node(members)
            if target is None:
                still_pending.append(job)
                continue
            target.place_job(job.job_id, job.profile, warmup=self._warmup)
            self._by_node.setdefault(target.index, []).append(job)
            job.state = RUNNING
            job.node_index = target.index
            self.stats.placements += 1
        self._pending = still_pending

    def _pick_node(self, members: Sequence[FleetMember]) -> FleetMember | None:
        """Coolest node with a free slot; None when the fleet is full/hot.

        With eviction enabled, a node whose *latest* telemetry sample shows
        tripped watermarks takes no new batch work — placing on the streak
        instead would let a just-evicted job bounce straight back onto the
        node that shed it (eviction resets the streak to re-arm patience).
        """
        candidates = [
            m
            for m in members
            if m.job_count < self._max_per_node
            and not (self._eviction and _hot_now(m))
        ]
        if not candidates:
            return None
        return min(
            candidates,
            key=lambda m: (
                m.job_count,
                m.last_signals.pressure() if m.last_signals is not None else 0.0,
                m.index,
            ),
        )

    # ------------------------------------------------------------ lifecycle
    def requeue_node(self, member: FleetMember) -> int:
        """Pull every job off ``member`` and return it to the queue.

        The drain/quarantine path for a dead or misbehaving node: each
        job's tasks are stopped (idempotent if the node already crashed),
        its slot is released, and the job goes back to pending so the next
        tick re-places it on a healthy node. Returns the jobs requeued.
        """
        jobs = self._by_node.pop(member.index, [])
        for job in jobs:
            member.remove_job(job.job_id)
            job.state = PENDING
            job.node_index = None
            self.stats.requeues += 1
            self._pending.append(job)
        return len(jobs)

    def add_job(
        self, spec: BatchJobSpec, member: FleetMember | None = None
    ) -> BatchJob:
        """Admit one new job mid-run (a batch tenant arrival).

        With ``member`` the job is placed there immediately (the arrival
        was pinned); otherwise it joins the pending queue and the next
        tick bin-packs it normally.
        """
        job = BatchJob(
            job_id=f"job{len(self.jobs)}",
            spec=spec,
            profile=cpu_workload(spec.workload, spec.intensity),
        )
        self.jobs.append(job)
        if member is None:
            self._pending.append(job)
        else:
            member.place_job(job.job_id, job.profile, warmup=self._warmup)
            self._by_node.setdefault(member.index, []).append(job)
            job.state = RUNNING
            job.node_index = member.index
            self.stats.placements += 1
        return job

    # -------------------------------------------------------------- metrics
    @property
    def running(self) -> int:
        """Jobs currently resident on some node."""
        return sum(len(jobs) for jobs in self._by_node.values())

    @property
    def pending(self) -> int:
        """Jobs waiting in the queue."""
        return len(self._pending)

    def nominal_rate_total(self) -> float:
        """Aggregate full-speed units/s of every submitted job."""
        return sum(job.nominal_rate() for job in self.jobs)
