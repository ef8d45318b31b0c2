"""Machine assembly: the live host that tasks attach to.

The :class:`Machine` owns the hardware models, the set of attached tasks, the
telemetry accumulator, and the recompute loop that keeps fluid rates
consistent: any state change calls :meth:`Machine.notify_change`, which syncs
all tasks at the old rates, re-solves contention, and pushes new rates.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol

from repro.errors import SimulationError, TopologyError
from repro.hw.contention import (
    ContentionSolver,
    SolveResult,
    SolverStats,
    TrafficSource,
    empty_solve_result,
)
from repro.hw.llc import LlcModel
from repro.hw.prefetcher import PrefetcherBank
from repro.hw.spec import MachineSpec
from repro.hw.telemetry import TelemetryAccumulator
from repro.hw.topology import Topology

if TYPE_CHECKING:
    from repro.sim import Simulator

#: Guard against runaway recompute feedback.
_MAX_RECOMPUTE_ROUNDS = 25


class AttachedTask(Protocol):
    """The contract tasks must implement to live on a :class:`Machine`."""

    task_id: str

    def traffic_sources(self) -> list[TrafficSource]:
        """Current active sources (may be empty while idle)."""

    def sync(self, now: float) -> None:
        """Integrate progress at the rates in force since the last sync."""

    def apply_rates(self, result: SolveResult, now: float) -> None:
        """Adopt new rates; reschedule any pending completion events."""


class Machine:
    """A live dual-socket accelerated host."""

    def __init__(self, spec: MachineSpec, sim: "Simulator") -> None:
        self.spec = spec
        self.sim = sim
        self.topology = Topology(spec)
        self.prefetchers = PrefetcherBank(spec.total_cores)
        self.llcs = {
            socket_id: LlcModel(socket.llc)
            for socket_id, socket in enumerate(spec.sockets)
        }
        self.solver = ContentionSolver(spec, self.topology, self.prefetchers, self.llcs)
        self.telemetry = TelemetryAccumulator()
        self._tasks: dict[str, AttachedTask] = {}
        #: ``_tasks``' values, rebuilt on attach and detach, so a recompute
        #: round copies nothing.
        self._task_order: tuple[AttachedTask, ...] = ()
        self._state: SolveResult = empty_solve_result(spec)
        self._in_recompute = False
        self._dirty = False
        #: Depth of :meth:`begin_hold` nesting; while positive,
        #: :meth:`notify_change` only marks work as deferred.
        self._hold = 0
        self._deferred = False
        #: Simulated instant every attached task was last synced at. Fluid
        #: progress only accrues as time advances, so repeat recompute
        #: rounds at one instant skip the whole sync pass.
        self._synced_at = -1.0
        #: Solve signature of the state currently in force; ``None`` both
        #: before the first solve and whenever caching is disabled.
        self._last_signature: object | None = None
        self.telemetry.set_state(self._state, sim.now)

    # ---------------------------------------------------------- attributes
    @property
    def state(self) -> SolveResult:
        """The most recent contention solve."""
        return self._state

    @property
    def solver_stats(self) -> SolverStats:
        """Performance counters of the embedded contention solver."""
        return self.solver.stats

    @property
    def snc_enabled(self) -> bool:
        """Whether sub-NUMA clustering is active."""
        return self.solver.snc_enabled

    def set_snc(self, enabled: bool) -> None:
        """Toggle SNC/Cluster-on-Die (a boot-time knob on real hardware)."""
        if self.solver.snc_enabled != enabled:
            self.solver.snc_enabled = enabled
            self.notify_change()

    def set_priority_mode(self, enabled: bool) -> None:
        """Toggle the request-level prioritization estimate (Section VI-D)."""
        if self.solver.priority_mode != enabled:
            self.solver.priority_mode = enabled
            self.notify_change()

    # --------------------------------------------------------------- tasks
    def attach(self, task: AttachedTask) -> None:
        """Register a task; its sources join the next solve."""
        if task.task_id in self._tasks:
            raise TopologyError(f"task {task.task_id!r} already attached")
        self._tasks[task.task_id] = task
        self._task_order = tuple(self._tasks.values())
        self.notify_change()

    def detach(self, task_id: str) -> None:
        """Remove a task from the machine."""
        if task_id not in self._tasks:
            raise TopologyError(f"task {task_id!r} not attached")
        del self._tasks[task_id]
        self._task_order = tuple(self._tasks.values())
        self.notify_change()

    def tasks(self) -> list[AttachedTask]:
        """All currently attached tasks."""
        return list(self._tasks.values())

    def task(self, task_id: str) -> AttachedTask:
        """Look up an attached task by id."""
        try:
            return self._tasks[task_id]
        except KeyError:
            raise TopologyError(f"task {task_id!r} not attached") from None

    # ----------------------------------------------------------- recompute
    def begin_hold(self) -> None:
        """Coalesce :meth:`notify_change` calls until :meth:`end_hold`.

        A control tick writes several knobs back-to-back at the same
        simulated instant; without the hold every write triggers a full
        sync/solve/apply round. Under the hold, notifications are deferred
        and a single recompute runs when the outermost hold ends (only if
        any arrived). No simulated time passes inside the hold, so the
        final state — solved from the final knob values — is identical to
        running the intermediate recomputes.
        """
        self._hold += 1

    def end_hold(self) -> None:
        """Exit a recompute hold; runs the deferred recompute at depth 0."""
        self._hold -= 1
        if self._hold == 0 and self._deferred:
            self._deferred = False
            self.notify_change()

    def notify_change(self) -> None:
        """Re-solve contention after any state change.

        Re-entrant calls (a task reacting to new rates by changing phase) are
        coalesced into additional rounds of the outer loop.

        Fast path: the solver's *solve signature* canonically captures every
        input the solve depends on. When the signature matches the state
        already in force, the solve (and the redundant telemetry segment) is
        skipped entirely — tasks are still synced and re-offered the current
        rates, because phase changes may need to reschedule completion events
        even when contention is unchanged.
        """
        if self._hold:
            self._deferred = True
            return
        self._dirty = True
        if self._in_recompute:
            return
        self._in_recompute = True
        try:
            rounds = 0
            while self._dirty:
                rounds += 1
                if rounds > _MAX_RECOMPUTE_ROUNDS:
                    raise SimulationError(
                        "recompute did not stabilize; a task is oscillating"
                    )
                self._dirty = False
                now = self.sim.now
                tasks = self._task_order
                if now != self._synced_at:
                    # Fluid progress only accrues as simulated time advances;
                    # repeat rounds at one instant skip the whole sync pass.
                    for task in tasks:
                        task.sync(now)
                    self._synced_at = now
                sources: list[TrafficSource] = []
                for task in tasks:
                    sources.extend(task.traffic_sources())
                signature = self.solver.solve_signature(sources)
                if signature is not None and signature == self._last_signature:
                    # Inputs identical to the state in force: skip the solve.
                    self.solver.note_short_circuit()
                else:
                    self._state = self.solver.solve(sources, signature=signature)
                    self._last_signature = signature
                    self.telemetry.set_state(self._state, now)
                for task in tasks:
                    task.apply_rates(self._state, now)
        finally:
            self._in_recompute = False
