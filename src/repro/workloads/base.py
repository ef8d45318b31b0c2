"""Shared workload framework: tasks, host-phase profiles, speed computation.

A *task* is anything attachable to a :class:`~repro.hw.machine.Machine`. It
declares traffic sources and converts the solver's per-source rate factors
into progress on its fluid work. The conversion is the same for every host
phase in the library and lives in :func:`phase_speed`:

    speed = core_throttle * prefetch * llc * smt * cpu_share
            / ((1 - mem_fraction) + mem_fraction * memory_stretch)

i.e. the non-memory part of the phase scales with core-level factors, and the
memory-bound part additionally stretches with bandwidth grant / loaded
latency.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError, WorkloadError
from repro.hw.contention import Priority, SolveResult, SourceRates, TrafficSource
from repro.hw.machine import Machine
from repro.hw.placement import Placement
from repro.hw.prefetcher import PrefetchProfile
from repro.units import clamp


@dataclass(frozen=True)
class HostPhaseProfile:
    """Contention-relevant traits of one host-side phase.

    Attributes:
        bw_gbps: useful memory bandwidth demand at full speed.
        mem_fraction: fraction of the phase's standalone time that is
            memory-bound (0 = pure compute, 1 = pure memory).
        bw_bound_weight: how bandwidth-bound (vs latency-bound) the memory
            part is; streaming phases ~1, pointer-chasing phases ~0.
        working_set_mb: hot LLC footprint.
        llc_miss_traffic_gain: extra DRAM traffic multiplier at 0 % hit rate.
        llc_speed_sensitivity: speed lost at 0 % hit rate.
        smt_sensitivity / smt_aggression: SMT sibling interaction strengths.
        prefetch: response to prefetcher toggling.
        threads: runnable threads during this phase.
    """

    bw_gbps: float = 1.0
    mem_fraction: float = 0.3
    bw_bound_weight: float = 0.5
    working_set_mb: float = 0.0
    llc_intensity: float = 1.0
    llc_miss_traffic_gain: float = 0.0
    llc_speed_sensitivity: float = 0.0
    smt_sensitivity: float = 0.0
    smt_aggression: float = 0.0
    prefetch: PrefetchProfile = field(default_factory=PrefetchProfile)
    threads: int = 1

    def __post_init__(self) -> None:
        if self.bw_gbps < 0:
            raise ConfigurationError("bw_gbps must be >= 0")
        if not 0.0 <= self.mem_fraction <= 1.0:
            raise ConfigurationError("mem_fraction must be in [0, 1]")
        if not 0.0 <= self.bw_bound_weight <= 1.0:
            raise ConfigurationError("bw_bound_weight must be in [0, 1]")
        if self.threads <= 0:
            raise ConfigurationError("threads must be positive")


def phase_speed(rates: SourceRates, profile: HostPhaseProfile) -> float:
    """Speed multiplier for a host phase under the given rate factors.

    The compute part of the phase scales with core-occupancy factors; the
    memory-bound part additionally stretches with bandwidth grant, loaded
    latency, distress throttling, prefetcher state and LLC misses (see
    :meth:`~repro.hw.contention.SourceRates.memory_stretch`).
    """
    base = rates.compute_speed()
    stretch = rates.memory_stretch(profile.bw_bound_weight)
    slowdown = (1.0 - profile.mem_fraction) + profile.mem_fraction * stretch
    return clamp(base / max(slowdown, 1e-9), 1e-6, 10.0)


class Task:
    """Base class for everything attachable to a machine.

    Subclasses implement :meth:`traffic_sources`, :meth:`sync` and
    :meth:`apply_rates` (the :class:`~repro.hw.machine.AttachedTask`
    protocol) plus :meth:`start`.
    """

    def __init__(
        self,
        task_id: str,
        machine: Machine,
        placement: Placement,
        priority: Priority = Priority.LOW,
    ) -> None:
        self.task_id = task_id
        self.machine = machine
        self.sim = machine.sim
        self._placement = placement
        self.priority = priority
        self.started = False
        #: Parked tasks are runnable-nowhere: they emit no traffic and make
        #: no progress (the freezer/empty-cpuset state a controller puts a
        #: task in when it throttles it to zero cores).
        self.parked = False
        #: (id(profile), suffix, demand_scale) -> (TrafficSource, profile);
        #: the entry pins the profile, which keeps its id valid. Sources are
        #: immutable and derive only from the profile and the placement, so
        #: reusing instances keeps their memoized canonical keys warm across
        #: solves; cleared whenever the placement (or parked state) changes.
        #: Subclasses may keep entries of their own here.
        self._source_cache: dict = {}
        #: Subclasses' phase-speed memo, keyed on ``id()`` of the solve result
        #: (and profile). The solver cache interns results, so the same few
        #: identities recur; each entry pins the objects its key names, which
        #: keeps the ids valid.
        self._speed_memo: dict = {}

    def __getstate__(self) -> dict:
        """Pickle without the speed memo and the source cache: their
        ``id()`` keys would name other objects once unpickled, and they
        differ from run to run, which would make checkpoint bytes
        unrepeatable."""
        state = self.__dict__.copy()
        state["_speed_memo"] = {}
        state["_source_cache"] = {}
        return state

    # ----------------------------------------------------------- placement
    @property
    def placement(self) -> Placement:
        """Where this task currently runs."""
        return self._placement

    def set_placement(self, placement: Placement) -> None:
        """Adopt a new placement and trigger a contention re-solve."""
        self._placement = placement
        self._source_cache.clear()
        if self.started:
            self.machine.notify_change()

    def set_parked(self, parked: bool) -> None:
        """Park (run on zero cores) or unpark this task.

        A parked task stays attached to the machine but contributes no
        traffic sources and makes no forward progress until unparked —
        exactly what a cgroup with an empty effective cpuset (or a frozen
        cgroup) does on a real host.
        """
        if parked == self.parked:
            return
        self.parked = parked
        self._source_cache.clear()
        if self.started:
            self.machine.notify_change()

    # ------------------------------------------------------------ lifecycle
    def start(self) -> None:
        """Attach to the machine and begin executing."""
        if self.started:
            raise WorkloadError(f"task {self.task_id!r} already started")
        self.started = True
        self.machine.attach(self)

    def stop(self) -> None:
        """Detach from the machine."""
        if not self.started:
            return
        self.started = False
        self.machine.detach(self.task_id)

    # --------------------------------------------------- protocol (abstract)
    def traffic_sources(self) -> list[TrafficSource]:
        """Active traffic sources; override in subclasses."""
        raise NotImplementedError

    def sync(self, now: float) -> None:
        """Integrate progress up to ``now``; override in subclasses."""
        raise NotImplementedError

    def apply_rates(self, result: SolveResult, now: float) -> None:
        """Adopt new solver rates; override in subclasses."""
        raise NotImplementedError

    # ------------------------------------------------------------- helpers
    def _make_source(
        self, profile: HostPhaseProfile, suffix: str = "host", demand_scale: float = 1.0
    ) -> TrafficSource:
        """Build a traffic source for a host phase under this placement.

        Instances are cached until the placement changes: the solver memoizes
        per-source canonical keys on the instance, so handing it the same
        object for the same (profile, placement) makes repeat signature
        computations nearly free.
        """
        key = (id(profile), suffix, demand_scale)
        cached = self._source_cache.get(key)
        if cached is not None:
            return cached[0]
        source = TrafficSource(
            source_id=f"{self.task_id}:{suffix}",
            task_id=self.task_id,
            demand_gbps=profile.bw_gbps * demand_scale,
            mem_weights=self._placement.mem_weights,
            cores=self._placement.cores,
            threads=profile.threads,
            clos=self._placement.clos,
            priority=self.priority,
            prefetch=profile.prefetch,
            working_set_mb=profile.working_set_mb,
            llc_intensity=profile.llc_intensity,
            llc_miss_traffic_gain=profile.llc_miss_traffic_gain,
            llc_speed_sensitivity=profile.llc_speed_sensitivity,
            smt_aggression=profile.smt_aggression,
            smt_sensitivity=profile.smt_sensitivity,
        )
        self._source_cache[key] = (source, profile)
        return source
