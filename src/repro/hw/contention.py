"""The fluid contention solver.

Every time anything in the machine changes (a phase starts or ends, a policy
reconfigures placements, prefetchers are toggled), the solver converts the
set of active *traffic sources* into a :class:`SolveResult`: per-controller
loads, per-socket distress pressure, UPI state, and per-source rate factors.
Workloads combine those factors with their own phase profiles to obtain the
speed at which their fluid work drains.

The solve is a small fixed-point iteration: the distress-driven core
throttling reduces the demand cores can generate, which reduces distress.
Damped iteration converges in a handful of rounds.

Performance layer
-----------------

Workloads cycle through a small recurring set of source configurations, so
the solver keeps a bounded LRU memo keyed on a canonical *solve signature*
(see :meth:`ContentionSolver.solve_signature`). The signature covers every
input the solve reads:

* the ordered, canonicalized active source set (all profile fields),
* per-source prefetcher-bank state (the enabled fraction over its cores),
* the solver knobs (``snc_enabled``, ``priority_mode``,
  ``qos_aware_prefetch``, the per-CLOS ``mba_caps``), and
* the per-socket LLC CAT mask state.

Anything that can change a solve's outcome MUST be part of the signature —
adding a solver knob without extending the signature produces stale-cache
bugs (see docs/model.md §"Solve signature invariants"). Per-source
prefetch/LLC/SMT *static factors* are additionally memoized independently,
so partial state changes (e.g. only an MBA cap moved) skip the O(n²) SMT
pass and the per-way LLC allocation instead of recomputing from scratch.

Cache observability flows through :class:`SolverStats` (per solver and the
module-level aggregate), surfaced via ``Machine.solver_stats`` and the
experiment harness. Reference mode (``REPRO_REFERENCE=1``, see
:mod:`repro.reference`) or :func:`set_cache_default` disables all solver
caching; the cached and uncached paths are numerically identical, which the
test suite asserts.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.hw.backpressure import SocketPressure, socket_pressure
from repro.hw.interconnect import UpiLoad, UpiModel
from repro.hw.llc import LlcModel, LlcRequest
from repro.hw.memory import McLoad, MemoryControllerModel, idle_load
from repro.hw.prefetcher import PrefetchProfile, PrefetcherBank
from repro.hw.spec import MachineSpec
from repro.hw.topology import Topology
from repro.reference import reference_mode
from repro.units import clamp

#: Cross-subdomain (same socket) access latency penalty when SNC is on.
_SNC_CROSS_PENALTY = 1.05

#: Default bound on the per-solver solve-result memo.
DEFAULT_SOLVE_CACHE_SIZE = 256
#: Bound on each per-component static-factor memo (LLC / SMT / prefetch).
_STATIC_CACHE_SIZE = 512

_cache_default_enabled: bool | None = None


def cache_default_enabled() -> bool:
    """Whether new solvers are built with caching enabled."""
    if _cache_default_enabled is not None:
        return _cache_default_enabled
    return not reference_mode()


def set_cache_default(enabled: bool | None) -> None:
    """Override the process-wide cache default (``None`` = caching on
    unless reference mode is set).

    Only affects solvers constructed afterwards; used by the equivalence
    tests and the benchmark harness to A/B the cached and uncached paths.
    """
    global _cache_default_enabled
    _cache_default_enabled = enabled


class Priority(enum.IntEnum):
    """Task priority classes (the paper's high-priority ML vs best-effort)."""

    LOW = 0
    HIGH = 1


@dataclass
class SolverStats:
    """Counters describing the solver's work and cache behaviour."""

    #: Total :meth:`ContentionSolver.solve` calls (including cached ones).
    solves: int = 0
    #: Solves answered from the solve-result memo.
    cache_hits: int = 0
    #: Solves that had to run the full fixed point.
    cache_misses: int = 0
    #: Machine-level re-solves skipped because the signature was unchanged.
    signature_short_circuits: int = 0
    #: Total fixed-point resolve passes executed across all full solves.
    fixed_point_rounds: int = 0
    #: Static-factor sub-results (LLC / SMT / prefetch) served from memo.
    static_reuse: int = 0
    #: Cache misses answered by the *incremental* delta path: the previous
    #: solve's static factors were reused because only the MBA cap,
    #: prefetcher state, or cpuset component of the signature changed.
    incremental_solves: int = 0
    #: Cache misses answered from the process-wide shared memo (warm pool
    #: workers reuse solves across sweep points this way).
    shared_hits: int = 0
    #: Candidate states evaluated through :meth:`ContentionSolver.solve_batch`.
    batch_points: int = 0

    @property
    def hit_rate(self) -> float:
        """Memo hit rate over solves that consulted the cache, in [0, 1]."""
        consulted = self.cache_hits + self.cache_misses
        return self.cache_hits / consulted if consulted else 0.0

    def as_dict(self) -> dict[str, float]:
        """A plain-dict snapshot (for telemetry/JSON reporting)."""
        return {
            "solves": self.solves,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "hit_rate": self.hit_rate,
            "signature_short_circuits": self.signature_short_circuits,
            "fixed_point_rounds": self.fixed_point_rounds,
            "static_reuse": self.static_reuse,
            "incremental_solves": self.incremental_solves,
            "shared_hits": self.shared_hits,
            "batch_points": self.batch_points,
        }

    def add(self, other: "SolverStats") -> None:
        """Accumulate ``other`` into this instance."""
        self.solves += other.solves
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.signature_short_circuits += other.signature_short_circuits
        self.fixed_point_rounds += other.fixed_point_rounds
        self.static_reuse += other.static_reuse
        self.incremental_solves += other.incremental_solves
        self.shared_hits += other.shared_hits
        self.batch_points += other.batch_points

    def reset(self) -> None:
        """Zero every counter."""
        self.solves = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.signature_short_circuits = 0
        self.fixed_point_rounds = 0
        self.static_reuse = 0
        self.incremental_solves = 0
        self.shared_hits = 0
        self.batch_points = 0


#: Process-wide aggregate over every solver (fleet-level observability).
GLOBAL_STATS = SolverStats()

#: Bound on the process-wide shared solve memo (see :data:`_SHARED_CACHE`).
_SHARED_CACHE_SIZE = 4096

#: Process-wide solve memo shared by every solver, keyed on
#: ``(MachineSpec, solve signature)``. Sweep points build a fresh
#: ``Machine`` (and hence a fresh solver with a cold per-instance memo)
#: each time; this cache survives across points within one process, so a
#: warm pool worker reproduces the near-perfect hit rate a long serial run
#: observes. The signature covers every solve input and ``MachineSpec`` is
#: deep-frozen, so entries can never be served across distinct hardware
#: configurations.
_SHARED_CACHE: OrderedDict[tuple, "SolveResult"] = OrderedDict()


def clear_shared_cache() -> None:
    """Drop the process-wide shared solve memo (benchmark/test hook)."""
    _SHARED_CACHE.clear()


def global_stats() -> SolverStats:
    """The process-wide aggregate :class:`SolverStats`."""
    return GLOBAL_STATS


def reset_global_stats() -> None:
    """Zero the process-wide aggregate counters."""
    GLOBAL_STATS.reset()


@dataclass(frozen=True)
class TrafficSource:
    """One stream of host activity competing for shared resources.

    A task usually contributes a single source; the RNN1 inference server
    aggregates all lanes currently in a CPU phase into one source whose demand
    scales with the number of active lanes.
    """

    source_id: str
    task_id: str
    #: Useful memory-bandwidth demand at full speed, GB/s, before prefetch
    #: inflation, LLC-miss inflation, CPU-share and throttle scaling.
    demand_gbps: float
    #: Subdomain id -> fraction of traffic routed there (normalized).
    mem_weights: dict[int, float]
    #: Cores the generating threads run on (must be on a single socket).
    cores: frozenset[int]
    #: Number of runnable threads (for CPU-share computation).
    threads: int = 1
    clos: int = 0
    priority: Priority = Priority.LOW
    prefetch: PrefetchProfile = field(default_factory=PrefetchProfile)
    #: Hot working set in the socket LLC, MB (0 = cache-oblivious).
    working_set_mb: float = 0.0
    #: Relative LLC access intensity (see :class:`~repro.hw.llc.LlcRequest`).
    llc_intensity: float = 1.0
    #: Demand multiplier at 0 % LLC hit rate (misses become DRAM traffic).
    llc_miss_traffic_gain: float = 0.0
    #: Speed multiplier lost at 0 % LLC hit rate.
    llc_speed_sensitivity: float = 0.0
    #: How strongly this source degrades SMT siblings sharing its cores.
    smt_aggression: float = 0.0
    #: How strongly this source suffers from SMT siblings on its cores.
    smt_sensitivity: float = 0.0
    #: Lazily computed :meth:`canonical_key` (instances are immutable, so
    #: the key is computed at most once; excluded from eq/hash/repr).
    _ckey: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )
    #: Memoized full per-source solve signature: ``(bank, bank_version,
    #: signature)``. Valid while the owning prefetcher bank is the same
    #: object at the same version (see ContentionSolver.source_signature).
    _sig: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.demand_gbps < 0:
            raise ConfigurationError("demand_gbps must be >= 0")
        if self.threads <= 0:
            raise ConfigurationError("threads must be positive")
        if not self.cores:
            raise ConfigurationError("source needs at least one core")

    def canonical_key(self) -> tuple:
        """A hashable tuple covering every solve-relevant field.

        ``mem_weights`` and ``cores`` are canonicalized by sorting so that
        two sources with equal routing/placement hash identically regardless
        of construction order. The key is memoized on the (frozen) instance:
        tasks reuse source objects across solves, so the signature fast path
        sees an O(1) lookup instead of rebuilding the tuple every round.
        """
        key = self._ckey
        if key is not None:
            return key
        key = (
            self.source_id,
            self.task_id,
            self.demand_gbps,
            tuple(sorted(self.mem_weights.items())),
            tuple(sorted(self.cores)),
            self.threads,
            self.clos,
            int(self.priority),
            self.prefetch,
            self.working_set_mb,
            self.llc_intensity,
            self.llc_miss_traffic_gain,
            self.llc_speed_sensitivity,
            self.smt_aggression,
            self.smt_sensitivity,
        )
        object.__setattr__(self, "_ckey", key)
        return key


#: Indices into :meth:`TrafficSource.canonical_key` used by the incremental
#: delta classifier (keep in sync with the tuple above).
_CKEY_CORES = 4
#: Index of the prefetcher-enabled fraction appended by
#: :meth:`ContentionSolver.source_signature`.
_SIG_FRACTION = 15


class _KnobDict(dict):
    """A dict that reports in-place mutation to its owner.

    Actuators and tests write ``solver.mba_caps[clos] = x`` directly; the
    change callback bumps the solver's knob version so its memoized knob
    signature invalidates without a setter API.
    """

    __slots__ = ("_on_change",)

    def __init__(self, on_change: Callable[[], None]) -> None:
        super().__init__()
        self._on_change = on_change

    def __setitem__(self, key: int, value: float) -> None:
        super().__setitem__(key, value)
        self._on_change()

    def __delitem__(self, key: int) -> None:
        super().__delitem__(key)
        self._on_change()

    def clear(self) -> None:
        if self:
            super().clear()
            self._on_change()

    def update(self, *args, **kwargs) -> None:
        super().update(*args, **kwargs)
        if args or kwargs:
            self._on_change()

    def pop(self, *args):
        result = super().pop(*args)
        self._on_change()
        return result

    def setdefault(self, key: int, default: float | None = None):
        if key in self:
            return self[key]
        self[key] = default
        return default


@dataclass(frozen=True)
class KnobVariant:
    """One candidate knob setting for a batched what-if solve.

    A variant overlays the solver's current state: ``mba_caps`` overrides
    per-CLOS offered-demand caps, ``prefetch_fractions`` overrides the
    prefetcher-enabled fraction seen by specific sources (by ``source_id``).
    Unspecified knobs keep their live values, so ``KnobVariant()`` solves
    the machine exactly as-is.
    """

    mba_caps: tuple[tuple[int, float], ...] = ()
    prefetch_fractions: tuple[tuple[str, float], ...] = ()


@dataclass(frozen=True)
class SourceRates:
    """Per-source factors produced by one solve."""

    #: Achieved/offered bandwidth ratio across the source's routing, (0, 1].
    bw_grant: float
    #: Effective loaded-latency factor (weighted over routing; includes SNC
    #: bonus/penalty, UPI hop latency and home-socket coherence injection).
    latency_factor: float
    #: Socket-wide distress throttle applied to the source's cores.
    core_throttle: float
    #: Prefetcher latency-hiding speed factor for the source's cores.
    prefetch_speed: float
    #: LLC hit fraction resolved for this source.
    llc_hit: float
    #: Speed multiplier from LLC misses, (0, 1].
    llc_speed: float
    #: Speed multiplier from SMT sibling pressure, (0, 1].
    smt_factor: float
    #: min(1, cores/threads): core-count share from CPU-mask throttling.
    cpu_share: float
    #: Core-path slowdown from the MBA rate controller. Intel's MBA sits
    #: between the core and the LLC, so throttling a CLOS's memory requests
    #: also costs it LLC bandwidth — the Section VI-D criticism. 1.0 when
    #: the CLOS is uncapped.
    mba_core_factor: float = 1.0
    #: Request-issue share left by the MBA throttle (the MB% cap itself);
    #: stretches the memory-bound part of the capped task's phases.
    mba_issue: float = 1.0

    def compute_speed(self) -> float:
        """Multiplier for the non-memory-bound (compute) part of a phase.

        Core occupancy effects — SMT sibling pressure, CPU-mask sharing and
        the MBA core-to-LLC rate controller — slow instruction execution
        itself; memory-side effects do not.
        """
        return self.smt_factor * self.cpu_share * self.mba_core_factor

    def memory_stretch(self, bw_bound_weight: float) -> float:
        """Time-stretch of the memory-bound part of a phase.

        ``bw_bound_weight`` blends bandwidth-bound behaviour (stretch =
        1/grant) with latency-bound behaviour (stretch = latency factor).
        The distress core-throttle slows request issue, disabled prefetchers
        stop hiding latency, and LLC misses add trips to DRAM — all three
        stretch the memory-bound portion of a phase, not its compute.
        """
        w = clamp(bw_bound_weight, 0.0, 1.0)
        bw_stretch = 1.0 / max(self.bw_grant, 1e-9)
        raw = w * bw_stretch + (1.0 - w) * self.latency_factor
        issue = max(
            self.core_throttle
            * self.prefetch_speed
            * self.llc_speed
            * self.mba_issue,
            1e-6,
        )
        return raw / issue


@dataclass(frozen=True)
class SolveResult:
    """Machine-wide outcome of one contention solve.

    Instances may be shared between solves through the solver memo; treat
    them (and their maps) as immutable.
    """

    mc_loads: dict[int, McLoad]
    socket_pressures: dict[int, SocketPressure]
    upi_loads: dict[tuple[int, int], UpiLoad]
    source_rates: dict[str, SourceRates]

    def rates_for(self, source_id: str) -> SourceRates:
        """Rates for ``source_id``; unknown sources see an idle machine."""
        rates = self.source_rates.get(source_id)
        if rates is not None:
            return rates
        return IDLE_RATES


#: Rates seen by a source on an otherwise idle machine.
IDLE_RATES = SourceRates(
    bw_grant=1.0,
    latency_factor=1.0,
    core_throttle=1.0,
    prefetch_speed=1.0,
    llc_hit=1.0,
    llc_speed=1.0,
    smt_factor=1.0,
    cpu_share=1.0,
)


def empty_solve_result(spec: MachineSpec) -> SolveResult:
    """The solve result of a machine with no active sources."""
    topo = Topology(spec)
    mc_loads = {
        mc_id: idle_load(topo.mc_spec_of_subdomain(mc_id))
        for mc_id in topo.mc_ids()
    }
    pressures = {
        s: SocketPressure(saturation=0.0, core_throttle=1.0)
        for s in range(topo.num_sockets)
    }
    return SolveResult(
        mc_loads=mc_loads, socket_pressures=pressures, upi_loads={}, source_rates={}
    )


def _lru_get(cache: OrderedDict, key):
    """Fetch + refresh an LRU entry (``None`` on miss)."""
    value = cache.get(key)
    if value is not None:
        cache.move_to_end(key)
    return value


def _lru_put(cache: OrderedDict, key, value, cap: int) -> None:
    """Insert an LRU entry, evicting the oldest beyond ``cap``."""
    if cap <= 0:
        return
    cache[key] = value
    while len(cache) > cap:
        cache.popitem(last=False)


class ContentionSolver:
    """Resolves traffic sources into rate factors for one machine."""

    def __init__(
        self,
        spec: MachineSpec,
        topology: Topology,
        prefetchers: PrefetcherBank,
        llcs: dict[int, LlcModel],
        cache_size: int | None = None,
    ) -> None:
        self.spec = spec
        self.topology = topology
        self.prefetchers = prefetchers
        self.llcs = llcs
        self._mc_models: dict[int, MemoryControllerModel] = {
            mc_id: MemoryControllerModel(topology.mc_spec_of_subdomain(mc_id))
            for mc_id in topology.mc_ids()
        }
        self._upi = UpiModel(spec.upi)
        #: Bumped whenever any solver knob changes; versions the memoized
        #: knob signature. Knob attributes are properties so direct writes
        #: (actuators, tests) are tracked without a dedicated setter API.
        self._knob_version = 0
        self._knob_sig: tuple | None = None
        #: Whole-signature memo for :meth:`solve_signature`, keyed by
        #: (source ids, bank version, knob version, LLC versions); values
        #: pin the source objects (see solve_signature).
        self._sig_memo: dict[tuple, tuple] = {}
        self._priority_mode = False
        self._mba_caps: _KnobDict = _KnobDict(self._bump_knob_version)
        self._snc_enabled = False
        self._qos_aware_prefetch = False

        # ------------------------------------------------ performance layer
        #: Master switch for the solve memo and static-factor memos. When
        #: off, every solve recomputes from scratch (the reference path).
        self.cache_enabled = cache_default_enabled()
        self.cache_size = (
            DEFAULT_SOLVE_CACHE_SIZE if cache_size is None else cache_size
        )
        self.stats = SolverStats()
        self._solve_cache: dict[tuple, SolveResult] = {}
        self._llc_cache: OrderedDict[tuple, dict[str, float]] = OrderedDict()
        self._smt_cache: OrderedDict[tuple, dict[str, float]] = OrderedDict()
        self._pf_cache: OrderedDict[tuple, tuple[float, float]] = OrderedDict()
        #: LLC membership is fixed at construction; keep the iteration order
        #: pre-sorted so the per-solve signature build avoids a sort.
        self._llc_sorted = sorted(llcs.items())
        self._empty_result: SolveResult | None = None
        #: Inputs of the most recent full/incremental solve, kept for the
        #: incremental delta path: (signature, pre-QoS static factor maps,
        #: source→socket map). ``None`` until the first cached solve.
        self._delta_state: tuple | None = None

    # -------------------------------------------------------------- knobs
    def _bump_knob_version(self) -> None:
        self._knob_version += 1

    @property
    def priority_mode(self) -> bool:
        """Request-level prioritization at the controllers (HW-QoS)."""
        return self._priority_mode

    @priority_mode.setter
    def priority_mode(self, value: bool) -> None:
        if value != self._priority_mode:
            self._priority_mode = value
            self._knob_version += 1

    @property
    def snc_enabled(self) -> bool:
        """Whether sub-NUMA clustering is enabled."""
        return self._snc_enabled

    @snc_enabled.setter
    def snc_enabled(self, value: bool) -> None:
        if value != self._snc_enabled:
            self._snc_enabled = value
            self._knob_version += 1

    @property
    def qos_aware_prefetch(self) -> bool:
        """QoS-aware hardware prefetching (Section VI-B)."""
        return self._qos_aware_prefetch

    @qos_aware_prefetch.setter
    def qos_aware_prefetch(self, value: bool) -> None:
        if value != self._qos_aware_prefetch:
            self._qos_aware_prefetch = value
            self._knob_version += 1

    @property
    def mba_caps(self) -> "_KnobDict":
        """Per-CLOS offered-demand caps (the resctrl MBA actuator), 0..1.

        A change-tracking dict: in-place mutation bumps the knob version so
        the memoized knob signature invalidates.
        """
        return self._mba_caps

    @mba_caps.setter
    def mba_caps(self, value: Mapping[int, float]) -> None:
        self._mba_caps.clear()
        self._mba_caps.update(value)

    # ------------------------------------------------------------ caching
    def _knob_signature(self) -> tuple:
        memo = self._knob_sig
        if memo is not None and memo[0] == self._knob_version:
            return memo[1]
        sig = (
            self._snc_enabled,
            self._priority_mode,
            self._qos_aware_prefetch,
            tuple(sorted(self._mba_caps.items())),
        )
        self._knob_sig = (self._knob_version, sig)
        return sig

    def _llc_state_signature(self) -> tuple:
        return tuple(
            (socket_id, llc.state_key()) for socket_id, llc in self._llc_sorted
        )

    def source_signature(self, source: TrafficSource) -> tuple:
        """Canonical per-source key, including its prefetcher-bank state.

        Memoized on the source instance against the bank's identity and
        version counter: tasks hand the solver the same source objects every
        round, so between prefetcher writes this is a couple of attribute
        compares instead of a tuple build.
        """
        bank = self.prefetchers
        memo = source._sig
        if memo is not None and memo[0] is bank and memo[1] == bank.version:
            return memo[2]
        sig = source.canonical_key() + (bank.enabled_fraction(source.cores),)
        object.__setattr__(source, "_sig", (bank, bank.version, sig))
        return sig

    def solve_signature(self, sources: list[TrafficSource]) -> tuple | None:
        """The canonical, hashable key of one solve.

        Covers the ordered active source set (with per-source prefetcher
        state), the solver knobs, and the LLC CAT mask state — i.e. every
        mutable input :meth:`solve` reads. Returns ``None`` when caching is
        disabled (callers then always re-solve).
        """
        if not self.cache_enabled:
            return None
        bank = self.prefetchers
        # Whole-signature memo. Tasks hand the solver interned source
        # objects and the active set cycles among a handful of variants
        # (lanes entering/leaving phases), so keying on the id tuple plus
        # the version counters of every other signature input (prefetcher
        # bank, knobs incl. MBA caps, CAT masks) turns the tuple build into
        # one dict probe. Values pin the source lists: an id in a live key
        # therefore always names the object it was built from (a freed
        # source's id could otherwise be recycled for a different one).
        key = (
            tuple(map(id, sources)),
            bank.version,
            self._knob_version,
            tuple(llc.version for _, llc in self._llc_sorted),
        )
        memo = self._sig_memo
        hit = memo.get(key)
        if hit is not None and hit[1] is bank:
            return hit[2]
        sig = (
            tuple(self.source_signature(s) for s in sources),
            self._knob_signature(),
            self._llc_state_signature(),
        )
        if len(memo) >= 128:
            memo.clear()
        memo[key] = (list(sources), bank, sig)
        return sig

    def clear_caches(self) -> None:
        """Drop all memoized state (solve results and static factors)."""
        self._solve_cache.clear()
        self._llc_cache.clear()
        self._smt_cache.clear()
        self._pf_cache.clear()
        self._delta_state = None
        self._sig_memo.clear()

    def note_short_circuit(self) -> None:
        """Record that a machine-level re-solve was skipped entirely."""
        self.stats.signature_short_circuits += 1
        GLOBAL_STATS.signature_short_circuits += 1

    # ------------------------------------------------------------ helpers
    def _socket_of_source(self, source: TrafficSource) -> int:
        sockets = {self.topology.socket_of_core(c) for c in source.cores}
        if len(sockets) != 1:
            raise ConfigurationError(
                f"source {source.source_id} spans sockets {sorted(sockets)}"
            )
        return next(iter(sockets))

    def _subdomains_of_source(self, source: TrafficSource) -> set[int]:
        return {self.topology.subdomain_of_core(c) for c in source.cores}

    # ------------------------------------------------------ static factors
    # The three per-source "static" factor families (prefetch, LLC, SMT) do
    # not depend on the fixed point, only on slices of the source set and
    # hardware state. Each family is memoized on exactly the state it reads,
    # so a solve whose signature differs only in, say, an MBA cap reuses all
    # three instead of redoing the per-way LLC split and the O(n²) SMT pass.

    def _prefetch_factors(self, source: TrafficSource) -> tuple[float, float]:
        """(demand_factor, speed_factor) for one source's prefetch state."""
        enabled = self.prefetchers.enabled_fraction(source.cores)
        if not self.cache_enabled:
            return (
                source.prefetch.demand_factor(enabled),
                source.prefetch.speed_factor(enabled),
            )
        key = (source.prefetch, enabled)
        hit = _lru_get(self._pf_cache, key)
        if hit is not None:
            self.stats.static_reuse += 1
            GLOBAL_STATS.static_reuse += 1
            return hit
        value = (
            source.prefetch.demand_factor(enabled),
            source.prefetch.speed_factor(enabled),
        )
        _lru_put(self._pf_cache, key, value, _STATIC_CACHE_SIZE)
        return value

    def _llc_hit_fractions(
        self, by_socket: dict[int, list[TrafficSource]]
    ) -> dict[str, float]:
        """Per-source LLC hit fractions, memoized per socket."""
        llc_hit: dict[str, float] = {}
        for socket_id, socket_sources in by_socket.items():
            request_key = tuple(
                (s.source_id, s.working_set_mb, s.clos, s.llc_intensity)
                for s in socket_sources
            )
            key = (socket_id, self.llcs[socket_id].state_key(), request_key)
            cached = _lru_get(self._llc_cache, key) if self.cache_enabled else None
            if cached is not None:
                self.stats.static_reuse += 1
                GLOBAL_STATS.static_reuse += 1
                llc_hit.update(cached)
                continue
            requests = [
                LlcRequest(
                    task_id=s.source_id,
                    working_set_mb=s.working_set_mb,
                    clos=s.clos,
                    intensity=s.llc_intensity,
                )
                for s in socket_sources
            ]
            fractions = self.llcs[socket_id].hit_fractions(requests)
            if self.cache_enabled:
                _lru_put(self._llc_cache, key, fractions, _STATIC_CACHE_SIZE)
            llc_hit.update(fractions)
        return llc_hit

    def _smt_factors(self, sources: list[TrafficSource]) -> dict[str, float]:
        """SMT sibling-pressure factors, memoized on the overlap-relevant
        slice of the source set (cores + SMT coefficients)."""
        key = tuple(
            (s.source_id, tuple(sorted(s.cores)), s.smt_aggression, s.smt_sensitivity)
            for s in sources
        )
        if self.cache_enabled:
            cached = _lru_get(self._smt_cache, key)
            if cached is not None:
                self.stats.static_reuse += 1
                GLOBAL_STATS.static_reuse += 1
                return cached
        smt: dict[str, float] = {}
        for source in sources:
            worst = 0.0
            for other in sources:
                if other.source_id == source.source_id:
                    continue
                overlap = len(source.cores & other.cores)
                if not overlap:
                    continue
                fraction = overlap / len(source.cores)
                worst = max(worst, other.smt_aggression * fraction)
            smt[source.source_id] = clamp(
                1.0 - source.smt_sensitivity * worst, 0.05, 1.0
            )
        if self.cache_enabled:
            _lru_put(self._smt_cache, key, smt, _STATIC_CACHE_SIZE)
        return smt

    def _static_factors(
        self, sources: list[TrafficSource]
    ) -> tuple[dict[str, float], dict[str, float], dict[str, float], dict[str, float]]:
        """Per-source factors that do not depend on the fixed point.

        Returns (prefetch_demand, prefetch_speed, llc_hit, smt_factor) maps.
        The prefetch maps are freshly built per call (the QoS-aware-prefetch
        branch mutates them); LLC and SMT maps may be memo-shared and must
        not be mutated.
        """
        pf_demand: dict[str, float] = {}
        pf_speed: dict[str, float] = {}
        for source in sources:
            demand, speed = self._prefetch_factors(source)
            pf_demand[source.source_id] = demand
            pf_speed[source.source_id] = speed

        by_socket: dict[int, list[TrafficSource]] = {}
        for source in sources:
            by_socket.setdefault(self._socket_of_source(source), []).append(source)
        llc_hit = self._llc_hit_fractions(by_socket)
        smt = self._smt_factors(sources)
        return pf_demand, pf_speed, llc_hit, smt

    def _routing_latency_adjust(self, source: TrafficSource, subdomain: int) -> float:
        """SNC locality bonus/penalty for traffic to ``subdomain``."""
        if not self.snc_enabled:
            return 1.0
        source_subdomains = self._subdomains_of_source(source)
        if subdomain in source_subdomains:
            return 1.0 - self.spec.snc_local_latency_bonus
        if self.topology.socket_of_subdomain(subdomain) == self._socket_of_source(
            source
        ):
            return _SNC_CROSS_PENALTY
        return 1.0  # cross-socket handled via UPI terms

    # -------------------------------------------------------------- solve
    def solve(
        self, sources: list[TrafficSource], signature: tuple | None = None
    ) -> SolveResult:
        """Resolve the machine state for the given active sources.

        ``signature`` may carry a pre-computed :meth:`solve_signature` (the
        machine's recompute loop computes it anyway for its short-circuit
        check); when omitted it is derived here.
        """
        self.stats.solves += 1
        GLOBAL_STATS.solves += 1
        if not sources:
            if self._empty_result is None:
                self._empty_result = empty_solve_result(self.spec)
            return self._empty_result

        if self.cache_enabled:
            if signature is None:
                signature = self.solve_signature(sources)
            # The local memo is a flat dict cleared when full rather than a
            # true LRU: steady-state working sets are a handful of
            # signatures (far below the cap), and a plain ``get`` hashes
            # the nested signature tuple once per solve instead of twice.
            # Recency-aware eviction lives in the process-wide shared cache.
            cache = self._solve_cache
            cached = cache.get(signature)
            if cached is None:
                shared = _lru_get(_SHARED_CACHE, (self.spec, signature))
                if shared is not None:
                    self.stats.shared_hits += 1
                    GLOBAL_STATS.shared_hits += 1
                    self._cache_put(signature, shared)
                    cached = shared
            if cached is not None:
                self.stats.cache_hits += 1
                GLOBAL_STATS.cache_hits += 1
                return cached
            self.stats.cache_misses += 1
            GLOBAL_STATS.cache_misses += 1

        result = self._solve(sources, signature=signature)
        if self.cache_enabled and signature is not None:
            self._cache_put(signature, result)
            _lru_put(
                _SHARED_CACHE, (self.spec, signature), result, _SHARED_CACHE_SIZE
            )
        return result

    def _cache_put(self, signature: tuple, result: SolveResult) -> None:
        """Insert into the flat local memo (clear-on-full, see solve())."""
        if self.cache_size <= 0:
            return
        cache = self._solve_cache
        if len(cache) >= self.cache_size:
            cache.clear()
        cache[signature] = result

    # --------------------------------------------------- incremental deltas
    def _classify_delta(self, signature: tuple) -> tuple | None:
        """Reusable static factors when ``signature`` is a small knob delta.

        Control ticks change one knob at a time: an MBA cap (knob
        signature), prefetcher MSRs (per-source enabled fraction), or a
        cpuset (per-source cores). For those deltas the previous solve's
        per-source static factors are still valid — recomputing them would
        produce identical values — so they are reused wholesale and only the
        fixed point reruns. Returns ``(pf_demand, pf_speed, llc_hit, smt,
        source_socket, changed_sources)`` or ``None`` when the delta is not
        one of the recognized shapes (full recompute).
        """
        if self._delta_state is None:
            return None
        (p_src_sigs, p_knob, p_llc), statics, p_socket = self._delta_state
        src_sigs, knob_sig, llc_sig = signature
        if llc_sig != p_llc or len(src_sigs) != len(p_src_sigs):
            return None
        if knob_sig != p_knob:
            # Only the MBA-cap component may differ; snc / priority-mode /
            # qos-aware-prefetch flips change the solve structure itself.
            if knob_sig[:3] != p_knob[:3]:
                return None
        pf_demand, pf_speed, llc_hit, smt = statics
        changed: list[int] = []
        cores_changed = False
        for index, (old, new) in enumerate(zip(p_src_sigs, src_sigs)):
            if old == new:
                continue
            for pos, (a, b) in enumerate(zip(old, new)):
                if a == b:
                    continue
                if pos == _CKEY_CORES:
                    cores_changed = True
                elif pos != _SIG_FRACTION:
                    return None  # some other profile field moved: full solve
            changed.append(index)
        return pf_demand, pf_speed, llc_hit, smt, p_socket, changed, cores_changed

    def _solve_incremental(
        self, sources: list[TrafficSource], signature: tuple
    ) -> SolveResult | None:
        """Try the delta path; ``None`` means the caller must solve fully."""
        delta = self._classify_delta(signature)
        if delta is None:
            return None
        pf_demand, pf_speed, llc_hit, smt, source_socket, changed, cores_changed = (
            delta
        )
        if changed or cores_changed:
            pf_demand = dict(pf_demand)
            pf_speed = dict(pf_speed)
            if cores_changed:
                source_socket = dict(source_socket)
            for index in changed:
                source = sources[index]
                if cores_changed:
                    # A cpuset move on the same socket keeps the per-socket
                    # LLC grouping (and hence the reused hit fractions)
                    # valid; a cross-socket move needs a full solve.
                    if self._socket_of_source(source) != source_socket.get(
                        source.source_id
                    ):
                        return None
                demand, speed = self._prefetch_factors(source)
                pf_demand[source.source_id] = demand
                pf_speed[source.source_id] = speed
            if cores_changed:
                smt = self._smt_factors(sources)
        self.stats.incremental_solves += 1
        GLOBAL_STATS.incremental_solves += 1
        self._delta_state = (
            signature,
            (dict(pf_demand), dict(pf_speed), llc_hit, smt),
            source_socket,
        )
        return self._solve_core(
            sources, pf_demand, pf_speed, llc_hit, smt, source_socket
        )

    def _solve(
        self, sources: list[TrafficSource], signature: tuple | None = None
    ) -> SolveResult:
        """The full fixed-point computation (reference path, cache-free)."""
        if signature is not None:
            incremental = self._solve_incremental(sources, signature)
            if incremental is not None:
                return incremental
        pf_demand, pf_speed, llc_hit, smt = self._static_factors(sources)
        source_socket = {s.source_id: self._socket_of_source(s) for s in sources}
        if signature is not None:
            self._delta_state = (
                signature,
                (dict(pf_demand), dict(pf_speed), llc_hit, smt),
                source_socket,
            )
        return self._solve_core(
            sources, pf_demand, pf_speed, llc_hit, smt, source_socket
        )

    def _solve_core(
        self,
        sources: list[TrafficSource],
        pf_demand: dict[str, float],
        pf_speed: dict[str, float],
        llc_hit: dict[str, float],
        smt: dict[str, float],
        source_socket: dict[str, int],
        mba_caps: Mapping[int, float] | None = None,
        fraction_of: Callable[[TrafficSource], float] | None = None,
    ) -> SolveResult:
        """The fixed point given precomputed static factors.

        ``mba_caps`` / ``fraction_of`` override the live knob state for
        what-if (variant) solves; by default the solver's own state is read.
        ``pf_demand`` / ``pf_speed`` may be mutated (the QoS-aware-prefetch
        branch rewrites them), so callers pass throwaway dicts.
        """
        caps = self.mba_caps if mba_caps is None else mba_caps

        def offered_demand(source: TrafficSource) -> float:
            # Offered demand is the *queue pressure* a source exerts on the
            # controllers. It is deliberately NOT scaled by the distress
            # throttle: prefetch streams and retried demand misses keep the
            # queues full even while the issuing cores are being throttled —
            # which is exactly why the paper manages saturation by disabling
            # prefetchers rather than relying on the throttle to resolve it.
            hit = llc_hit[source.source_id]
            miss_inflation = 1.0 + source.llc_miss_traffic_gain * (1.0 - hit)
            cpu_share = min(1.0, len(source.cores) / source.threads)
            mba = caps.get(source.clos, 1.0)
            return (
                source.demand_gbps
                * pf_demand[source.source_id]
                * miss_inflation
                * cpu_share
                * mba
            )

        def resolve_pass():
            self.stats.fixed_point_rounds += 1
            GLOBAL_STATS.fixed_point_rounds += 1
            demand_hi = {m: 0.0 for m in self._mc_models}
            demand_lo = {m: 0.0 for m in self._mc_models}
            upi_demand: dict[tuple[int, int], float] = {}
            for source in sources:
                home_socket = source_socket[source.source_id]
                demand = offered_demand(source)
                for subdomain, weight in source.mem_weights.items():
                    slice_demand = demand * weight
                    target_socket = self.topology.socket_of_subdomain(subdomain)
                    if target_socket != home_socket:
                        slice_demand *= 1.0 + self.spec.upi.coherence_overhead
                        key = (home_socket, target_socket)
                        upi_demand[key] = upi_demand.get(key, 0.0) + slice_demand
                    bucket = (
                        demand_hi if source.priority == Priority.HIGH else demand_lo
                    )
                    bucket[subdomain] += slice_demand

            mc_loads: dict[int, McLoad] = {}
            hi_grants: dict[int, float] = {}
            lo_grants: dict[int, float] = {}
            for mc_id, model in self._mc_models.items():
                if self.priority_mode:
                    load, hi_g, lo_g = model.resolve_prioritized(
                        demand_hi[mc_id], demand_lo[mc_id]
                    )
                    hi_grants[mc_id] = hi_g
                    lo_grants[mc_id] = lo_g
                else:
                    load = model.resolve(demand_hi[mc_id] + demand_lo[mc_id])
                    hi_grants[mc_id] = load.grant_ratio
                    lo_grants[mc_id] = load.grant_ratio
                mc_loads[mc_id] = load

            upi_loads = {
                key: self._upi.resolve(demand)
                for key, demand in upi_demand.items()
            }

            pressures = {}
            for socket_id in range(self.topology.num_sockets):
                subdomains = self.topology.subdomains_of_socket(socket_id)
                pressures[socket_id] = socket_pressure(
                    [mc_loads[m] for m in subdomains],
                    self.spec.sockets[socket_id].backpressure_strength,
                )
            return mc_loads, hi_grants, lo_grants, upi_loads, pressures

        mc_loads, hi_grants, lo_grants, upi_loads, pressures = resolve_pass()

        if self.qos_aware_prefetch and any(
            p.saturation > 0 for p in pressures.values()
        ):
            # Section VI-B: hardware prefetchers observe memory-resource
            # state directly and throttle low-priority prefetch streams in
            # the same cycle saturation appears — modeled as scaling each
            # low-priority source's prefetcher effect by (1 - saturation)
            # and re-resolving once.
            for source in sources:
                if source.priority == Priority.HIGH:
                    continue
                sat = pressures[source_socket[source.source_id]].saturation
                enabled = (
                    fraction_of(source)
                    if fraction_of is not None
                    else self.prefetchers.enabled_fraction(source.cores)
                )
                effective = enabled * (1.0 - sat)
                pf_demand[source.source_id] = source.prefetch.demand_factor(
                    effective
                )
                pf_speed[source.source_id] = source.prefetch.speed_factor(
                    effective
                )
            mc_loads, hi_grants, lo_grants, upi_loads, pressures = resolve_pass()

        # Latency injection from inbound coherence traffic, per home socket.
        home_injection = {s: 0.0 for s in range(self.topology.num_sockets)}
        for (_, target_socket), load in upi_loads.items():
            home_injection[target_socket] += self._upi.home_latency_injection(
                load.utilization, self.spec.remote_sensitivity
            )

        source_rates: dict[str, SourceRates] = {}
        for source in sources:
            home_socket = source_socket[source.source_id]
            grant = 0.0
            latency = 0.0
            grants = (
                hi_grants if source.priority == Priority.HIGH else lo_grants
            )
            for subdomain, weight in source.mem_weights.items():
                target_socket = self.topology.socket_of_subdomain(subdomain)
                mc = mc_loads[subdomain]
                slice_grant = grants[subdomain]
                mc_latency = (
                    mc.hi_latency_factor
                    if source.priority == Priority.HIGH
                    else mc.latency_factor
                )
                slice_latency = mc_latency * self._routing_latency_adjust(
                    source, subdomain
                )
                if self.snc_enabled:
                    # Shared-mesh residual coupling from the sibling
                    # subdomains on the same socket. Convex in a sibling's
                    # utilization: negligible at moderate load (preserving
                    # the paper's better-than-standalone behaviour under
                    # light pressure), material only near saturation.
                    for sibling in self.topology.sibling_subdomains(subdomain):
                        slice_latency += (
                            self.spec.mesh_coupling
                            * mc_loads[sibling].utilization ** 3
                        )
                slice_latency += home_injection[target_socket]
                if target_socket != home_socket:
                    upi = upi_loads.get((home_socket, target_socket))
                    if upi is not None:
                        slice_grant *= upi.grant_ratio
                        slice_latency *= upi.remote_latency_factor
                grant += weight * slice_grant
                latency += weight * slice_latency
            mba_cap = caps.get(source.clos, 1.0)
            source_rates[source.source_id] = SourceRates(
                bw_grant=clamp(grant, 1e-9, 1.0),
                latency_factor=max(latency, 0.5),
                core_throttle=pressures[home_socket].core_throttle,
                prefetch_speed=pf_speed[source.source_id],
                llc_hit=llc_hit[source.source_id],
                llc_speed=clamp(
                    1.0
                    - source.llc_speed_sensitivity
                    * (1.0 - llc_hit[source.source_id]),
                    0.05,
                    1.0,
                ),
                smt_factor=smt[source.source_id],
                cpu_share=min(1.0, len(source.cores) / source.threads),
                # The MBA rate controller throttles the core-to-LLC path,
                # so part of the cap lands on compute (Section VI-D).
                mba_core_factor=0.45 + 0.55 * mba_cap,
                mba_issue=mba_cap,
            )

        return SolveResult(
            mc_loads=mc_loads,
            socket_pressures=pressures,
            upi_loads=upi_loads,
            source_rates=source_rates,
        )

    # ------------------------------------------------------- what-if solves
    def _variant_inputs(
        self, sources: list[TrafficSource], variant: KnobVariant
    ) -> tuple[dict[int, float], dict[str, float]]:
        """Materialize a variant's effective MBA caps and fraction overrides."""
        caps = dict(self.mba_caps)
        caps.update(dict(variant.mba_caps))
        overrides = dict(variant.prefetch_fractions)
        return caps, overrides

    def solve_variant(
        self, sources: list[TrafficSource], variant: KnobVariant
    ) -> SolveResult:
        """Scalar what-if solve under a knob overlay (the batch reference).

        Runs the exact scalar fixed point with the variant's MBA caps and
        per-source prefetcher fractions substituted for the live ones; the
        machine's state is never touched and nothing is cached.
        """
        self.stats.solves += 1
        GLOBAL_STATS.solves += 1
        if not sources:
            if self._empty_result is None:
                self._empty_result = empty_solve_result(self.spec)
            return self._empty_result
        caps, overrides = self._variant_inputs(sources, variant)

        def fraction_of(source: TrafficSource) -> float:
            override = overrides.get(source.source_id)
            if override is not None:
                return override
            return self.prefetchers.enabled_fraction(source.cores)

        pf_demand: dict[str, float] = {}
        pf_speed: dict[str, float] = {}
        for source in sources:
            fraction = fraction_of(source)
            pf_demand[source.source_id] = source.prefetch.demand_factor(fraction)
            pf_speed[source.source_id] = source.prefetch.speed_factor(fraction)
        by_socket: dict[int, list[TrafficSource]] = {}
        for source in sources:
            by_socket.setdefault(self._socket_of_source(source), []).append(source)
        llc_hit = self._llc_hit_fractions(by_socket)
        smt = self._smt_factors(sources)
        source_socket = {s.source_id: self._socket_of_source(s) for s in sources}
        return self._solve_core(
            sources,
            pf_demand,
            pf_speed,
            llc_hit,
            smt,
            source_socket,
            mba_caps=caps,
            fraction_of=fraction_of,
        )

    def solve_batch(
        self, sources: list[TrafficSource], variants: Sequence[KnobVariant]
    ) -> list[SolveResult]:
        """Vectorized what-if solve over many knob variants at once.

        Evaluates the bandwidth-contention fixed point for every variant in
        one set of numpy array passes — the per-controller latency/grant
        curves, UPI link state, socket distress pressure, and per-source
        rate assembly are all batched over the variant axis. The source
        *structure* (placements, working sets, priorities) is shared; only
        knobs vary, which is exactly the fig05/fig13/fig16 what-if shape.

        The scalar :meth:`solve_variant` is the semantic reference: results
        agree to floating-point round-off with identical fixed-point round
        counts (asserted by the property suite).
        """
        variants = list(variants)
        if not variants:
            return []
        self.stats.solves += len(variants)
        GLOBAL_STATS.solves += len(variants)
        self.stats.batch_points += len(variants)
        GLOBAL_STATS.batch_points += len(variants)
        if not sources:
            if self._empty_result is None:
                self._empty_result = empty_solve_result(self.spec)
            return [self._empty_result] * len(variants)

        topo = self.topology
        n_var = len(variants)
        n_src = len(sources)
        mc_ids = list(self._mc_models)
        mc_index = {mc_id: j for j, mc_id in enumerate(mc_ids)}
        n_mc = len(mc_ids)

        # ---------------------------------------------- variant-independent
        by_socket: dict[int, list[TrafficSource]] = {}
        for source in sources:
            by_socket.setdefault(self._socket_of_source(source), []).append(source)
        llc_hit = self._llc_hit_fractions(by_socket)
        smt = self._smt_factors(sources)
        source_socket = {s.source_id: self._socket_of_source(s) for s in sources}
        source_index = {s.source_id: i for i, s in enumerate(sources)}

        base_demand = np.array([s.demand_gbps for s in sources])
        miss_inflation = np.array(
            [
                1.0 + s.llc_miss_traffic_gain * (1.0 - llc_hit[s.source_id])
                for s in sources
            ]
        )
        cpu_share = np.array(
            [min(1.0, len(s.cores) / s.threads) for s in sources]
        )
        hi_mask = np.array(
            [s.priority == Priority.HIGH for s in sources], dtype=float
        )
        lo_mask = 1.0 - hi_mask
        pf_gain = np.array([s.prefetch.traffic_gain for s in sources])
        pf_off_demand = np.array([s.prefetch.off_demand for s in sources])
        pf_off_speed = np.array([s.prefetch.off_speed for s in sources])

        # Routing structure: per-source slice weights onto controllers (with
        # the cross-socket coherence amplification folded in) and onto the
        # ordered UPI socket pairs.
        weights = np.zeros((n_src, n_mc))
        pair_index: dict[tuple[int, int], int] = {}
        pair_of_slice: dict[tuple[int, int], int] = {}  # (src, mc) -> pair
        for si, source in enumerate(sources):
            home = source_socket[source.source_id]
            for subdomain, weight in source.mem_weights.items():
                j = mc_index[subdomain]
                target = topo.socket_of_subdomain(subdomain)
                slice_weight = weight
                if target != home:
                    slice_weight *= 1.0 + self.spec.upi.coherence_overhead
                    pair = (home, target)
                    if pair not in pair_index:
                        pair_index[pair] = len(pair_index)
                    pair_of_slice[(si, j)] = pair_index[pair]
                weights[si, j] = slice_weight
        n_pair = len(pair_index)
        upi_weights = np.zeros((n_src, n_pair))
        for (si, j), p in pair_of_slice.items():
            upi_weights[si, p] += weights[si, j]

        # ------------------------------------------------- variant overlays
        base_fraction = np.array(
            [self.prefetchers.enabled_fraction(s.cores) for s in sources]
        )
        fraction = np.tile(base_fraction, (n_var, 1))
        caps_bs = np.ones((n_var, n_src))
        for b, variant in enumerate(variants):
            caps, overrides = self._variant_inputs(sources, variant)
            for source_id, value in overrides.items():
                si = source_index.get(source_id)
                if si is not None:
                    fraction[b, si] = value
            for si, source in enumerate(sources):
                caps_bs[b, si] = caps.get(source.clos, 1.0)

        def pf_factors(frac: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            f = np.clip(frac, 0.0, 1.0)
            return (
                pf_off_demand + f * (pf_gain - pf_off_demand),
                pf_off_speed + f * (1.0 - pf_off_speed),
            )

        pf_demand, pf_speed = pf_factors(fraction)

        sockets = range(topo.num_sockets)
        socket_mc_cols = {
            sk: [mc_index[m] for m in topo.subdomains_of_socket(sk)]
            for sk in sockets
        }
        strength = np.array(
            [self.spec.sockets[sk].backpressure_strength for sk in sockets]
        )

        def resolve_pass(pf_demand: np.ndarray) -> dict[str, np.ndarray]:
            demand = base_demand * pf_demand * miss_inflation * cpu_share * caps_bs
            demand_hi = (demand * hi_mask) @ weights
            demand_lo = (demand * lo_mask) @ weights
            out = {
                "demand": demand_hi + demand_lo,
                "delivered": np.empty((n_var, n_mc)),
                "grant": np.empty((n_var, n_mc)),
                "hi_grant": np.empty((n_var, n_mc)),
                "lo_grant": np.empty((n_var, n_mc)),
                "util": np.empty((n_var, n_mc)),
                "lat": np.empty((n_var, n_mc)),
                "hi_lat": np.empty((n_var, n_mc)),
                "sat": np.empty((n_var, n_mc)),
            }
            with np.errstate(divide="ignore", invalid="ignore"):
                for j, mc_id in enumerate(mc_ids):
                    spec = self._mc_models[mc_id].spec
                    peak = spec.peak_bw_gbps

                    def curve(util: np.ndarray) -> np.ndarray:
                        u = np.clip(util, 0.0, 0.999)
                        factor = 1.0 + spec.latency_curve_a * (
                            u ** spec.latency_curve_b
                        ) / (1.0 - u)
                        return np.minimum(factor, spec.latency_factor_cap)

                    def distress(ratio: np.ndarray) -> np.ndarray:
                        return np.clip(
                            (ratio - spec.distress_start) / spec.distress_span,
                            0.0,
                            1.0,
                        )

                    hi_d = demand_hi[:, j]
                    lo_d = demand_lo[:, j]
                    total = hi_d + lo_d
                    if self.priority_mode:
                        hi_del = np.minimum(hi_d, peak)
                        hi_grant = np.where(
                            hi_d <= peak, 1.0, peak / np.maximum(hi_d, 1e-300)
                        )
                        residual = peak - hi_del
                        lo_del = np.minimum(lo_d, residual)
                        lo_grant = np.where(
                            lo_d <= residual,
                            1.0,
                            lo_del / np.maximum(lo_d, 1e-300),
                        )
                        delivered = hi_del + lo_del
                        grant = np.where(
                            total > 0, delivered / np.maximum(total, 1e-300), 1.0
                        )
                        sat = distress(delivered / peak)
                        hi_eff = np.minimum(
                            0.999, (hi_del + 0.15 * lo_del) / peak
                        )
                        hi_lat = curve(hi_eff)
                    else:
                        delivered = np.minimum(total, peak)
                        grant = np.where(
                            total <= peak, 1.0, peak / np.maximum(total, 1e-300)
                        )
                        hi_grant = lo_grant = grant
                        sat = distress(total / peak)
                        hi_lat = None
                    util = delivered / peak
                    lat = curve(util)
                    out["delivered"][:, j] = delivered
                    out["grant"][:, j] = grant
                    out["hi_grant"][:, j] = hi_grant
                    out["lo_grant"][:, j] = lo_grant
                    out["util"][:, j] = util
                    out["lat"][:, j] = lat
                    out["hi_lat"][:, j] = lat if hi_lat is None else hi_lat
                    out["sat"][:, j] = sat

                demand = base_demand * pf_demand * miss_inflation
                demand = demand * cpu_share * caps_bs
                upi_demand = demand @ upi_weights  # [n_var, n_pair]
                upi_peak = self.spec.upi.peak_bw_gbps
                upi_delivered = np.minimum(upi_demand, upi_peak)
                out["upi_demand"] = upi_demand
                out["upi_util"] = upi_delivered / upi_peak
                out["upi_grant"] = np.where(
                    upi_demand <= upi_peak,
                    1.0,
                    upi_peak / np.maximum(upi_demand, 1e-300),
                )
                u = np.clip(out["upi_util"], 0.0, 0.999)
                out["upi_rlat"] = np.minimum(
                    1.25 + 0.6 * (u ** 2) / (1.0 - u), 8.0
                )

            sat_socket = np.zeros((n_var, topo.num_sockets))
            for sk in sockets:
                cols = socket_mc_cols[sk]
                if cols:
                    sat_socket[:, sk] = np.clip(
                        out["sat"][:, cols].max(axis=1), 0.0, 1.0
                    )
            out["sat_socket"] = sat_socket
            out["throttle"] = 1.0 - strength[np.newaxis, :] * sat_socket
            return out

        state = resolve_pass(pf_demand)
        rounds = n_var
        if self.qos_aware_prefetch:
            triggered = state["sat_socket"].max(axis=1) > 0.0
            if triggered.any():
                rounds += int(triggered.sum())
                home_sat = state["sat_socket"][
                    :, [source_socket[s.source_id] for s in sources]
                ]
                effective = fraction * (1.0 - home_sat)
                qos_rows = triggered[:, np.newaxis] & (lo_mask > 0)[np.newaxis, :]
                new_fraction = np.where(qos_rows, effective, fraction)
                pf_demand, pf_speed = pf_factors(new_fraction)
                state = resolve_pass(pf_demand)
        self.stats.fixed_point_rounds += rounds
        GLOBAL_STATS.fixed_point_rounds += rounds

        # Home-socket latency injection from inbound coherence traffic.
        injection = np.zeros((n_var, topo.num_sockets))
        for (_, target), p in pair_index.items():
            u = np.clip(state["upi_util"][:, p], 0.0, 1.0)
            injection[:, target] += (
                self.spec.upi.latency_injection
                * self.spec.remote_sensitivity
                * (u ** 1.5)
            )

        # ------------------------------------------------- rate assembly
        grant_bs = np.zeros((n_var, n_src))
        latency_bs = np.zeros((n_var, n_src))
        for si, source in enumerate(sources):
            home = source_socket[source.source_id]
            grants = (
                state["hi_grant"]
                if source.priority == Priority.HIGH
                else state["lo_grant"]
            )
            mc_lat = (
                state["hi_lat"]
                if source.priority == Priority.HIGH
                else state["lat"]
            )
            for subdomain, weight in source.mem_weights.items():
                j = mc_index[subdomain]
                target = topo.socket_of_subdomain(subdomain)
                slice_grant = grants[:, j].copy()
                slice_latency = mc_lat[:, j] * self._routing_latency_adjust(
                    source, subdomain
                )
                if self.snc_enabled:
                    for sibling in topo.sibling_subdomains(subdomain):
                        slice_latency = slice_latency + (
                            self.spec.mesh_coupling
                            * state["util"][:, mc_index[sibling]] ** 3
                        )
                slice_latency = slice_latency + injection[:, target]
                if target != home:
                    p = pair_of_slice.get((si, j))
                    if p is not None:
                        slice_grant *= state["upi_grant"][:, p]
                        slice_latency = slice_latency * state["upi_rlat"][:, p]
                grant_bs[:, si] += weight * slice_grant
                latency_bs[:, si] += weight * slice_latency

        grant_bs = np.clip(grant_bs, 1e-9, 1.0)
        latency_bs = np.maximum(latency_bs, 0.5)
        llc_speed = {
            s.source_id: clamp(
                1.0
                - s.llc_speed_sensitivity * (1.0 - llc_hit[s.source_id]),
                0.05,
                1.0,
            )
            for s in sources
        }

        # ------------------------------------------- per-variant re-assembly
        results: list[SolveResult] = []
        for b in range(n_var):
            mc_loads = {
                mc_id: McLoad(
                    demand_gbps=float(state["demand"][b, j]),
                    delivered_gbps=float(state["delivered"][b, j]),
                    grant_ratio=float(state["grant"][b, j]),
                    utilization=float(state["util"][b, j]),
                    latency_factor=float(state["lat"][b, j]),
                    saturation=float(state["sat"][b, j]),
                    hi_latency_factor=float(state["hi_lat"][b, j]),
                )
                for j, mc_id in enumerate(mc_ids)
            }
            pressures = {
                sk: SocketPressure(
                    saturation=float(state["sat_socket"][b, sk]),
                    core_throttle=float(state["throttle"][b, sk]),
                )
                for sk in sockets
            }
            upi_loads = {
                pair: UpiLoad(
                    demand_gbps=float(state["upi_demand"][b, p]),
                    utilization=float(state["upi_util"][b, p]),
                    grant_ratio=float(state["upi_grant"][b, p]),
                    remote_latency_factor=float(state["upi_rlat"][b, p]),
                )
                for pair, p in pair_index.items()
            }
            source_rates = {}
            for si, source in enumerate(sources):
                cap = float(caps_bs[b, si])
                source_rates[source.source_id] = SourceRates(
                    bw_grant=float(grant_bs[b, si]),
                    latency_factor=float(latency_bs[b, si]),
                    core_throttle=float(
                        state["throttle"][b, source_socket[source.source_id]]
                    ),
                    prefetch_speed=float(pf_speed[b, si]),
                    llc_hit=llc_hit[source.source_id],
                    llc_speed=llc_speed[source.source_id],
                    smt_factor=smt[source.source_id],
                    cpu_share=float(cpu_share[si]),
                    mba_core_factor=0.45 + 0.55 * cap,
                    mba_issue=cap,
                )
            results.append(
                SolveResult(
                    mc_loads=mc_loads,
                    socket_pressures=pressures,
                    upi_loads=upi_loads,
                    source_rates=source_rates,
                )
            )
        return results
