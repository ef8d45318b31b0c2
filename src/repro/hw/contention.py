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
solves are memoized on a canonical *solve signature* (see
:meth:`ContentionSolver.solve_signature`). The signature covers every input
the solve reads:

* the ordered, canonicalized active source set (all profile fields),
* per-source prefetcher-bank state (the enabled fraction over its cores),
* the solver knobs (``snc_enabled``, ``priority_mode``,
  ``qos_aware_prefetch``, the per-CLOS MBA caps), and
* the per-socket LLC CAT mask state.

Anything that can change a solve's outcome MUST be part of the signature —
adding a solver knob without extending the signature produces stale-cache
bugs (see docs/model.md §"Solve signature invariants").

There is one memo: a process-wide dict per :class:`MachineSpec`, keyed on
the signature and shared by every solver built from an equal spec. The
machine's recompute loop skips the solve entirely when the signature has
not changed (``Machine.notify_change``), and a solver's id-keyed signature
memo keeps the result each signature resolved to, so a repeat solve reads
it without hashing the signature again. Cache observability flows through
:class:`SolverStats` (per solver and the module-level aggregate), surfaced
via ``Machine.solver_stats`` and the experiment harness. Reference mode
(``REPRO_REFERENCE=1``, see :mod:`repro.reference`) disables the memo for
solvers built while it is set; the cached and uncached paths are
numerically identical, which the test suite asserts.
"""

from __future__ import annotations

import enum
import types
from dataclasses import astuple, dataclass, field, fields
from operator import attrgetter
from typing import Mapping

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

#: Entries a per-spec solve memo holds before it is cleared. The largest
#: benchmark working set is under 800 signatures.
_SOLVE_MEMO_SIZE = 4096


class Priority(enum.IntEnum):
    """Task priority classes (the paper's high-priority ML vs best-effort)."""

    LOW = 0
    HIGH = 1


@dataclass
class SolverStats:
    """Counters describing the solver's work and cache behaviour."""

    #: Total :meth:`ContentionSolver.solve` calls (including cached ones).
    solves: int = 0
    #: Solves answered from the solve memo.
    cache_hits: int = 0
    #: Solves that had to run the full fixed point.
    cache_misses: int = 0
    #: Machine-level re-solves skipped because the signature was unchanged.
    signature_short_circuits: int = 0
    #: Total fixed-point resolve passes executed across all full solves.
    fixed_point_rounds: int = 0
    #: Always 0; kept only because ``bench/workloads.py`` reads them.
    incremental_solves: int = 0
    shared_hits: int = 0
    batch_points: int = 0

    @property
    def hit_rate(self) -> float:
        """Memo hit rate over solves that consulted the cache, in [0, 1]."""
        consulted = self.cache_hits + self.cache_misses
        return self.cache_hits / consulted if consulted else 0.0

    def as_dict(self) -> dict[str, float]:
        """A plain-dict snapshot (for telemetry/JSON reporting)."""
        snapshot: dict[str, float] = {
            f.name: getattr(self, f.name) for f in fields(self)
        }
        snapshot["hit_rate"] = self.hit_rate
        return snapshot

    def reset(self) -> None:
        """Zero every counter."""
        for f in fields(self):
            setattr(self, f.name, 0)


#: Process-wide aggregate over every solver (fleet-level observability).
GLOBAL_STATS = SolverStats()

#: The process-wide solve memo: one dict per :class:`MachineSpec`, keyed on
#: the solve signature. Each solver binds its spec's dict when it is built,
#: so sweep points (which build a fresh ``Machine`` each time) and the
#: identical nodes of a fleet reuse each other's solves. The signature
#: covers every solve input and ``MachineSpec`` is deep-frozen, so an entry
#: is never served to a different hardware configuration. Process state,
#: not model state: checkpoints leave it out (see
#: :meth:`ContentionSolver.__getstate__`).
_SOLVE_MEMO: dict[MachineSpec, dict[tuple, "SolveResult"]] = {}

#: Moves whenever any per-spec memo is cleared. A solver's signature-memo
#: entry keeps the result its signature resolved to and the generation it
#: was resolved in, and serves it only while the generation stands: the
#: shared memo then still maps that signature to that very result.
_generation = 0

_VERSION = attrgetter("version")


def clear_shared_cache() -> None:
    """Empty the process-wide solve memo (benchmark/test hook).

    Clears each per-spec dict in place, so live solvers stay bound to it.
    """
    global _generation
    _generation += 1
    for memo in _SOLVE_MEMO.values():
        memo.clear()


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
            # A tuple of floats hashes in C; the frozen profile would not.
            astuple(self.prefetch),
            self.working_set_mb,
            self.llc_intensity,
            self.llc_miss_traffic_gain,
            self.llc_speed_sensitivity,
            self.smt_aggression,
            self.smt_sensitivity,
        )
        object.__setattr__(self, "_ckey", key)
        return key


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


class ContentionSolver:
    """Resolves traffic sources into rate factors for one machine."""

    def __init__(
        self,
        spec: MachineSpec,
        topology: Topology,
        prefetchers: PrefetcherBank,
        llcs: dict[int, LlcModel],
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
        #: Bumped whenever any solver knob changes; part of the signature
        #: memo's key. Knob attributes are properties (and MBA caps go
        #: through :meth:`set_mba_cap`) so every write is tracked.
        self._knob_version = 0
        #: Whole-signature memo for :meth:`solve_signature`, keyed by
        #: (source ids, bank version, knob version, LLC versions). Each
        #: entry is ``[sources, signature, result, generation]``: it pins
        #: the source objects (see solve_signature), and :meth:`solve`
        #: fills in the result once the signature resolves.
        self._sig_memo: dict[tuple, list] = {}
        #: The entry the last :meth:`solve_signature` call returned from.
        self._entry: list | None = None
        self._priority_mode = False
        self._mba_caps: dict[int, float] = {}
        self._snc_enabled = False
        self._qos_aware_prefetch = False

        # ------------------------------------------------ performance layer
        #: Master switch for the solve memo. When off, every solve
        #: recomputes from scratch (the reference path).
        self.cache_enabled = not reference_mode()
        self.stats = SolverStats()
        self._memo = _SOLVE_MEMO.setdefault(spec, {})
        #: LLC membership is fixed at construction; keep the iteration order
        #: pre-sorted so the per-solve signature build avoids a sort.
        self._llc_sorted = sorted(llcs.items())
        self._llc_models = tuple(llc for _, llc in self._llc_sorted)
        self._empty_result: SolveResult | None = None

    def __getstate__(self) -> dict:
        """Pickle the model, not the process: the memo is left out and
        ``_sig_memo`` is emptied, because its ``id()`` keys would name
        different objects once unpickled."""
        state = self.__dict__.copy()
        del state["_memo"]
        state["_sig_memo"] = {}
        state["_entry"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._memo = _SOLVE_MEMO.setdefault(self.spec, {})

    # -------------------------------------------------------------- knobs
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
    def mba_caps(self) -> Mapping[int, float]:
        """Per-CLOS offered-demand caps (the resctrl MBA actuator), 0..1.

        A read-only view; write through :meth:`set_mba_cap`.
        """
        return types.MappingProxyType(self._mba_caps)

    def set_mba_cap(self, clos: int, cap: float | None) -> None:
        """Cap ``clos``'s offered demand at ``cap`` (``None`` uncaps it)."""
        if self._mba_caps.get(clos) == cap:
            return
        if cap is None:
            del self._mba_caps[clos]
        else:
            self._mba_caps[clos] = cap
        self._knob_version += 1

    # ------------------------------------------------------------ caching
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
            tuple(map(_VERSION, self._llc_models)),
        )
        memo = self._sig_memo
        hit = memo.get(key)
        if hit is not None:
            self._entry = hit
            return hit[1]
        sig = (
            tuple(s.canonical_key() for s in sources),
            tuple(bank.enabled_fraction(s.cores) for s in sources),
            (
                self._snc_enabled,
                self._priority_mode,
                self._qos_aware_prefetch,
                tuple(sorted(self._mba_caps.items())),
            ),
            tuple(
                (socket_id, llc.state_key()) for socket_id, llc in self._llc_sorted
            ),
        )
        if len(memo) >= 128:
            memo.clear()
        self._entry = memo[key] = [list(sources), sig, None, -1]
        return sig

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
    def _llc_hit_fractions(
        self, by_socket: dict[int, list[TrafficSource]]
    ) -> dict[str, float]:
        """Per-source LLC hit fractions, resolved per socket."""
        llc_hit: dict[str, float] = {}
        for socket_id, socket_sources in by_socket.items():
            requests = [
                LlcRequest(
                    task_id=s.source_id,
                    working_set_mb=s.working_set_mb,
                    clos=s.clos,
                    intensity=s.llc_intensity,
                )
                for s in socket_sources
            ]
            llc_hit.update(self.llcs[socket_id].hit_fractions(requests))
        return llc_hit

    def _smt_factors(self, sources: list[TrafficSource]) -> dict[str, float]:
        """SMT sibling-pressure factors from core overlap."""
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
        return smt

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
        global _generation
        self.stats.solves += 1
        GLOBAL_STATS.solves += 1
        if not sources:
            if self._empty_result is None:
                self._empty_result = empty_solve_result(self.spec)
            return self._empty_result
        if not self.cache_enabled:
            return self._solve(sources)

        if signature is None:
            signature = self.solve_signature(sources)
        entry = self._entry
        if entry is None or entry[1] is not signature:
            entry = None
        elif entry[3] == _generation:
            # The result this signature resolved to, read without hashing
            # the signature again.
            self.stats.cache_hits += 1
            GLOBAL_STATS.cache_hits += 1
            return entry[2]
        memo = self._memo
        result = memo.get(signature)
        if result is not None:
            self.stats.cache_hits += 1
            GLOBAL_STATS.cache_hits += 1
        else:
            self.stats.cache_misses += 1
            GLOBAL_STATS.cache_misses += 1
            result = self._solve(sources)
            if len(memo) >= _SOLVE_MEMO_SIZE:
                memo.clear()
                _generation += 1
            memo[signature] = result
        if entry is not None:
            entry[2] = result
            entry[3] = _generation
        return result

    def _solve(self, sources: list[TrafficSource]) -> SolveResult:
        """The full fixed-point computation (reference path, cache-free)."""
        # Per-source factors that do not depend on the fixed point.
        # ``pf_demand``/``pf_speed`` are rewritten by the QoS-aware-prefetch
        # branch below.
        pf_demand: dict[str, float] = {}
        pf_speed: dict[str, float] = {}
        source_socket: dict[str, int] = {}
        by_socket: dict[int, list[TrafficSource]] = {}
        for source in sources:
            enabled = self.prefetchers.enabled_fraction(source.cores)
            pf_demand[source.source_id] = source.prefetch.demand_factor(enabled)
            pf_speed[source.source_id] = source.prefetch.speed_factor(enabled)
            socket_id = self._socket_of_source(source)
            source_socket[source.source_id] = socket_id
            by_socket.setdefault(socket_id, []).append(source)
        llc_hit = self._llc_hit_fractions(by_socket)
        smt = self._smt_factors(sources)
        caps = self._mba_caps

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
                enabled = self.prefetchers.enabled_fraction(source.cores)
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
