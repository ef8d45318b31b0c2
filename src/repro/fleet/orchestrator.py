"""The fleet orchestrator: many Kelp nodes under one simulator clock.

One :class:`FleetOrchestrator` run assembles ``nodes`` independent machines
(each with its own isolation policy and inference server) inside a single
:class:`~repro.sim.Simulator`, drives multi-tenant open-loop arrivals
through the admission router, manages the best-effort batch queue on the
fleet control interval, and reports per-tenant SLO outcomes plus
fleet-level statistics.

Everything is deterministic in ``FleetConfig.seed``: tenant arrival
processes, the random router and per-node workload noise each draw from
dedicated ``SeedSequence`` streams, so the same config produces the same
summary bit-for-bit regardless of process parallelism around it.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro.errors import ConfigurationError, ExperimentError
from repro.fleet.batch import BatchQueue
from repro.fleet.config import FleetConfig, TenantSpec
from repro.fleet.index import make_routing_index
from repro.fleet.member import FleetMember, NodeSignals
from repro.fleet.routing import Router, make_router
from repro.fleet.slo import (
    TenantAccount,
    TenantSlo,
    WindowAccount,
    bucket_window_completions,
    finalize_tenant,
    fleet_efficiency,
)
from repro.metrics.percentile import StreamingPercentiles
from repro.sim import Simulator
from repro.sim.engine import PRIORITY_OBSERVE
from repro.workloads.loadgen import OpenLoopGenerator, TraceReplayGenerator
from repro.workloads.ml.catalog import ml_workload

if TYPE_CHECKING:
    from repro.traces.schema import Trace

#: Stream tags keeping the fleet's RNG consumers independent.
_STREAM_ROUTER = 0xF1EE
_STREAM_TENANT = 0xA171
_STREAM_NODE = 0x50DE


def _derive_seed(*parts: int) -> int:
    """A stable 32-bit seed from a tuple of integer parts."""
    return int(np.random.SeedSequence(parts).generate_state(1)[0])


@dataclass(frozen=True)
class NodeStats:
    """Per-node outcome of one fleet run (validation + diagnostics)."""

    index: int
    #: Post-warmup completions served by this node.
    completed: int
    #: Mean post-warmup request latency on this node (None if it served none).
    mean_latency_s: float | None
    #: Fraction of post-warmup control samples with the node saturated.
    saturated_fraction: float
    #: Batch jobs resident at the end of the run.
    batch_jobs: int


@dataclass(frozen=True)
class FleetResult:
    """Everything one fleet run measured."""

    config: FleetConfig
    tenants: tuple[TenantSlo, ...]
    #: Mean over post-warmup samples of (saturated nodes / nodes) — the
    #: cluster-scope Fig 2 statistic.
    fraction_saturated: float
    #: SLO-good completions / offered requests, all tenants pooled.
    serving_yield: float
    #: Delivered batch units / nominal full-speed units (1.0 = no batch tier
    #: slowdown and no queueing delay); 0.0 when no jobs were submitted.
    batch_yield: float
    #: Combined useful-work fraction (see :func:`repro.fleet.slo.fleet_efficiency`).
    efficiency: float
    offered_total: int
    completed_total: int
    good_total: int
    batch_placements: int
    batch_evictions: int
    batch_pending_at_end: int
    node_stats: tuple[NodeStats, ...]
    events_dispatched: int
    #: Requests dropped at admission or by a node death (each one is an
    #: offered request that never completed, i.e. an SLO miss). Zero for
    #: any run without member failures.
    requests_dropped: int = 0
    #: Batch jobs pulled back to the queue by death/quarantine drains.
    batch_requeues: int = 0
    #: Control-interval telemetry rows (one per node per interval).
    telemetry: tuple[dict, ...] = ()
    #: Per-node controller tick rows (``{"node": i, **record.as_dict()}``),
    #: empty for unmanaged policies or when telemetry collection is off.
    controller: tuple[dict, ...] = ()
    #: Per-node actuation journal rows (``{"node": i, **record.as_dict()}``).
    actuation: tuple[dict, ...] = ()
    #: Per-(window, tenant) SLO rows, empty unless ``config.window_s`` is set.
    windows: tuple[dict, ...] = ()
    #: Per-window fleet rows (pooled yield + saturation), ditto.
    window_fleet: tuple[dict, ...] = ()
    #: Member control ticks that ran, and that parked members skipped.
    #: Their sum is the tick count of an eager run; neither enters
    #: :meth:`summary`, so parking never changes a compared artifact.
    ticks_run: int = 0
    ticks_elided: int = 0

    def summary(self) -> dict:
        """A JSON-clean summary — the artifact determinism tests compare."""
        data = {
            "nodes": self.config.nodes,
            "policy": self.config.policy,
            "routing": self.config.routing,
            "ml": self.config.ml,
            "seed": self.config.seed,
            "duration": self.config.duration,
            "tenants": [t.as_dict() for t in self.tenants],
            "fraction_saturated": round(self.fraction_saturated, 9),
            "serving_yield": round(self.serving_yield, 9),
            "batch_yield": round(self.batch_yield, 9),
            "efficiency": round(self.efficiency, 9),
            "offered": self.offered_total,
            "completed": self.completed_total,
            "slo_good": self.good_total,
            "batch_placements": self.batch_placements,
            "batch_evictions": self.batch_evictions,
            "batch_pending_at_end": self.batch_pending_at_end,
        }
        # Windowed rows appear only for trace/windowed runs, and the
        # failure counters only for runs that actually saw failures, so
        # summaries of the pre-existing fleet experiments stay bit-identical.
        if self.windows:
            data["windows"] = list(self.windows)
        if self.window_fleet:
            data["window_fleet"] = list(self.window_fleet)
        if self.requests_dropped:
            data["requests_dropped"] = self.requests_dropped
        if self.batch_requeues:
            data["batch_requeues"] = self.batch_requeues
        return data


class FleetOrchestrator:
    """Builds and runs one fleet simulation from a :class:`FleetConfig`."""

    def __init__(
        self,
        config: FleetConfig,
        collect_telemetry: bool = True,
        trace: "Trace | None" = None,
        hooks: "FleetHooks | None" = None,
    ) -> None:
        self.config = config
        self._collect_telemetry = collect_telemetry
        self._trace = trace
        self.hooks = hooks
        self._trace_demands: np.ndarray | None = None
        if trace is not None:
            if len(config.tenants) != len(trace.tenants):
                raise ConfigurationError(
                    f"config declares {len(config.tenants)} tenants but the "
                    f"trace has {len(trace.tenants)}; build the config with "
                    "fleet_config_for_trace()"
                )
            self._trace_demands = trace.demands
        #: Raises WorkloadError for non-inference workloads up front.
        self._factory = ml_workload(config.ml)
        self._capacity = self._factory.standalone_capacity()
        self.members: list[FleetMember] = []
        self.router: Router | None = None
        self._accounts = [TenantAccount(spec=t) for t in config.tenants]
        self._node_completed: list[int] = []
        self._node_latency: list[StreamingPercentiles] = []
        self._node_saturated: list[int] = []
        self._saturation_samples: list[float] = []
        self._post_warmup_samples = 0
        #: Lazy telemetry: raw per-tick NodeSignals, frozen to JSON-clean
        #: dict rows only at finalize (at 256 nodes over a day this is
        #: millions of rows — building the dicts per tick was the hidden
        #: cost of every replay, hooks or not).
        #: A parked member's skipped sample is stored as the member itself
        #: and resolved from its signal log at finalize.
        self._telemetry_signals: list[NodeSignals | FleetMember] = []
        #: (window index, tenant index) -> admission-bucketed SLO counters.
        self._windows: dict[tuple[int, int], WindowAccount] = {}
        #: Deferred completion-side window bucketing: parallel buffers of
        #: (admission time, tenant, latency), vectorized at finalize.
        self._completion_starts: list[float] = []
        self._completion_tenants: list[int] = []
        self._completion_latencies: list[float] = []
        #: Trace mode only: counted arrival timestamps (sorted) for O(log n)
        #: live offered counters; per-tenant/per-window offered totals are
        #: a pure function of the trace, precomputed in :meth:`run`.
        self._counted_arrivals: np.ndarray | None = None
        self._offered_by_tenant: np.ndarray | None = None
        self._offered_by_window: dict[tuple[int, int], int] | None = None
        #: The exact router instance the incremental index was built for;
        #: admission falls back to the reference scan whenever
        #: ``self.router`` is anything else (e.g. an incident wrapper).
        self._indexed_router: Router | None = None
        self._routing_index = None
        #: window index -> [saturated samples, total samples] from ticks.
        self._window_saturation: dict[int, list[int]] = {}
        self._sim: Simulator | None = None
        self._queue: BatchQueue | None = None
        #: Offered-but-lost requests (dead members, empty rotation).
        self.requests_dropped = 0
        #: Live generators between :meth:`setup` and :meth:`finish`.
        self._generators: list = []
        #: Tenant indices currently refused service (requests stay offered
        #: but are black-holed — an SLO miss). Managed by the serving
        #: control plane; empty for plain batch runs.
        self.evicted_tenants: set[int] = set()
        #: Member indices scaled back out of the fleet by the control
        #: plane. Retired members stay in :attr:`members` so per-node
        #: accounting stays index-aligned, but are skipped by the control
        #: tick. Empty for plain batch runs.
        self._retired: set[int] = set()

    # ------------------------------------------------------------------ run
    def run(self) -> FleetResult:
        """Execute the configured fleet run and return its measurements."""
        self.setup()
        self.advance(self.config.duration)
        return self.finish()

    def setup(self) -> None:
        """Assemble the fleet and start every process at t=0.

        After ``setup`` the run is live: :meth:`advance` steps the clock
        (any number of times — epoch stepping is bit-identical to one
        :meth:`~repro.sim.Simulator.run_until` call) and :meth:`finish`
        closes the books. :meth:`run` is exactly
        ``setup(); advance(duration); finish()``.
        """
        config = self.config
        sim = Simulator()
        self._sim = sim
        self.members = [self._build_member(i) for i in range(config.nodes)]
        self._node_completed = [0] * config.nodes
        self._node_latency = [StreamingPercentiles() for _ in range(config.nodes)]
        self._node_saturated = [0] * config.nodes

        self.router = make_router(
            config.routing,
            rng=np.random.default_rng(
                np.random.SeedSequence((config.seed, _STREAM_ROUTER))
            ),
        )
        self._rebuild_routing_index()
        if self._trace is not None:
            self._precompute_trace_offered()
        if self._trace is not None:
            # Trace-driven: one replay generator replaces the per-tenant
            # open-loop processes; tenant/demand come from the trace columns.
            generators: list = [
                TraceReplayGenerator(
                    sim=sim,
                    arrivals_s=self._trace.arrivals_s,
                    submit=self._admit_trace,
                )
            ]
        else:
            generators = [
                OpenLoopGenerator(
                    sim=sim,
                    rate_qps=tenant.load_fraction * self._capacity * config.nodes,
                    submit=partial(self._admit, index),
                    rng=np.random.default_rng(
                        np.random.SeedSequence((config.seed, _STREAM_TENANT, index))
                    ),
                    deterministic=tenant.deterministic,
                )
                for index, tenant in enumerate(config.tenants)
            ]
        self._generators = generators
        queue = BatchQueue(
            config.batch_jobs,
            max_jobs_per_node=config.max_jobs_per_node,
            eviction=config.batch_eviction,
            patience=config.eviction_patience,
            warmup=config.warmup,
        )
        self._queue = queue

        for member in self.members:
            member.start()
        # t=0 batch placement: telemetry is empty, so the queue bin-packs on
        # slot counts alone; later ticks re-balance on live signals.
        queue.tick(self.members)
        for generator in generators:
            generator.start()
        if self.hooks is not None:
            self.hooks.on_start(self, sim)
        sim.every(
            config.interval,
            partial(self._control_tick, queue),
            label="fleet:control",
            priority=PRIORITY_OBSERVE,
        )

    def _build_member(self, index: int) -> FleetMember:
        """Member ``index``, seeded as in a ``config.nodes > index`` run."""
        config = self.config
        assert self._sim is not None
        member = FleetMember(
            index=index,
            sim=self._sim,
            factory=self._factory,
            policy_name=config.policy,
            interval=config.interval,
            warmup=config.warmup,
            seed=_derive_seed(config.seed, _STREAM_NODE, index),
            on_complete=self._on_complete,
            sensors=config.sensors,
            faults=config.faults,
        )
        if self._collect_telemetry:
            member.signal_log = deque()
        return member

    def advance(self, until: float) -> None:
        """Run the live fleet's clock forward to ``until`` (absolute)."""
        assert self._sim is not None, "setup() first"
        self._sim.run_until(until)

    def finish(self) -> FleetResult:
        """Stop the processes and aggregate the result."""
        assert self._sim is not None and self._queue is not None
        queue = self._queue
        for generator in self._generators:
            generator.stop()
        events = self._sim.dispatched_events
        batch_units, batch_nominal = self._batch_units(queue)
        result = self._finalize(queue, events, batch_units, batch_nominal)
        for member in self.members:
            member.stop()
        return result

    def _precompute_trace_offered(self) -> None:
        """Freeze trace-mode offered accounting ahead of the replay.

        In trace mode the offered side of the SLO accounting is a pure
        function of the trace and the config — every arrival increments its
        tenant (and window bucket) no matter how it routes or whether it is
        dropped. Precomputing it here removes all per-arrival accounting
        from the replay hot loop; live ``counters()`` reads become a binary
        search over the counted arrival times.

        Bit-identity: the replay generator chains relative ``after()``
        events, so an arrival's simulated firing time is the float chain
        ``e_i = e_{i-1} + max(0, a_i - e_{i-1})`` — not necessarily the raw
        trace timestamp to the last ulp. The admission path keys ``counted``
        and the window bucket off that firing time, so the precomputation
        replays the exact chain (one pass of Python float arithmetic) rather
        than using ``arrivals_s`` directly.
        """
        assert self._trace is not None
        config = self.config
        warmup = config.warmup
        duration = config.duration
        window_s = config.window_s
        tenant_ids = self._trace.tenant_ids
        counted_times: list[float] = []
        counted_tenants: list[int] = []
        prev = 0.0
        for a, tenant in zip(
            self._trace.arrivals_s.tolist(), tenant_ids.tolist()
        ):
            delay = a - prev
            if delay > 0.0:
                prev = prev + delay
            if prev > duration:
                break  # chained events beyond the horizon never fire
            if prev >= warmup:
                counted_times.append(prev)
                counted_tenants.append(tenant)
        self._counted_arrivals = np.asarray(counted_times, dtype=np.float64)
        self._offered_by_tenant = np.bincount(
            np.asarray(counted_tenants, dtype=np.int64),
            minlength=len(config.tenants),
        )
        if window_s is not None:
            offered_by_window: dict[tuple[int, int], int] = {}
            for fire_time, tenant in zip(counted_times, counted_tenants):
                key = (int(fire_time // window_s), tenant)
                offered_by_window[key] = offered_by_window.get(key, 0) + 1
            self._offered_by_window = offered_by_window

    # ------------------------------------------------------------ admission
    def _admit(self, tenant: int) -> None:
        self._route_and_submit(tenant, demand=1.0)

    def _admit_trace(self, index: int) -> None:
        assert self._trace is not None and self._trace_demands is not None
        self._route_and_submit(
            int(self._trace.tenant_ids[index]),
            demand=float(self._trace_demands[index]),
        )

    def _route_and_submit(self, tenant: int, demand: float) -> None:
        """Route one request and decide its admission epoch — once.

        ``counted`` (admitted inside the measurement window) is decided here
        and travels with the request, so completion-side accounting can
        never disagree with admission-side accounting and attainment stays
        ≤ 1.0 by construction.

        Routing only considers members still in rotation; a request that
        finds no eligible member (or that the router null-routes) is
        dropped *after* its admission accounting — an offered request that
        never completes, i.e. an SLO miss.
        """
        assert self.router is not None and self._sim is not None
        if (
            self._routing_index is not None
            and self.router is self._indexed_router
        ):
            # Incremental index: choice-identical to the scan below (see
            # repro.fleet.index). Any router swap — e.g. the incident
            # engine's null-route wrapper — drops to the reference path.
            member = self._routing_index.choose()
        else:
            eligible = [m for m in self.members if m.in_rotation]
            member = self.router.choose(eligible) if eligible else None
        now = self._sim.now
        counted = now >= self.config.warmup
        if counted and self._counted_arrivals is None:
            # Live offered accounting; trace replays precompute it (the
            # offered side is a pure function of the trace), so the hot
            # loop skips it entirely there.
            self._accounts[tenant].offered += 1
            if self.config.window_s is not None:
                key = (int(now // self.config.window_s), tenant)
                account = self._windows.get(key)
                if account is None:
                    account = self._windows[key] = WindowAccount()
                account.offered += 1
        if tenant in self.evicted_tenants:
            # Evicted *after* the offered accounting: the traffic keeps
            # arriving (trace-mode offered totals are precomputed from the
            # trace and must not shift), the fleet just refuses to serve it.
            self.requests_dropped += 1
            return
        if member is None or not member.alive:
            # Null-routed, no eligible member, or a silently dead member:
            # the request is black-holed.
            self.requests_dropped += 1
            return
        member.submit(tenant, demand=demand, counted=counted)

    def _on_complete(
        self,
        member: FleetMember,
        tenant: int,
        counted: bool,
        start: float,
        end: float,
    ) -> None:
        if not counted:
            return
        latency = end - start
        self._accounts[tenant].record(latency)
        self._node_completed[member.index] += 1
        self._node_latency[member.index].add(latency)
        if self.config.window_s is not None:
            # ``start`` is the admission timestamp, so finalize buckets this
            # completion into the window _route_and_submit offered it to.
            # Three parallel appends beat a dict lookup + method call here;
            # bucket_window_completions replays them in this exact order.
            self._completion_starts.append(start)
            self._completion_tenants.append(tenant)
            self._completion_latencies.append(latency)

    # --------------------------------------------------------- control loop
    def _control_tick(self, queue: BatchQueue) -> None:
        assert self._sim is not None
        # The wall clock, not a member's sample time: a dead or blacked-out
        # member exports a frozen (stale) snapshot.
        now = self._sim.now
        post_warmup = now > self.config.warmup
        saturated = 0
        members = self.members
        if self._retired:
            # Scaled-out members are invisible to fleet-level accounting;
            # the filter is built only when the control plane retired
            # someone, so plain runs take the untouched fast path.
            members = [m for m in members if m.index not in self._retired]
        collect = self._collect_telemetry
        for member in members:
            if member.skip_sample():
                # Parked: the skipped sample is neither saturated nor hot.
                if collect:
                    self._telemetry_signals.append(member)
                continue
            signals = member.sample()
            if post_warmup:
                if signals.saturated:
                    saturated += 1
                    self._node_saturated[member.index] += 1
            if collect:
                # Store the frozen signals object; the JSON-clean dict row
                # is built once at finalize (see _telemetry_rows).
                self._telemetry_signals.append(signals)
        if post_warmup:
            self._saturation_samples.append(saturated / len(members))
            self._post_warmup_samples += 1
            if self.config.window_s is not None:
                # The tick at exactly t=duration belongs to the last window:
                # windows are [k*w, (k+1)*w) with duration as the closing
                # boundary, not the start of an empty extra window.
                last = max(
                    0,
                    math.ceil(self.config.duration / self.config.window_s) - 1,
                )
                bucket = self._window_saturation.setdefault(
                    min(int(now // self.config.window_s), last), [0, 0]
                )
                bucket[0] += saturated
                bucket[1] += len(members)
        if self.hooks is not None:
            # Detection/remediation runs on this tick's fresh samples,
            # *before* the batch queue acts — a drain this tick re-places
            # its jobs this same tick.
            self.hooks.on_tick(self, now)
        # Dead members are excluded too: placement is a synchronous RPC
        # that fails fast against a crashed node (unlike the datapath,
        # which black-holes silently).
        queue.tick([m for m in members if m.alive and m.accepts_batch])

    # ----------------------------------------------------------- lifecycle
    def kill_member(self, index: int, requeue: bool = True) -> int:
        """Take a member down *cleanly*: fail it, pull it from rotation,
        and (by default) requeue its batch work on healthy nodes.

        This is the orchestrator-aware death path — the routing table is
        updated immediately, so only the requests already on the node are
        lost (each counted one is an SLO miss). Contrast with calling
        ``member.fail()`` directly, which models a *silent* crash the
        routing layer keeps black-holing traffic into until someone
        notices. Returns the number of counted in-flight requests dropped.
        """
        member = self.members[index]
        dropped = member.fail()
        self.requests_dropped += dropped
        member.in_rotation = False
        member.accepts_batch = False
        if requeue and self._queue is not None:
            self._queue.requeue_node(member)
        return dropped

    def quarantine_member(self, index: int, requeue: bool = True) -> int:
        """Stop routing traffic and batch work to a member (it may still
        be running — quarantine is reversible). Returns jobs requeued."""
        member = self.members[index]
        member.in_rotation = False
        member.accepts_batch = False
        if requeue and self._queue is not None:
            return self._queue.requeue_node(member)
        return 0

    def restore_member(self, index: int) -> None:
        """Return a (restarted or recovered) member to full rotation."""
        member = self.members[index]
        member.in_rotation = True
        member.accepts_batch = True

    # -------------------------------------------------- live membership
    @property
    def active_members(self) -> int:
        """Members currently in the fleet (built minus retired)."""
        return len(self.members) - len(self._retired)

    def add_member(self) -> int:
        """Grow the live fleet by one node; returns its index.

        If a previously retired member exists it is recommissioned (its
        instance, seed stream, and accounting slots are reused — scale
        up/down cycles don't leak nodes). Otherwise a fresh member is built
        with the same seed derivation a ``config.nodes = n+1`` run would
        give node ``n``, started, and indexed for routing.
        """
        assert self._sim is not None, "setup() first"
        if self._retired:
            index = min(self._retired)
            self._retired.discard(index)
            self.restore_member(index)
            self._rebuild_routing_index()
            return index
        index = len(self.members)
        member = self._build_member(index)
        self.members.append(member)
        self._node_completed.append(0)
        self._node_latency.append(StreamingPercentiles())
        self._node_saturated.append(0)
        member.start()
        self._rebuild_routing_index()
        return index

    def retire_member(self, index: int) -> int:
        """Scale one member out of the live fleet; returns jobs requeued.

        The node leaves rotation, its batch work is requeued, and the
        control tick stops sampling it — but the instance stays in
        :attr:`members` (accounting arrays are index-aligned) and can be
        recommissioned by :meth:`add_member`. In-flight requests it holds
        still complete: retirement is a drain, not a kill.
        """
        if index in self._retired:
            return 0
        requeued = self.quarantine_member(index)
        self._retired.add(index)
        self._rebuild_routing_index()
        return requeued

    def swap_router(self, routing: str, *, seed: int) -> None:
        """Replace the admission routing policy on the live fleet.

        The new router draws from a fresh ``(config.seed, router stream,
        seed)`` RNG — deterministic in the swap's position, independent of
        how much the old router consumed.
        """
        self.router = make_router(
            routing,
            rng=np.random.default_rng(
                np.random.SeedSequence(
                    (self.config.seed, _STREAM_ROUTER, seed)
                )
            ),
        )
        self._rebuild_routing_index()

    # ------------------------------------------------------ checkpointing
    def __getstate__(self) -> dict:
        """Pickle the live run *without* the trace-derived arrays.

        The trace columns and every precomputed view of them (demands,
        counted arrivals, offered totals) are pure functions of the trace
        and the config — a restore recomputes them bit-identically from the
        same trace via :meth:`reattach_trace`, keeping checkpoints at
        simulator-state size rather than trace size.
        """
        state = self.__dict__.copy()
        if self._trace is not None:
            state["_trace"] = None
            state["_trace_demands"] = None
            state["_counted_arrivals"] = None
            state["_offered_by_tenant"] = None
            state["_offered_by_window"] = None
        return state

    def reattach_trace(self, trace: "Trace") -> None:
        """Re-bind the trace after a checkpoint restore.

        Recomputes the precomputed offered accounting (the exact float
        chain of :meth:`_precompute_trace_offered`) and re-attaches the
        arrival schedule to the live replay generator.
        """
        if self._trace is not None:
            raise ConfigurationError("trace already attached")
        if len(self.config.tenants) != len(trace.tenants):
            raise ConfigurationError(
                "restored config and reattached trace disagree on tenants"
            )
        self._trace = trace
        self._trace_demands = trace.demands
        self._precompute_trace_offered()
        for generator in self._generators:
            if isinstance(generator, TraceReplayGenerator):
                generator.reattach_arrivals(trace.arrivals_s)

    def _rebuild_routing_index(self) -> None:
        """(Re)build the incremental routing index for the current fleet.

        Membership and router swaps invalidate the index wholesale (its
        version vector is sized at construction), so any structural change
        rebuilds from live state and re-hooks every member's state-change
        notifier. Members out of rotation push their state as usual; the
        index skips them at choose time.
        """
        self._routing_index = make_routing_index(self.router, self.members)
        if self._routing_index is not None:
            self._indexed_router = self.router
            for member in self.members:
                member.on_state_change = self._routing_index.on_member_event
        else:
            self._indexed_router = None
            for member in self.members:
                member.on_state_change = None

    def counters(self) -> tuple[int, int, int, tuple[int, ...]]:
        """Live ``(offered, completed, good, per-node completed)`` counted
        totals — the attainment stream the incident detectors watch."""
        if self._counted_arrivals is not None:
            # Trace mode defers per-arrival accounting; the live offered
            # count is a binary search over the precomputed counted arrival
            # times. Callers run at observe priority, after every arrival
            # at the current timestamp has fired, so "<= now" is exact.
            assert self._sim is not None
            offered = int(
                np.searchsorted(
                    self._counted_arrivals, self._sim.now, side="right"
                )
            )
        else:
            offered = sum(a.offered for a in self._accounts)
        completed = sum(a.completed for a in self._accounts)
        good = sum(a.good for a in self._accounts)
        return offered, completed, good, tuple(self._node_completed)

    @property
    def queue(self) -> BatchQueue | None:
        """The live batch queue (None outside :meth:`run`)."""
        return self._queue

    # ------------------------------------------------------------- finalize
    def _batch_units(self, queue: BatchQueue) -> tuple[float, float]:
        window = self.config.duration - self.config.warmup
        delivered = sum(
            member.batch_throughput(self.config.duration) for member in self.members
        ) * window
        nominal = queue.nominal_rate_total() * window
        return delivered, nominal

    def _finalize(
        self,
        queue: BatchQueue,
        events: int,
        batch_units: float,
        batch_nominal: float,
    ) -> FleetResult:
        config = self.config
        window = config.duration - config.warmup
        if window <= 0:  # pragma: no cover - guarded by FleetConfig
            raise ExperimentError("fleet window must be positive")
        if self._offered_by_tenant is not None:
            # Trace mode: install the precomputed offered totals the replay
            # loop skipped. Offered windows must exist before the deferred
            # completions are bucketed (completions only land in windows the
            # offered side created — same guard as the live path).
            for index, account in enumerate(self._accounts):
                account.offered = int(self._offered_by_tenant[index])
            if self._offered_by_window is not None:
                for key, count in self._offered_by_window.items():
                    self._windows[key] = WindowAccount(offered=count)
        if config.window_s is not None and self._completion_starts:
            bucket_window_completions(
                self._windows,
                self._completion_starts,
                self._completion_tenants,
                self._completion_latencies,
                config.window_s,
                [t.slo_p99_s for t in config.tenants],
            )
        tenants = tuple(
            finalize_tenant(account, window) for account in self._accounts
        )
        offered = sum(a.offered for a in self._accounts)
        completed = sum(a.completed for a in self._accounts)
        good = sum(a.good for a in self._accounts)
        serving_yield = good / offered if offered else 0.0
        batch_yield = batch_units / batch_nominal if batch_nominal > 0 else 0.0
        samples = self._saturation_samples
        node_stats = tuple(
            NodeStats(
                index=i,
                completed=self._node_completed[i],
                mean_latency_s=(
                    self._node_latency[i].mean()
                    if self._node_latency[i].count
                    else None
                ),
                saturated_fraction=(
                    self._node_saturated[i] / self._post_warmup_samples
                    if self._post_warmup_samples
                    else 0.0
                ),
                batch_jobs=self.members[i].job_count,
            )
            # Over the *actual* membership: the control plane may have grown
            # the fleet past config.nodes (equal for plain runs).
            for i in range(len(self.members))
        )
        window_rows, window_fleet_rows = self._window_rows()
        return FleetResult(
            config=config,
            tenants=tenants,
            fraction_saturated=sum(samples) / len(samples) if samples else 0.0,
            serving_yield=serving_yield,
            batch_yield=batch_yield,
            efficiency=fleet_efficiency(good, offered, batch_units, batch_nominal),
            offered_total=offered,
            completed_total=completed,
            good_total=good,
            batch_placements=queue.stats.placements,
            batch_evictions=queue.stats.evictions,
            batch_pending_at_end=queue.stats.pending_at_end,
            node_stats=node_stats,
            events_dispatched=events,
            requests_dropped=self.requests_dropped,
            batch_requeues=queue.stats.requeues,
            ticks_run=sum(m.ticks_run for m in self.members),
            ticks_elided=sum(m.ticks_elided for m in self.members),
            telemetry=self._telemetry_rows(),
            controller=self._controller_rows(),
            actuation=self._actuation_rows(),
            windows=window_rows,
            window_fleet=window_fleet_rows,
        )

    def _window_rows(self) -> tuple[tuple[dict, ...], tuple[dict, ...]]:
        """Freeze windowed accounting into JSON-clean time-of-day rows.

        Per-tenant rows carry each window's SLO attainment; fleet rows pool
        every tenant and add the window's saturated-node fraction. The
        per-window ``efficiency`` is the serving-tier yield — batch units
        have no per-window attribution (the meter integrates continuously),
        so for runs with a batch tier it understates the full figure;
        trace-driven runs default to no batch jobs, where it is exact.
        """
        window_s = self.config.window_s
        if window_s is None or not self._windows:
            return (), ()
        tenant_rows: list[dict] = []
        pooled: dict[int, WindowAccount] = {}
        for window, tenant in sorted(self._windows):
            account = self._windows[(window, tenant)]
            fleet = pooled.setdefault(window, WindowAccount())
            fleet.offered += account.offered
            fleet.completed += account.completed
            fleet.good += account.good
            fleet.latency_sum_s += account.latency_sum_s
            tenant_rows.append(
                {
                    "window": window,
                    "start_s": round(window * window_s, 6),
                    "tenant": self.config.tenants[tenant].name,
                    "offered": account.offered,
                    "completed": account.completed,
                    "good": account.good,
                    "attainment": round(account.attainment(), 6),
                    "mean_ms": (
                        round(
                            account.latency_sum_s / account.completed * 1e3, 3
                        )
                        if account.completed
                        else None
                    ),
                }
            )
        fleet_rows: list[dict] = []
        for window in sorted(set(pooled) | set(self._window_saturation)):
            account = pooled.get(window, WindowAccount())
            saturated, samples = self._window_saturation.get(window, (0, 0))
            fleet_rows.append(
                {
                    "window": window,
                    "start_s": round(window * window_s, 6),
                    "offered": account.offered,
                    "completed": account.completed,
                    "good": account.good,
                    "attainment": round(account.attainment(), 6),
                    "efficiency": round(account.attainment(), 6),
                    "fraction_saturated": (
                        round(saturated / samples, 6) if samples else 0.0
                    ),
                }
            )
        return tuple(tenant_rows), tuple(fleet_rows)

    def _telemetry_rows(self) -> tuple[dict, ...]:
        """Freeze the per-tick signal samples into JSON-clean dict rows.

        Same fields, same order, same row sequence as the dicts the control
        tick used to build inline — just 8.6k × nodes dict constructions
        moved out of the replay loop and into one finalize pass. Samples
        parked members skipped are replayed first and take their places.
        """
        if not self._collect_telemetry:
            return ()
        logs: dict[int, Iterator[NodeSignals]] = {}
        for member in self.members:
            member.wake()
        self._telemetry_signals = [
            entry
            if isinstance(entry, NodeSignals)
            else next(logs.setdefault(entry.index, iter(entry.signal_log)))
            for entry in self._telemetry_signals
        ]
        return tuple(
            {
                "time": signals.time,
                "node": signals.node_index,
                "socket_bw_gbps": signals.socket_bw_gbps,
                "latency_factor": signals.latency_factor,
                "saturation": signals.saturation,
                "hipri_bw_gbps": signals.hipri_bw_gbps,
                "inflight": signals.inflight,
                "queued": signals.queued,
                "batch_jobs": signals.batch_jobs,
                "saturated": signals.saturated,
                "hot": signals.hot,
            }
            for signals in self._telemetry_signals
        )

    def _controller_rows(self) -> tuple[dict, ...]:
        """Every member's unified control tick records, node-tagged."""
        if not self._collect_telemetry:
            return ()
        return tuple(
            {"node": member.index, **record.as_dict()}
            for member in self.members
            for record in member.controller_history()
        )

    def _actuation_rows(self) -> tuple[dict, ...]:
        """Every physical knob write performed fleet-wide, node-tagged."""
        if not self._collect_telemetry:
            return ()
        return tuple(
            {"node": member.index, **record.as_dict()}
            for member in self.members
            for record in member.actuation_journal()
        )


class FleetHooks:
    """Lifecycle hook points a fleet run offers to an observing layer.

    The incident engine subclasses this; the default implementations do
    nothing, so attaching a hooks object with no overrides leaves a run
    bit-identical to an unhooked one.
    """

    def on_start(self, orchestrator: FleetOrchestrator, sim: Simulator) -> None:
        """Called once, after members/generators start, before the clock runs."""

    def on_tick(self, orchestrator: FleetOrchestrator, now: float) -> None:
        """Called every control interval, after telemetry sampling and
        before the batch queue acts."""


def run_fleet(
    config: FleetConfig,
    collect_telemetry: bool = True,
    trace: "Trace | None" = None,
    hooks: FleetHooks | None = None,
) -> FleetResult:
    """Convenience wrapper: build and run one fleet simulation."""
    return FleetOrchestrator(
        config, collect_telemetry=collect_telemetry, trace=trace, hooks=hooks
    ).run()


def fleet_config_for_trace(trace: "Trace", **overrides) -> FleetConfig:
    """A :class:`FleetConfig` whose tenant table mirrors a trace's header.

    Tenant names and SLOs come from the trace (``slo_p99_ms`` → seconds);
    ``load_fraction`` is set to the tenant's normalized traffic weight for
    reporting only — in trace mode the arrival process is the trace itself.
    Defaults suited to day-long replays: duration covers the trace, the
    control interval scales with the horizon (10 s for a 24 h day), the
    accounting window splits the trace into 24 time-of-day buckets, and no
    batch tier. Any field can be overridden by keyword.
    """
    total_weight = sum(t.weight for t in trace.tenants)
    tenants = tuple(
        TenantSpec(
            name=t.name,
            load_fraction=t.weight / total_weight,
            slo_p99_s=t.slo_p99_ms / 1e3,
        )
        for t in trace.tenants
    )
    defaults: dict = {
        "nodes": 4,
        "policy": "KP",
        "routing": "least-loaded",
        "ml": "rnn1",
        "tenants": tenants,
        "batch_jobs": (),
        "duration": trace.duration_s,
        "warmup": min(2.0, trace.duration_s / 10.0),
        "interval": max(0.5, trace.duration_s / 8640.0),
        "window_s": trace.duration_s / 24.0,
    }
    defaults.update(overrides)
    return FleetConfig(**defaults)
