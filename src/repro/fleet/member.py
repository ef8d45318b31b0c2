"""One fleet node: machine + isolation policy + inference server + batch slots.

A :class:`FleetMember` owns everything node-local that the single-node
experiments build by hand — the :class:`~repro.node.Node`, the
per-node isolation policy (prepared and ticking on its own control loop),
and the pipelined inference server the fleet routes requests to. On top it
adds the two things only a fleet needs: request attribution (which tenant
owns which in-flight request) and dynamic batch-job slots the cluster queue
places into and evicts from.

A quiescent member *parks*: while nothing can change what its control
ticks and telemetry samples would read or decide, its policy loop leaves
the event heap and the fleet stops sampling it; the skipped reads are
kept as two grid runs and replayed exactly on demand. See
:meth:`FleetMember.wake` and the "Quiescent members" section of
``docs/performance.md``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.node import Node
from repro.control.actuators import ActuationFaultConfig
from repro.control.sensors import CONTROL_READER, SensorConfig
from repro.core.measurements import KelpMeasurements
from repro.core.policies import IsolationPolicy, make_policy
from repro.core.watermarks import QosProfile
from repro.errors import SchedulingError
from repro.fleet.config import SATURATED_BW_FRACTION, pressure_bucket
from repro.reference import reference_mode
from repro.sim import Event, Simulator
from repro.sim.engine import PRIORITY_CONTROL, PRIORITY_LAST, PeriodicTask
from repro.workloads.cpu.base import BatchProfile, BatchTask
from repro.workloads.ml.base import InferenceServerTask
from repro.workloads.ml.catalog import MlInstance, MlWorkloadFactory


#: The perf reader name of the fleet's telemetry sampler.
FLEET_READER = "fleet"

#: A park lasts at most this many control intervals; the rounding bounds the
#: parking predicate checks are computed for that horizon.
PARK_HORIZON_TICKS = 1024


def derive_seed(*parts: int) -> int:
    """A stable 32-bit seed from a tuple of integer parts."""
    return int(np.random.SeedSequence(parts).generate_state(1)[0])


def _grid_run(start: float, interval: float, last: float) -> list[float]:
    """The instants ``start, start + interval, ...`` up to ``last``.

    The same chained float addition a :class:`~repro.sim.engine.PeriodicTask`
    schedules with, so each instant is bit-equal to one its loop fires at.
    """
    run = []
    t = start
    while t <= last:
        run.append(t)
        t = t + interval
    return run


class SampleClock:
    """The grid of the fleet's telemetry samples, as its members see it.

    The fleet samples every member it manages at each control tick; the
    ticks fire on the chained grid ``last + interval`` (the members' own
    interval). A parked member keeps its skipped samples as a run over
    this grid.
    """

    __slots__ = ("last",)

    def __init__(self, last: float) -> None:
        #: The instant of the latest fleet control tick (set as it starts).
        self.last = last


class _Park:
    """What a parked member's skipped reads depend on, fixed at parking,
    and the two grid runs those reads fall on."""

    __slots__ = ("profile", "fields", "tick_from", "sample_from", "horizon")

    def __init__(
        self,
        profile: QosProfile,
        fields: tuple,
        tick_from: float,
        sample_from: float,
        horizon: Event,
    ) -> None:
        #: The member profile the sampler's hot predicate reads.
        self.profile = profile
        #: The record fields every skipped tick repeats (see ControlLoop.steady).
        self.fields = fields
        #: First skipped instant of the member's policy loop grid.
        self.tick_from = tick_from
        #: First skipped instant of the fleet's sample grid.
        self.sample_from = sample_from
        #: The event that ends the park at the last instant the parking
        #: predicate's rounding bound covers; None once it has fired.
        self.horizon: Event | None = horizon


@dataclass(frozen=True)
class NodeSignals:
    """One control-interval snapshot of a node, as the fleet sees it.

    The routing layer and the batch queue act on these signals only — they
    never reach into the node's machine directly, mirroring how a cluster
    scheduler consumes per-node telemetry exports rather than raw counters.
    """

    node_index: int
    time: float
    #: Accel-socket bandwidth over the window, GB/s.
    socket_bw_gbps: float
    #: Worst loaded-latency factor on the accel socket (1.0 = unloaded).
    latency_factor: float
    #: FAST_ASSERTED fraction on the accel socket, [0, 1].
    saturation: float
    #: High-priority-subdomain bandwidth, GB/s.
    hipri_bw_gbps: float
    #: Requests in flight + queued on the node's inference server.
    inflight: int
    queued: int
    #: Batch jobs currently resident on the node.
    batch_jobs: int
    #: The Fig 2 statistic: socket bandwidth above 70 % of peak.
    saturated: bool
    #: Hi-subdomain watermarks tripped (eviction signal for the queue).
    hot: bool

    def pressure(self) -> float:
        """Scalar interference pressure used by interference-aware routing.

        Saturation dominates; loaded latency above 1.0 adds a secondary
        term. Rounded so that float jitter cannot reorder near-ties and
        break run-to-run determinism.
        """
        return round(self.saturation + 0.5 * max(self.latency_factor - 1.0, 0.0), 9)


class FleetMember:
    """One managed node inside a fleet simulation."""

    def __init__(
        self,
        index: int,
        sim: Simulator,
        factory: MlWorkloadFactory,
        policy_name: str,
        interval: float,
        warmup: float,
        seed: int,
        accel_socket: int = 0,
        on_complete: (
            Callable[["FleetMember", int, bool, float, float], None] | None
        ) = None,
        sensors: SensorConfig | None = None,
        faults: ActuationFaultConfig | None = None,
    ) -> None:
        self.index = index
        self.sim = sim
        self._factory = factory
        self._warmup = warmup
        self._seed = seed
        self.node: Node = Node.create(factory.host_spec(), sim, accel_socket=accel_socket)
        # Derive node-scoped degradation seeds so every member draws an
        # independent noise/fault stream even under one shared config.
        from dataclasses import replace as _replace

        if sensors is not None and sensors.degraded:
            sensors = _replace(
                sensors, seed=derive_seed(sensors.seed, index, seed)
            )
        if faults is not None and faults.active:
            faults = _replace(faults, seed=derive_seed(faults.seed, index, seed))
        self.policy: IsolationPolicy = make_policy(
            policy_name,
            self.node,
            ml_cores=factory.default_cores(),
            interval=interval,
            sensors=sensors,
            faults=faults,
        )
        self.policy.prepare()
        # ``load_fraction=0`` builds the server with *no* load generator:
        # arrivals come from the fleet's tenant generators via the router.
        self.instance: MlInstance = factory.build(
            self.node.machine,
            self.policy.ml_placement(),
            warmup_until=warmup,
            seed=seed,
            load_fraction=0.0,
        )
        self._interval = interval
        self._on_complete = on_complete
        #: The policy loop while it runs; None once stopped or failed.
        self._policy_loop: PeriodicTask | None = None
        #: Control ticks this member ran; skipped ticks already replayed.
        self.ticks_run = 0
        self._ticks_elided = 0
        #: Set while parked (see :meth:`_maybe_park`): the member skips its
        #: control ticks and samples, and none of its events fire.
        self.park: _Park | None = None
        self._sample_clock: SampleClock | None = None
        #: Set when a park reaches its horizon: the next read runs for real.
        self._horizon_passed = False
        #: When not None, every replayed telemetry sample is appended here,
        #: so the orchestrator can rebuild its telemetry rows at finalize.
        self.signal_log: deque[NodeSignals] | None = None
        self._can_park = not reference_mode() and self.policy.loop is not None
        if self.policy.loop is not None:
            self.policy.loop.replay = self.wake
        #: FIFO of ``(tenant, counted)`` ownership records per request-start
        #: timestamp. ``counted`` is the request's admission epoch: whether
        #: it was admitted inside the measurement window, decided once at
        #: admission so completion-side accounting can never disagree.
        self._owners: dict[float, deque[tuple[int, bool]]] = {}
        self._last_signals: NodeSignals | None = None
        #: Consecutive samples with the hot predicate true (eviction patience).
        self.hot_streak = 0
        #: job_id -> live BatchTask list for resident batch jobs.
        self._jobs: dict[str, list[BatchTask]] = {}
        #: Every batch task this node ever ran (live + evicted), for accounting.
        self.batch_task_history: list[BatchTask] = []
        self._peak_bw = self.node.machine.spec.sockets[accel_socket].peak_bw_gbps
        #: Liveness: a dead member silently drops submissions and exports a
        #: frozen telemetry snapshot (nothing fleet-visible announces the
        #: death — detection is the incident layer's job).
        self.alive = True
        #: Observer for events that may change this member's routing key
        #: (load, telemetry, liveness, rotation). The orchestrator points
        #: this at the incremental routing index; every key-changing event
        #: below must call it — including paths that bypass the fleet
        #: router, like the incident engine's direct intruder submissions.
        self.on_state_change: (
            Callable[["FleetMember", str], None] | None
        ) = None
        #: Whether the admission router may send this member traffic. Stays
        #: True through a *silent* death (the black hole); remediation or
        #: an explicit orchestrator kill pulls the member from rotation.
        #: A property so that every rotation flip notifies the routing
        #: index, no matter who performs it.
        self._in_rotation = True
        #: Whether the batch queue may place new jobs here.
        self.accepts_batch = True
        #: Times this member has died (salts the restart seed).
        self.deaths = 0
        #: Fleet telemetry blackout: ``sample()`` re-exports the last
        #: snapshot while ``sim.now`` is before this instant.
        self.blackout_until = 0.0
        self._frozen_load = 0

    @property
    def last_signals(self) -> NodeSignals | None:
        """Latest telemetry snapshot (None before the first control tick)."""
        if self.park is not None:
            self.wake()
        return self._last_signals

    @property
    def sample_clock(self) -> SampleClock | None:
        """The fleet's sample grid while it samples this member, else None.

        A member parks only while sampled, and its park counts on those
        samples, so setting this (a retirement or a recommission) wakes
        the member first.
        """
        return self._sample_clock

    @sample_clock.setter
    def sample_clock(self, clock: SampleClock | None) -> None:
        self.wake()
        self._sample_clock = clock

    @property
    def in_rotation(self) -> bool:
        """Whether the admission router may send this member traffic."""
        return self._in_rotation

    @in_rotation.setter
    def in_rotation(self, value: bool) -> None:
        self._in_rotation = bool(value)
        if self.on_state_change is not None:
            self.on_state_change(self, "rotation")

    def _notify(self, kind: str) -> None:
        if self.on_state_change is not None:
            self.on_state_change(self, kind)

    # ------------------------------------------------------------ lifecycle
    def start(self) -> None:
        """Start the inference server and the node policy's control loop."""
        self.instance.start()
        self.server.completion_listeners.append(self._complete)
        self._start_policy_loop()

    def _start_policy_loop(self) -> None:
        """Tick the node policy every interval from now on, if it has a loop."""
        if self.policy.loop is not None:
            self._policy_loop = PeriodicTask(
                self.sim,
                self._interval,
                self._policy_tick,
                label=f"fleet:policy:{self.index}",
                priority=PRIORITY_CONTROL,
            )
            self._policy_loop.resume(self.sim.now + self._interval)

    def _stop_policy_loop(self) -> None:
        if self._policy_loop is not None:
            self._policy_loop.cancel()
            self._policy_loop = None

    def stop(self) -> None:
        """Stop the control loop, resident batch jobs and the server."""
        self._stop_policy_loop()
        for job_id in list(self._jobs):
            self.remove_job(job_id)
        try:
            self.server.completion_listeners.remove(self._complete)
        except ValueError:
            pass  # already detached (a dead member)
        self.instance.stop()

    def fail(self) -> int:
        """Die silently mid-run: crash the server, drop every request.

        Queued and in-flight requests are lost without completing — their
        admission-epoch ``counted`` flags were decided at submit time, so
        each counted loss is automatically an SLO miss at finalize. Resident
        batch tasks freeze where they stand (their meters stop integrating)
        but stay in :attr:`job_ids` — the cluster queue still believes they
        are running until someone requeues them. Nothing is announced to
        the fleet: :attr:`in_rotation` stays True and :meth:`sample` keeps
        exporting the last pre-death snapshot.

        Returns the number of *counted* requests dropped.
        """
        self.wake()
        if not self.alive:
            return 0
        self.alive = False
        self.deaths += 1
        self._frozen_load = self.load
        self._stop_policy_loop()
        try:
            self.server.completion_listeners.remove(self._complete)
        except ValueError:  # pragma: no cover - defensive
            pass
        dropped = sum(
            1
            for owners in self._owners.values()
            for _, counted in owners
            if counted
        )
        self._owners.clear()
        self.server.abort()
        self.instance.stop()
        for tasks in self._jobs.values():
            for task in tasks:
                task.meter.set_rate(0.0, self.sim.now)
                task.stop()
        if self._last_signals is None:
            self._last_signals = self._offline_signals()
        self._notify("load")
        return dropped

    def restart(self) -> None:
        """Boot a fresh server after a death (the node rejoined).

        The machine, policy and control plane survive the reboot (host
        state is persistent); the inference server is rebuilt from the
        factory with a restart-salted seed. Batch tasks killed by the
        death stay dead — re-placing their jobs is the queue's decision.
        Telemetry resumes fresh on the next :meth:`sample`.
        """
        if self.alive:
            return
        self.instance = self._factory.build(
            self.node.machine,
            self.policy.ml_placement(),
            warmup_until=self._warmup,
            seed=derive_seed(self._seed, 0xDEAD, self.deaths),
            load_fraction=0.0,
        )
        self.alive = True
        self.instance.start()
        self.server.completion_listeners.append(self._complete)
        self._start_policy_loop()
        self._notify("load")  # the rebooted server starts empty

    def begin_blackout(self, until: float) -> None:
        """Black out telemetry until ``until``: the fleet sees a frozen
        snapshot, and the node policy's own control loop keeps deciding on
        its last pre-blackout sensor sample (it is blind too)."""
        self.wake()
        self.blackout_until = max(self.blackout_until, until)
        loop = self.policy.loop
        if loop is not None:
            loop.hold_sensors(until)
        if self._last_signals is None:
            self._last_signals = self._offline_signals()
            self._notify("signals")

    # ------------------------------------------------------------- serving
    @property
    def server(self) -> InferenceServerTask:
        """The node's pipelined inference server."""
        task = self.instance.task
        assert isinstance(task, InferenceServerTask)
        return task

    @property
    def load(self) -> int:
        """Requests in flight plus queued (the least-loaded routing key).

        A dead member reports its load frozen at the instant of death —
        the load balancer's view stops updating, which is exactly what
        makes a silently dead node a traffic magnet for least-loaded
        routing (its apparent load never grows).
        """
        if not self.alive:
            return self._frozen_load
        return self.server.inflight + self.server.queued

    def submit(
        self, tenant: int, demand: float = 1.0, counted: bool = True
    ) -> None:
        """Accept one request on behalf of ``tenant``.

        ``counted`` records the admission epoch (admitted inside the
        measurement window or not); ``demand`` scales the request's service
        requirement (trace job families). A dead member black-holes the
        request: it was already counted as offered at admission and will
        never complete, i.e. it is an SLO miss.
        """
        if not self.alive:
            return
        self._owners.setdefault(self.sim.now, deque()).append((tenant, counted))
        self.server.submit(demand)
        if self.on_state_change is not None:
            self.on_state_change(self, "load")

    def _complete(self, start: float, end: float) -> None:
        if self.on_state_change is not None:
            # The server already released the request, so the load-keyed
            # routing index must be refreshed even for unowned traffic.
            self.on_state_change(self, "load")
        owners = self._owners.get(start)
        if not owners:  # pragma: no cover - foreign traffic, defensive
            return
        tenant, counted = owners.popleft()
        if not owners:
            del self._owners[start]
        if self._on_complete is not None:
            self._on_complete(self, tenant, counted, start, end)

    # ----------------------------------------------------------- telemetry
    def sample(self) -> NodeSignals:
        """One windowed telemetry read, refreshed into :attr:`last_signals`.

        The hot predicate mirrors the THROTTLE side of Algorithm 1's
        low-priority decision: the queue should not keep (or add) batch work
        on a node whose socket-level watermarks are tripping.

        A dead or blacked-out member re-exports its last snapshot instead
        of reading the perf window: its ``time`` field stops advancing,
        which is the only fleet-visible trace of the failure (the
        telemetry-silence detector keys on exactly this).
        """
        if not self.alive or self.sim.now < self.blackout_until:
            if self._last_signals is None:  # pragma: no cover - defensive
                self._last_signals = self._offline_signals()
                self._notify("signals")
            return self._last_signals
        node = self.node
        server = self.server
        signals = self._make_signals(
            self.sim.now,
            node.perf.read_kelp(FLEET_READER, node.accel_socket, node.hi_subdomain),
            self.policy.profile,
            server.inflight,
            server.queued,
            len(self._jobs),
        )
        self._last_signals = signals
        self.hot_streak = self.hot_streak + 1 if signals.hot else 0
        if self.on_state_change is not None:
            self.on_state_change(self, "signals")
        return signals

    def _make_signals(
        self,
        now: float,
        reading: tuple[float, float, float, float, float],
        profile: QosProfile,
        inflight: int,
        queued: int,
        batch_jobs: int,
    ) -> NodeSignals:
        """The snapshot of one ``read_kelp`` reading taken at ``now``."""
        socket_bw, latency, saturation, hipri_bw, _ = reading
        hot = (
            profile.saturation.above(saturation)
            or profile.socket_latency.above(latency)
            or profile.socket_bw.above(socket_bw)
        )
        return NodeSignals(
            node_index=self.index,
            time=now,
            socket_bw_gbps=socket_bw,
            latency_factor=latency,
            saturation=saturation,
            hipri_bw_gbps=hipri_bw,
            inflight=inflight,
            queued=queued,
            batch_jobs=batch_jobs,
            saturated=socket_bw >= SATURATED_BW_FRACTION * self._peak_bw,
            hot=hot,
        )

    # -------------------------------------------------------------- parking
    @property
    def ticks_elided(self) -> int:
        """Control ticks skipped while parked, the open park's included."""
        park = self.park
        if park is None:
            return self._ticks_elided
        return self._ticks_elided + len(
            _grid_run(park.tick_from, self._interval, self.sim.now)
        )

    def skip_sample(self) -> bool:
        """Whether this telemetry sample is taken by a replay, not now.

        Called on awake members only; the fleet samples no parked member.
        True when the member parks here, skipping the sample, and when it
        was woken earlier in this fleet tick, before the tick reached it:
        its replay ran through this instant and already took the sample.
        Such a sample is provably neither hot nor saturated, and its
        routing pressure falls in the last real sample's bucket (the
        parking predicate checks all three), so the caller may count it as
        such; it lands in :attr:`signal_log`.
        """
        if self.node.perf.mark_time(FLEET_READER) == self.sim.now:
            return True
        self._maybe_park(sampling=True)
        return self.park is not None

    def _policy_tick(self) -> None:
        """The periodic policy event: park (skipping the tick), or tick."""
        self._maybe_park()
        if self.park is None:
            self.ticks_run += 1
            self.policy.tick()

    def _maybe_park(self, sampling: bool = False) -> None:
        """Park if this read and the ones after it provably change nothing.

        Called at the member's own tick, or with ``sampling`` at the fleet's
        telemetry sample; an awake member tries to park at the first read
        it could skip, rather than right after its last real read, so a
        request that arrives in between fails the predicate's cheap checks
        and the full predicate runs only when it saves a read.

        The predicate: the member is alive, sampled by the fleet, not
        blacked out, with an empty server and no batch task; both perf
        readers last read after the current solve state was installed, so
        every later window sees that state alone; the control loop reports
        a steady decision (no write, no plan move, perfect sensors, no
        faults); and the state's values sit farther than their rounding
        bound from every watermark and from
        :data:`~repro.fleet.config.SATURATED_BW_FRACTION`, with every
        sample's routing pressure in the last real sample's bucket.

        Parking takes the policy loop off the heap and schedules the
        horizon event; :meth:`wake` undoes both.
        """
        if self._horizon_passed:
            self._horizon_passed = False
            return
        if (
            not self._can_park
            or self.park is not None
            or not self.alive
            or self._sample_clock is None
            or self._policy_loop is None
        ):
            return
        now = self.sim.now
        server = self.server
        if now < self.blackout_until or self._jobs or server.inflight or server.queued:
            return
        node = self.node
        loop = self.policy.loop
        telemetry = node.machine.telemetry
        perf = node.perf
        since = telemetry.state_since
        if (
            perf.mark_time(CONTROL_READER) < since
            or perf.mark_time(FLEET_READER) < since
            or not loop.quiet
        ):
            return
        # Windows are one interval long; half of it bounds them from below.
        until = now + PARK_HORIZON_TICKS * self._interval
        steady = perf.steady_kelp(
            node.accel_socket, node.hi_subdomain, 0.5 * self._interval, until
        )
        if steady is None:
            return
        values, errors = steady
        fields = loop.steady(
            KelpMeasurements(*values, 0.0), KelpMeasurements(*errors, 0.0)
        )
        if fields is None:
            return
        socket_bw, latency, saturation, _ = values
        bw_error, latency_error, saturation_error, _ = errors
        profile = self.policy.profile
        # The routing bucket of every sample's pressure (never negative):
        # bucketing after NodeSignals.pressure()'s rounding is monotone, so
        # equal buckets at both ends of the error interval pin it.
        pressure = saturation + 0.5 * max(latency - 1.0, 0.0)
        pressure_error = saturation_error + latency_error
        bucket = pressure_bucket(round(max(pressure - pressure_error, 0.0), 9))
        last = self._last_signals
        if (
            saturation >= profile.saturation.hi - saturation_error
            or latency >= profile.socket_latency.hi - latency_error
            or socket_bw >= profile.socket_bw.hi - bw_error
            or socket_bw >= SATURATED_BW_FRACTION * self._peak_bw - bw_error
            or pressure_bucket(round(pressure + pressure_error, 9)) != bucket
            or (pressure_bucket(last.pressure()) if last is not None else 0) != bucket
        ):
            return
        # The first skipped instant of each grid: this read itself, or the
        # next firing of its loop (the fleet ticks at ``last + interval``).
        policy_loop = self._policy_loop
        pending = policy_loop.handle
        last_sample = self._sample_clock.last
        self.park = _Park(
            profile,
            fields,
            tick_from=now if pending is None else pending.time,
            sample_from=now if sampling else last_sample + self._interval,
            horizon=self.sim.at(
                until, self._end_park, label=f"fleet:horizon:{self.index}",
                priority=PRIORITY_LAST,
            ),
        )
        policy_loop.pause()
        telemetry.on_advance = self.wake

    def _end_park(self) -> None:
        """The horizon event: wake, and run the next read for real."""
        self.park.horizon = None
        self.wake()
        self._horizon_passed = True

    def wake(self) -> None:
        """Unpark, replaying every skipped read exactly (no-op if awake).

        The one replay choke point. It runs before the member's telemetry
        advances for any reason (a submit, a job placement, a knob write
        or a remediation all end in an advance) and before any read of its
        history, signals or perf window. Changes that touch no telemetry
        wake it too: a death or a blackout (here), a retirement
        (:attr:`sample_clock`), and a governor or fault-window change,
        which the control loop catches up on first
        (:meth:`~repro.control.loop.ControlLoop.catch_up`).

        The skipped reads are the member's ticks from ``tick_from`` up to
        now (a tick at or before now has fired) and the fleet's samples
        from ``sample_from`` up to its latest control tick, which may be
        under way: a member woken in it before it reaches the member takes
        that sample here, and :meth:`skip_sample` then counts it. They are
        performed in dispatch order (at one instant the tick, at
        ``PRIORITY_CONTROL``, comes before the sample, at
        ``PRIORITY_OBSERVE``) at their original instants, so the
        integrals, the ``control`` and ``fleet`` reader marks, the control
        records and the telemetry snapshots come out exactly as if the
        member had never parked. The policy loop is re-armed at its first
        grid instant after now, unless it was stopped meanwhile.
        """
        park = self.park
        if park is None:
            return
        self.park = None
        node = self.node
        node.machine.telemetry.on_advance = None
        if park.horizon is not None:
            park.horizon.cancel()
        interval = self._interval
        ticks = _grid_run(park.tick_from, interval, self.sim.now)
        if self._policy_loop is not None:
            self._policy_loop.resume(ticks[-1] + interval if ticks else park.tick_from)
        samples = _grid_run(park.sample_from, interval, self._sample_clock.last)
        reads = sorted([(t, False) for t in ticks] + [(t, True) for t in samples])
        perf = node.perf
        log = self.signal_log
        rows = []
        sample = None
        for now, is_sample in reads:
            # The skipped read itself, at its own instant: integrals, marks
            # and reading come out exactly as if it had run on time.
            reader = FLEET_READER if is_sample else CONTROL_READER
            reading = perf.read_kelp(reader, node.accel_socket, node.hi_subdomain, now)
            if is_sample:
                sample = (now, reading)
                if log is not None:
                    log.append(self._make_signals(now, reading, park.profile, 0, 0, 0))
            else:
                rows.append((now, reading))
        if sample is not None:
            self._last_signals = (
                log[-1]
                if log is not None
                else self._make_signals(*sample, park.profile, 0, 0, 0)
            )
            self.hot_streak = 0
        if rows:
            self._ticks_elided += len(rows)
            self.policy.loop.elide(rows, park.fields)

    def _offline_signals(self) -> NodeSignals:
        """An all-quiet snapshot for members that die before any sample."""
        return NodeSignals(
            node_index=self.index,
            time=0.0,
            socket_bw_gbps=0.0,
            latency_factor=1.0,
            saturation=0.0,
            hipri_bw_gbps=0.0,
            inflight=0,
            queued=0,
            batch_jobs=len(self._jobs),
            saturated=False,
            hot=False,
        )

    # ---------------------------------------------------------- batch jobs
    @property
    def job_count(self) -> int:
        """Batch jobs currently resident on this node."""
        return len(self._jobs)

    @property
    def job_ids(self) -> tuple[str, ...]:
        """Resident job ids in placement order."""
        return tuple(self._jobs)

    def place_job(self, job_id: str, profile: BatchProfile, warmup: float) -> None:
        """Place one batch job's tasks through the node policy."""
        if job_id in self._jobs:
            raise SchedulingError(f"job {job_id!r} already on node {self.index}")
        tasks = self.policy.place(profile, warmup=warmup, prefix=f"{job_id}/")
        self._jobs[job_id] = tasks
        self.batch_task_history.extend(tasks)

    def remove_job(self, job_id: str) -> None:
        """Evict one job's tasks through the node policy."""
        tasks = self._jobs.pop(job_id, None)
        if tasks is None:
            raise SchedulingError(f"job {job_id!r} not on node {self.index}")
        self.policy.evict(tasks)

    # ------------------------------------------------------------- metrics
    def batch_throughput(self, measurement_end: float) -> float:
        """Aggregate post-warmup units/s over every task this node ran."""
        return sum(
            task.throughput(measurement_end) for task in self.batch_task_history
        )
