"""Execution engines for the accelerated workloads.

Two engines cover the paper's four workloads:

* :class:`TrainingTask` — a step loop. In *overlap* mode (CNN1/CNN2 on Cloud
  TPU) the host in-feed phase runs concurrently with the accelerator step and
  the step completes when both finish, plus a short host-side sync. In
  *serial* mode (CNN3 on GPU) each step is accelerator compute followed by a
  host-side parameter-server update and a lock-step barrier across shards.
* :class:`InferenceServerTask` — a pipelined request server (RNN1 on TPU).
  Requests run several iterations of host compute (beam search), PCIe
  transfer, accelerator compute, and transfer back. Up to ``max_inflight``
  requests overlap; concurrent host phases share the task's cores.

Host phases are fluid works whose drain rate is the contention speed factor;
accelerator and PCIe service is independent of host memory contention — the
separation Fig 3 demonstrates.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import partial
from operator import attrgetter
from typing import Callable

from repro.accel.device import AcceleratorDevice, OpCost
from repro.accel.pcie import PcieLink
from repro.workloads.ml.distributed import LockStepBarrier
from repro.errors import ConfigurationError, WorkloadError
from repro.hw.contention import Priority, SolveResult, TrafficSource
from repro.hw.machine import Machine
from repro.hw.placement import Placement
from repro.metrics.latency import LatencyRecorder
from repro.metrics.throughput import ThroughputMeter
from repro.sim.events import Event
from repro.sim.tracing import TimelineTracer
from repro.sim.work import FluidWork
from repro.workloads.base import HostPhaseProfile, Task, phase_speed


def _noop() -> None:
    """Default host-phase continuation (picklable, unlike ``lambda: None``)."""


# --------------------------------------------------------------------------
# Training
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class TrainingSpec:
    """Static description of an accelerated training workload."""

    name: str
    platform: str
    #: Accelerator time per training step, seconds.
    accel_step_time: float
    #: Standalone host time of the per-step host phase (in-feed or PS
    #: update), seconds.
    host_time: float
    host: HostPhaseProfile
    #: Standalone host time of the short per-step synchronization, seconds.
    sync_time: float
    sync: HostPhaseProfile
    #: True: host phase overlaps accelerator compute (in-feed pipelines).
    #: False: host phase follows accelerator compute (parameter server).
    overlap: bool = True
    #: Lock-step shard fan-out; only meaningful for serial (PS) workloads.
    barrier_shards: int = 1
    barrier_cv: float = 0.12
    #: Cores the node scheduler gives the task by default.
    default_cores: int = 4

    def __post_init__(self) -> None:
        if min(self.accel_step_time, self.host_time) <= 0:
            raise ConfigurationError("step component times must be positive")
        if self.sync_time < 0:
            raise ConfigurationError("sync_time must be >= 0")
        if self.barrier_shards < 1:
            raise ConfigurationError("barrier_shards must be >= 1")

    def standalone_step_time(self) -> float:
        """Analytic standalone step latency (barrier noise excluded)."""
        if self.overlap:
            return max(self.accel_step_time, self.host_time) + self.sync_time
        return self.accel_step_time + self.host_time + self.sync_time


class TrainingTask(Task):
    """The step-loop engine for CNN1/CNN2/CNN3."""

    def __init__(
        self,
        task_id: str,
        machine: Machine,
        placement: Placement,
        spec: TrainingSpec,
        warmup_until: float = 0.0,
        barrier: LockStepBarrier | None = None,
    ) -> None:
        super().__init__(task_id, machine, placement, priority=Priority.HIGH)
        self.spec = spec
        self.meter = ThroughputMeter(warmup_until=warmup_until)
        self.steps_completed = 0
        self._barrier = barrier
        self._host_work: FluidWork | None = None
        self._host_profile: HostPhaseProfile | None = None
        self._host_handle: Event | None = None
        self._host_on_complete: Callable[[], None] = _noop
        self._host_speed = 1.0
        self._accel_pending = False
        self._host_pending = False

    # ----------------------------------------------------------- lifecycle
    def start(self) -> None:
        super().start()
        self._begin_step()

    def stop(self) -> None:
        if self._host_handle is not None:
            self._host_handle.cancel()
            self._host_handle = None
        self._host_work = None
        super().stop()

    # ------------------------------------------------------------ protocol
    def traffic_sources(self) -> list[TrafficSource]:
        if not self.started or self._host_work is None or self._host_profile is None:
            return []
        return [self._make_source(self._host_profile)]

    def sync(self, now: float) -> None:
        # Deliberately lazy: fluid drain is linear between rate changes, so
        # deferred integration is lossless. The host work self-syncs inside
        # every ``set_rate`` and at phase completion, and the step meter
        # (rate 0, discrete ``add_units`` credits) syncs in ``_finish_step``
        # and on every ``throughput`` read.
        pass

    def apply_rates(self, result: SolveResult, now: float) -> None:
        work = self._host_work
        profile = self._host_profile
        if work is None or profile is None:
            return
        speed = self._phase_speed_for(result, profile)
        handle = self._host_handle
        if speed == self._host_speed and handle is not None and not handle.cancelled:
            # Rate unchanged and a completion event is pending: fluid
            # progress is linear, so the scheduled instant is still exact.
            return
        self._host_speed = speed
        work.set_rate(speed, now=now)
        self._reschedule_host()

    def _phase_speed_for(self, result: SolveResult, profile: HostPhaseProfile) -> float:
        key = (id(result), id(profile))
        memo = self._speed_memo.get(key)
        if memo is not None and memo[0] is result and memo[1] is profile:
            return memo[2]
        speed = phase_speed(result.rates_for(f"{self.task_id}:host"), profile)
        if len(self._speed_memo) >= 128:
            self._speed_memo.clear()
        self._speed_memo[key] = (result, profile, speed)
        return speed

    # ------------------------------------------------------------- metrics
    def performance(self, measurement_end: float) -> float:
        """Training steps per second over the post-warmup window."""
        return self.meter.throughput(measurement_end)

    # ------------------------------------------------------------ internal
    def _begin_step(self) -> None:
        if not self.started:
            return
        if self.spec.overlap:
            self._accel_pending = True
            self._host_pending = True
            self.sim.after(
                self.spec.accel_step_time,
                self._accel_done,
                label=f"{self.task_id}:accel",
            )
            self._start_host_phase(self.spec.host_time, self.spec.host, self._host_done)
        else:
            self.sim.after(
                self.spec.accel_step_time,
                self._serial_accel_done,
                label=f"{self.task_id}:accel",
            )

    # --- overlap mode -------------------------------------------------
    def _accel_done(self) -> None:
        if not self.started:
            return
        self._accel_pending = False
        self._maybe_sync_phase()

    def _host_done(self) -> None:
        self._host_pending = False
        self._maybe_sync_phase()

    def _maybe_sync_phase(self) -> None:
        if self._accel_pending or self._host_pending:
            return
        if self.spec.sync_time > 0:
            self._start_host_phase(
                self.spec.sync_time, self.spec.sync, self._finish_step
            )
        else:
            self._finish_step()

    # --- serial (parameter-server) mode --------------------------------
    def _serial_accel_done(self) -> None:
        if not self.started:
            return
        self._start_host_phase(
            self.spec.host_time,
            self.spec.host,
            partial(self._after_update, self.sim.now),
        )

    def _after_update(self, host_start: float) -> None:
        wait = 0.0
        if self._barrier is not None:
            local_latency = self.sim.now - host_start
            wait = self._barrier.barrier_wait(local_latency)
        if wait > 0:
            self.sim.after(
                wait, self._after_barrier, label=f"{self.task_id}:barrier"
            )
        else:
            self._after_barrier()

    def _after_barrier(self) -> None:
        if not self.started:
            return
        if self.spec.sync_time > 0:
            self._start_host_phase(
                self.spec.sync_time, self.spec.sync, self._finish_step
            )
        else:
            self._finish_step()

    # --- shared --------------------------------------------------------
    def _finish_step(self) -> None:
        if not self.started:
            return
        self.steps_completed += 1
        self.meter.sync(self.sim.now)
        self.meter.add_units(1.0)
        self._begin_step()

    def _start_host_phase(
        self,
        duration: float,
        profile: HostPhaseProfile,
        on_complete: Callable[[], None],
    ) -> None:
        self._host_work = FluidWork(duration, now=self.sim.now)
        self._host_profile = profile
        self._host_on_complete = on_complete
        self.machine.notify_change()  # publishes the new source; sets rates

    def _reschedule_host(self) -> None:
        if self._host_work is None:
            self._cancel_host_handle()
            return
        eta = self._host_work.eta()
        if eta == float("inf"):
            self._cancel_host_handle()
            return
        handle = self._host_handle
        if (
            handle is not None
            and not handle.cancelled
            and handle.time == self.sim.now + eta
        ):
            # The pending completion event already fires at exactly the
            # recomputed instant (typical when a re-solve leaves this task's
            # rate unchanged) — keep it instead of churning the event heap.
            return
        self._cancel_host_handle()
        self._host_handle = self.sim.after(
            eta, self._host_phase_event, label=f"{self.task_id}:host"
        )

    def _cancel_host_handle(self) -> None:
        if self._host_handle is not None:
            self._host_handle.cancel()
            self._host_handle = None

    def _host_phase_event(self) -> None:
        if self._host_work is None:
            return
        self._host_work.sync(self.sim.now)
        if not self._host_work.done and not self._host_work.retire_residue(
            now=self.sim.now
        ):
            self._reschedule_host()
            return
        self._host_work = None
        self._host_profile = None
        self._host_handle = None
        on_complete = self._host_on_complete
        self.machine.notify_change()  # the host source disappeared
        on_complete()


# --------------------------------------------------------------------------
# Inference
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class InferenceSpec:
    """Static description of a pipelined inference server."""

    name: str
    platform: str
    iterations_per_query: int
    #: Standalone host time per iteration (beam search etc.), seconds.
    host_time: float
    host: HostPhaseProfile
    #: Transfer sizes per iteration, GB.
    pcie_in_gb: float
    pcie_out_gb: float
    accel_op: OpCost
    #: Maximum requests in flight (pipeline depth).
    max_inflight: int = 8
    #: Outstanding requests kept by the closed-loop pipelined generator —
    #: chosen at the knee of the throughput-latency curve (Section III-A).
    pipeline_concurrency: int = 4
    #: Fraction of standalone capacity used when an *open-loop* generator is
    #: requested instead (latency-curve sweeps).
    target_load_fraction: float = 0.85
    default_cores: int = 3

    def __post_init__(self) -> None:
        if self.iterations_per_query <= 0:
            raise ConfigurationError("iterations_per_query must be positive")
        if self.host_time <= 0:
            raise ConfigurationError("host_time must be positive")
        if self.max_inflight <= 0:
            raise ConfigurationError("max_inflight must be positive")
        if not 0 < self.target_load_fraction <= 1:
            raise ConfigurationError("target_load_fraction must be in (0, 1]")

    def standalone_capacity(self, accel_spec, cores: int) -> float:
        """Analytic peak QPS with ``cores`` host cores, unloaded."""
        host_per_query = self.iterations_per_query * self.host_time
        host_parallelism = min(self.max_inflight, cores)
        host_cap = host_parallelism / host_per_query
        accel_per_query = self.iterations_per_query * self.accel_op.duration_on(
            accel_spec
        )
        accel_cap = 1.0 / accel_per_query
        return min(host_cap, accel_cap)

    def target_qps(self, accel_spec, cores: int) -> float:
        """The knee-load arrival rate used by the evaluation."""
        return self.target_load_fraction * self.standalone_capacity(accel_spec, cores)


@dataclass(eq=False, slots=True)
class _Lane:
    """One in-flight request."""

    request_start: float
    #: Service-demand multiplier (1.0 = the spec's nominal request).
    demand: float = 1.0
    iteration: int = 0
    work: FluidWork | None = None
    #: When the host phase completes at the current rate; ``inf`` outside a
    #: host phase, before its first rate push and while stalled.
    due: float = math.inf
    #: The server's due-change count when ``due`` was last set: lanes due at
    #: one instant complete in stamp order.
    stamp: int = 0


#: Host lanes order by due instant, then stamp.
_DUE_ORDER = attrgetter("due", "stamp")


class InferenceServerTask(Task):
    """The pipelined RNN1 inference server."""

    def __init__(
        self,
        task_id: str,
        machine: Machine,
        placement: Placement,
        spec: InferenceSpec,
        device: AcceleratorDevice,
        pcie_in: PcieLink,
        pcie_out: PcieLink,
        warmup_until: float = 0.0,
        tracer: TimelineTracer | None = None,
    ) -> None:
        super().__init__(task_id, machine, placement, priority=Priority.HIGH)
        self.spec = spec
        self.device = device
        self.pcie_in = pcie_in
        self.pcie_out = pcie_out
        self.recorder = LatencyRecorder(warmup_until=warmup_until)
        self.tracer = tracer
        self.completion_listeners: list[Callable[[float, float], None]] = []
        self._pending: deque[tuple[float, float]] = deque()
        self._lanes: set[_Lane] = set()
        self._host_lanes: set[_Lane] = set()
        self._host_speed = 1.0
        #: The one pending host-phase completion event, for ``_armed``, the
        #: lane due first.
        self._host_event: Event | None = None
        self._armed: _Lane | None = None
        #: Lane due changes so far (the next stamp).
        self._stamps = 0
        #: demand multiplier -> scaled OpCost. Demands come from a small set
        #: of trace job families, so this stays a handful of entries.
        self._op_memo: dict[float, OpCost] = {}
        self._lane_label = f"{task_id}:lane"
        self.submitted = 0

    # ----------------------------------------------------------- submission
    def submit(self, demand: float = 1.0) -> None:
        """Accept one request at the current simulated time.

        ``demand`` scales the request's service requirement — host compute,
        PCIe transfer volume and accelerator op — relative to the spec's
        nominal request (trace job families with heterogeneous accelerator
        demand). The default of 1.0 is exactly the pre-trace behaviour.
        """
        if not self.started:
            raise WorkloadError("server not started")
        if demand <= 0:
            raise WorkloadError(f"request demand must be positive, got {demand}")
        self.submitted += 1
        now = self.sim.now
        if len(self._lanes) < self.spec.max_inflight:
            self._start_lane(now, demand)
        else:
            self._pending.append((now, demand))

    @property
    def inflight(self) -> int:
        """Requests currently being processed."""
        return len(self._lanes)

    @property
    def queued(self) -> int:
        """Requests waiting for a free pipeline lane."""
        return len(self._pending)

    def abort(self) -> None:
        """Kill the server mid-flight: every queued and in-flight request
        is dropped without completing (a node crash, not a drain).

        The host-phase completion event is cancelled here; continuations an
        in-flight lane already registered with the PCIe links or the
        accelerator queue still fire, but the stopped-server guards in the
        pipeline stages turn them into no-ops, so no completion is ever
        reported for an aborted request.
        """
        if self._host_event is not None:
            self._host_event.cancel()
            self._host_event = None
        self._armed = None
        for lane in self._host_lanes:
            lane.work = None
            lane.due = math.inf
        self._lanes.clear()
        had_host = bool(self._host_lanes)
        self._host_lanes.clear()
        self._pending.clear()
        if self.started and had_host:
            self.machine.notify_change()  # the host sources vanished

    # ------------------------------------------------------------ protocol
    def traffic_sources(self) -> list[TrafficSource]:
        if not self.started or not self._host_lanes:
            return []
        n = len(self._host_lanes)
        key = ("lanes", n)
        source = self._source_cache.get(key)
        if source is None:
            profile = self.spec.host
            source = TrafficSource(
                source_id=f"{self.task_id}:host",
                task_id=self.task_id,
                demand_gbps=profile.bw_gbps * n,
                mem_weights=self.placement.mem_weights,
                cores=self.placement.cores,
                threads=profile.threads * n,
                clos=self.placement.clos,
                priority=self.priority,
                prefetch=profile.prefetch,
                working_set_mb=profile.working_set_mb * min(n, 4),
                llc_intensity=profile.llc_intensity,
                llc_miss_traffic_gain=profile.llc_miss_traffic_gain,
                llc_speed_sensitivity=profile.llc_speed_sensitivity,
                smt_aggression=profile.smt_aggression,
                smt_sensitivity=profile.smt_sensitivity,
            )
            self._source_cache[key] = source
        return [source]

    def sync(self, now: float) -> None:
        # Deliberately lazy: lane works self-sync inside every ``retime``
        # and at completion, and nothing reads their remaining work between
        # rate changes, so eager integration here would be pure overhead.
        pass

    def apply_rates(self, result: SolveResult, now: float) -> None:
        if not self._host_lanes:
            return
        memo = self._speed_memo.get(id(result))
        if memo is not None and memo[0] is result:
            speed = memo[1]
        else:
            rates = result.rates_for(f"{self.task_id}:host")
            speed = phase_speed(rates, self.spec.host)
            if len(self._speed_memo) >= 128:
                self._speed_memo.clear()
            self._speed_memo[id(result)] = (result, speed)
        unchanged = speed == self._host_speed
        self._host_speed = speed
        # Safe to iterate the live set: nothing below mutates membership
        # (completion callbacks only run from the event loop, never inline).
        for lane in self._host_lanes:
            if unchanged and lane.due != math.inf:
                # This lane already runs at ``speed``, so its due instant
                # is exact.
                continue
            due = lane.work.retime(speed, now)
            if due != lane.due:
                lane.due = due
                lane.stamp = self._stamps
                self._stamps += 1
        self._arm()

    # ------------------------------------------------------------- metrics
    def performance(self, measurement_end: float) -> float:
        """Completed QPS over the post-warmup window."""
        return self.recorder.qps(measurement_end)

    def tail_latency(self, q: float = 95.0) -> float:
        """Tail latency over the post-warmup window, seconds."""
        return self.recorder.tail(q)

    # ------------------------------------------------------------ internal
    def _start_lane(self, request_start: float, demand: float = 1.0) -> None:
        lane = _Lane(request_start=request_start, demand=demand)
        self._lanes.add(lane)
        self._enter_host(lane)

    def _op_for(self, demand: float) -> OpCost:
        """The accelerator op scaled by ``demand`` (memoized per family)."""
        if demand == 1.0:
            return self.spec.accel_op
        op = self._op_memo.get(demand)
        if op is None:
            base = self.spec.accel_op
            op = OpCost(
                gflops=base.gflops * demand,
                local_bytes_gb=base.local_bytes_gb * demand,
            )
            self._op_memo[demand] = op
        return op

    def _enter_host(self, lane: _Lane) -> None:
        if not self.started:  # aborted server: drop the zombie lane
            return
        lane.work = FluidWork(self.spec.host_time * lane.demand, now=self.sim.now)
        self._host_lanes.add(lane)
        if self.tracer is not None and len(self._host_lanes) == 1:
            self.tracer.begin(self.task_id, "cpu", self.sim.now)
        self.machine.notify_change()

    def _arm(self) -> None:
        """Hold the completion event for the lane due first.

        Ties go to the lower stamp, the order in which one event per lane
        would fire. The pending event is kept while the same lane stays
        first at the same instant.
        """
        first = min(self._host_lanes, key=_DUE_ORDER, default=None)
        if first is not None and first.due == math.inf:
            first = None
        event = self._host_event
        if event is not None:
            if first is self._armed and event.time == first.due:
                return
            event.cancel()
        self._armed = first
        self._host_event = None
        if first is not None:
            self._host_event = self.sim.at(
                first.due, self._host_phase_done, label=self._lane_label
            )

    def _host_phase_done(self) -> None:
        """The armed lane's event: end its host phase, or re-arm when a
        residue above rounding noise is left."""
        lane = self._armed
        self._host_event = None
        self._armed = None
        now = self.sim.now
        work = lane.work
        work.sync(now)
        if not work.done and not work.retire_residue(now=now):
            lane.due = now + work.eta()
            lane.stamp = self._stamps
            self._stamps += 1
            self._arm()
            return
        lane.work = None
        lane.due = math.inf
        self._host_lanes.discard(lane)
        if self.tracer is not None and not self._host_lanes:
            self.tracer.end(self.task_id, "cpu", now)
        self.machine.notify_change()
        self._arm()
        self._enter_pcie_in(lane)

    def _enter_pcie_in(self, lane: _Lane) -> None:
        if self.tracer is not None:
            self.tracer.begin(self.task_id, "communication", self.sim.now)
        self.pcie_in.transfer(
            self.spec.pcie_in_gb * lane.demand, partial(self._enter_accel, lane)
        )

    def _enter_accel(self, lane: _Lane) -> None:
        if self.tracer is not None:
            self.tracer.end(self.task_id, "communication", self.sim.now)
            self.tracer.begin(self.task_id, "tpu", self.sim.now)
        self.device.submit(
            self._op_for(lane.demand), partial(self._enter_pcie_out, lane)
        )

    def _enter_pcie_out(self, lane: _Lane) -> None:
        if not self.started:  # aborted server: drop the zombie lane
            return
        if self.tracer is not None:
            self.tracer.end(self.task_id, "tpu", self.sim.now)
            self.tracer.begin(self.task_id, "communication", self.sim.now)
        self.pcie_out.transfer(
            self.spec.pcie_out_gb * lane.demand,
            partial(self._iteration_complete, lane),
        )

    def _iteration_complete(self, lane: _Lane) -> None:
        if not self.started:  # aborted server: drop the zombie lane
            return
        if self.tracer is not None:
            self.tracer.end(self.task_id, "communication", self.sim.now)
        lane.iteration += 1
        if lane.iteration < self.spec.iterations_per_query:
            self._enter_host(lane)
            return
        now = self.sim.now
        self._lanes.discard(lane)
        self.recorder.record(lane.request_start, now)
        for listener in list(self.completion_listeners):
            listener(lane.request_start, now)
        if self._pending and len(self._lanes) < self.spec.max_inflight:
            self._start_lane(*self._pending.popleft())
