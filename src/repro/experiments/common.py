"""Shared colocation harness used by every evaluation experiment.

One call = one machine lifetime: build the node, let the policy prepare the
hardware and place the tasks, run the simulation, and report the ML task's
normalized performance (and tail latency), the CPU workload's aggregate
throughput, and the controller's parameter history.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.node import Node
from repro.control.actuators import ActuationFaultConfig
from repro.control.records import ControlTickRecord
from repro.control.sensors import SensorConfig
from repro.core.policies import IsolationPolicy, make_policy
from repro.errors import ExperimentError
from repro.sim import Simulator
from repro.sim.engine import PRIORITY_CONTROL, PRIORITY_OBSERVE
from repro.sim.tracing import TimelineTracer
from repro.workloads.cpu.base import BatchTask
from repro.workloads.cpu.catalog import cpu_workload
from repro.workloads.ml.catalog import MlInstance, ml_workload

if TYPE_CHECKING:
    from repro.obs.recorder import RunObserver

#: Default simulated measurement horizon, seconds.
DEFAULT_DURATION = 40.0
#: Default warmup excluded from all measurements, seconds.
DEFAULT_WARMUP = 6.0
#: Default control interval. The paper samples every 10 s over long runs and
#: reports insensitivity to the sampling frequency; we scale the interval
#: with the shortened simulated horizon.
DEFAULT_INTERVAL = 1.0


@dataclass(frozen=True)
class MixConfig:
    """One colocation run: an ML workload, a CPU workload, and a policy."""

    ml: str
    policy: str = "BL"
    cpu: str | None = None
    intensity: int | str = 1
    duration: float = DEFAULT_DURATION
    warmup: float = DEFAULT_WARMUP
    interval: float = DEFAULT_INTERVAL
    seed: int = 0
    #: Telemetry-degradation knobs for the policy's sensor suite
    #: (``None`` = perfect sensing).
    sensors: SensorConfig | None = None
    #: Actuation-fault knobs for the policy's control plane
    #: (``None`` = every write lands).
    faults: ActuationFaultConfig | None = None


@dataclass
class ColocationResult:
    """Measurements from one colocation run."""

    config: MixConfig
    #: Raw ML performance (steps/s or QPS).
    ml_perf: float
    #: ML performance normalized to the standalone run (1.0 = no loss).
    ml_perf_norm: float
    #: Raw p95 latency, seconds (inference only).
    ml_tail: float | None
    #: p95 latency normalized to standalone (inference only).
    ml_tail_norm: float | None
    #: Aggregate CPU throughput, work units/s (0 when no CPU workload).
    cpu_throughput: float
    #: Controller knob history (empty for BL / HW-QOS).
    params: list[ControlTickRecord] = field(default_factory=list)
    #: Simulator events dispatched during the run (perf observability).
    events_dispatched: int = 0
    #: Snapshot of the machine's :class:`~repro.hw.contention.SolverStats`
    #: (solves, cache hit rate, short-circuits, fixed-point rounds).
    solver_stats: dict[str, float] = field(default_factory=dict)


_STANDALONE_CACHE: dict[tuple, tuple[float, float | None]] = {}


def standalone_performance(
    ml: str,
    duration: float = DEFAULT_DURATION,
    warmup: float = DEFAULT_WARMUP,
    seed: int = 0,
) -> tuple[float, float | None]:
    """ML performance (and tail) with no colocation, BL configuration.

    Cached per parameter set: every normalized number in the evaluation
    divides by this run.
    """
    key = (ml, duration, warmup, seed)
    if key not in _STANDALONE_CACHE:
        result = run_colocation(
            MixConfig(ml=ml, policy="BL", cpu=None, duration=duration,
                      warmup=warmup, seed=seed)
        )
        _STANDALONE_CACHE[key] = (result.ml_perf, result.ml_tail)
    return _STANDALONE_CACHE[key]


def _telemetry_sample(node: Node) -> dict[str, float]:
    """One windowed read of the run-observer's dedicated perf reader."""
    reading = node.perf.read("obs")
    return {
        "time": node.sim.now,
        "window_s": reading.elapsed,
        "socket_bw_gbps": reading.socket_bandwidth_gbps.get(node.accel_socket, 0.0),
        "socket_latency": reading.socket_latency_factor.get(
            node.accel_socket, 1.0
        ),
        "saturation": reading.socket_saturation.get(node.accel_socket, 0.0),
        "hipri_bw_gbps": reading.subdomain_bandwidth_gbps.get(
            node.hi_subdomain, 0.0
        ),
        "lopri_bw_gbps": reading.subdomain_bandwidth_gbps.get(
            node.lo_subdomain, 0.0
        ),
        "socket_throttle": reading.socket_throttle.get(node.accel_socket, 1.0),
    }


def run_colocation(
    config: MixConfig,
    tracer: TimelineTracer | None = None,
    observer: "RunObserver | None" = None,
    label: str | None = None,
) -> ColocationResult:
    """Execute one colocation run and collect its measurements.

    ``observer`` (a :class:`repro.obs.RunObserver`) additionally exports the
    controller's tick records, solver stats and a telemetry time-series
    sampled every control interval. When ``observer`` is ``None`` or
    disabled, the run pays no observability cost at all.
    """
    if config.duration <= config.warmup:
        raise ExperimentError("duration must exceed warmup")
    factory = ml_workload(config.ml)
    sim = Simulator()
    node = Node.create(factory.host_spec(), sim)
    policy: IsolationPolicy = make_policy(
        config.policy,
        node,
        ml_cores=factory.default_cores(),
        interval=config.interval,
        sensors=config.sensors,
        faults=config.faults,
    )
    policy.prepare()

    ml_instance: MlInstance = factory.build(
        node.machine,
        policy.ml_placement(),
        warmup_until=config.warmup,
        seed=config.seed,
        tracer=tracer,
    )
    ml_instance.start()
    cpu_tasks: list[BatchTask] = []
    if config.cpu is not None:
        cpu_tasks = policy.place(
            cpu_workload(config.cpu, config.intensity), warmup=config.warmup
        )
    if policy.loop is not None:
        sim.every(
            config.interval, policy.tick, label="policy:tick",
            priority=PRIORITY_CONTROL,
        )

    observing = observer is not None and observer.enabled
    telemetry_rows: list[dict[str, float]] = []
    if observing:
        sim.every(
            config.interval,
            lambda: telemetry_rows.append(_telemetry_sample(node)),
            label="obs:telemetry",
            priority=PRIORITY_OBSERVE,
        )

    sim.run_until(config.duration)
    if tracer is not None:
        tracer.flush(sim.now)

    ml_perf = ml_instance.performance(config.duration)
    ml_tail = ml_instance.tail_latency()
    ref_perf, ref_tail = (
        standalone_performance(config.ml, config.duration, config.warmup, config.seed)
        if (config.cpu is not None or config.policy != "BL")
        else (ml_perf, ml_tail)
    )
    cpu_throughput = sum(task.throughput(config.duration) for task in cpu_tasks)
    result = ColocationResult(
        config=config,
        ml_perf=ml_perf,
        ml_perf_norm=ml_perf / ref_perf if ref_perf > 0 else 0.0,
        ml_tail=ml_tail,
        ml_tail_norm=(
            ml_tail / ref_tail if (ml_tail is not None and ref_tail) else None
        ),
        cpu_throughput=cpu_throughput,
        params=policy.tick_history(),
        events_dispatched=sim.dispatched_events,
        solver_stats=node.machine.solver_stats.as_dict(),
    )
    if observing:
        run_label = label or f"{config.ml}+{config.cpu or 'none'}:{config.policy}"
        observer.record_colocation(
            run_label,
            result,
            ticks=policy.tick_history(),
            telemetry=telemetry_rows,
            journal=policy.actuation_journal(),
        )
        if tracer is not None:
            observer.observe_tracer(run_label, tracer)
    return result
