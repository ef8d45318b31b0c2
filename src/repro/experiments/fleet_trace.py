"""The ``fleet-trace`` experiment family: trace-driven fleet replay.

Where ``fleet-sim`` offers fixed-rate open-loop load, ``fleet-trace``
replays a production-style workload trace (:mod:`repro.traces`) over the
fleet orchestrator: per-request arrival times, tenants and job-family
demands come from the trace, and the run reports per-tenant SLO attainment
and fleet efficiency as *time-of-day curves* over the trace horizon.

The trace can come from three places: an in-memory :class:`Trace`, a trace
file (``trace_path``), or the synthetic generator (``gen``). Trials replay
the same trace under different orchestrator seeds (router tie-breaks,
node-local noise), isolating the scheduling variance from the workload.
Trials are independent points in the :mod:`repro.parallel` sense: the trace
ships to workers once via the sweep context, and per-trial seeds derive
from :func:`repro.parallel.point_seed`, so results are bit-identical for
any ``jobs`` value. The other replay families (``fleet-serve``,
``fleet-incidents``) set up their replay with :func:`replay_setup` too.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.control.actuators import ActuationFaultConfig
from repro.control.sensors import SensorConfig
from repro.errors import ExperimentError
from repro.experiments.fleet_sim import (
    FleetTrials,
    observe_trials,
    tenant_table,
    trial_configs,
)
from repro.fleet.config import FleetConfig
from repro.fleet.orchestrator import (
    FleetResult,
    fleet_config_for_trace,
    run_fleet,
)
from repro.parallel import run_points, sweep_context
from repro.traces import Trace, TraceGenConfig, generate_trace, load_trace

if TYPE_CHECKING:
    from repro.obs.recorder import RunObserver

#: Windowed-curve rows exported to the observer (first trial only).
_MAX_WINDOW_ROWS = 4096


@dataclass(frozen=True)
class FleetTraceResult(FleetTrials):
    """Aggregated outcome of one fleet-trace invocation."""

    #: Where the trace came from (generator config, file path, or caller).
    source: str
    requests: int
    trace_duration_s: float
    window_s: float
    #: Trial 0's per-(window, tenant) SLO curve rows.
    windows: tuple[dict, ...]
    #: Trial 0's per-window fleet curve rows (pooled yield + saturation).
    window_fleet: tuple[dict, ...]
    #: The replayed trace itself (for ``--save-trace`` and inspection).
    trace: Trace


def _run_trial(config: FleetConfig) -> FleetResult:
    """Module-level trial evaluator (picklable for the process pool).

    The trace rides in on the sweep context — installed identically on the
    serial path and in every pool worker, so it never needs to survive a
    per-point pickle round trip. Nothing the family reports reads the
    per-interval telemetry rows, so they are not collected.
    """
    return run_fleet(config, collect_telemetry=False, trace=sweep_context())


def replay_setup(
    trace: Trace | None,
    trace_path: str | None,
    gen: TraceGenConfig | None,
    *,
    nodes: int,
    policy: str,
    routing: str,
    ml: str,
    duration: float | None,
    warmup: float | None,
    interval: float | None,
    window_s: float | None,
    seed: int,
    sensors: SensorConfig | None = None,
    faults: ActuationFaultConfig | None = None,
) -> tuple[Trace, str, FleetConfig]:
    """The trace a replay family runs, where it came from, and the fleet
    shape that replays it.

    At most one of ``trace``, ``trace_path`` and ``gen`` may be given; with
    none, a short synthetic day scaled to ``duration`` is generated. Horizon
    knobs left ``None`` keep :func:`fleet_config_for_trace`'s trace-scaled
    defaults; ``duration`` is clipped to the trace horizon.
    """
    if sum(x is not None for x in (trace, trace_path, gen)) > 1:
        raise ExperimentError(
            "pass at most one of trace, trace_path or gen"
        )
    if trace is not None:
        source = "caller"
    elif trace_path is not None:
        trace, source = load_trace(trace_path), trace_path
    else:
        if gen is None:
            gen = TraceGenConfig(seed=seed, duration_s=duration or 120.0)
        trace, source = generate_trace(gen), f"generated(seed={gen.seed})"
    overrides: dict = {
        "nodes": nodes,
        "policy": policy,
        "routing": routing,
        "ml": ml,
    }
    if duration is not None:
        overrides["duration"] = min(duration, trace.duration_s)
    if warmup is not None:
        overrides["warmup"] = warmup
    if interval is not None:
        overrides["interval"] = interval
    if window_s is not None:
        overrides["window_s"] = window_s
    config = fleet_config_for_trace(trace, seed=seed, **overrides)
    if sensors is not None or faults is not None:
        config = replace(config, sensors=sensors, faults=faults)
    return trace, source, config


def run_fleet_trace(
    trace: Trace | None = None,
    trace_path: str | None = None,
    gen: TraceGenConfig | None = None,
    nodes: int = 4,
    policy: str = "KP",
    routing: str = "least-loaded",
    ml: str = "rnn1",
    duration: float | None = None,
    warmup: float | None = None,
    interval: float | None = None,
    window_s: float | None = None,
    trials: int = 1,
    seed: int = 0,
    jobs: int = 1,
    observer: "RunObserver | None" = None,
    sensors: SensorConfig | None = None,
    faults: ActuationFaultConfig | None = None,
) -> FleetTraceResult:
    """Replay a workload trace over the fleet and aggregate over trials.

    ``duration`` defaults to the trace horizon (pass less to replay a
    prefix); ``window_s`` defaults to 1/24th of the horizon (hour-of-day
    buckets for a day-long trace). ``jobs`` parallelizes trials with
    bit-identical results.
    """
    trace, source, base = replay_setup(
        trace, trace_path, gen, nodes=nodes, policy=policy, routing=routing,
        ml=ml, duration=duration, warmup=warmup, interval=interval,
        window_s=window_s, seed=seed, sensors=sensors, faults=faults,
    )
    results = run_points(
        _run_trial,
        trial_configs(base, trials, seed),
        jobs=jobs,
        base_seed=seed,
        context=trace,
    )
    result = FleetTraceResult.aggregate(
        base,
        results,
        source=source,
        requests=len(trace),
        trace_duration_s=trace.duration_s,
        window_s=float(base.window_s or 0.0),
        windows=results[0].windows,
        window_fleet=results[0].window_fleet,
        trace=trace,
    )
    _observe(result, observer)
    return result


def _observe(
    result: FleetTraceResult, observer: "RunObserver | None"
) -> None:
    if observer is None or not observer.enabled:
        return
    trace = result.trace
    observe_trials(
        observer,
        result,
        "fleet",
        trace_source=result.source,
        trace_requests=result.requests,
        trace_duration_s=result.trace_duration_s,
        trace_tenants=[t.name for t in trace.tenants],
        trace_families=[f.name for f in trace.families],
        trace_meta=dict(trace.meta),
        trace_window_s=result.window_s,
    )
    for row in result.windows[:_MAX_WINDOW_ROWS]:
        observer.record("fleet_window", trial=0, scope="tenant", **row)
    for row in result.window_fleet[:_MAX_WINDOW_ROWS]:
        observer.record("fleet_window", trial=0, scope="fleet", **row)
    observer.metrics.gauge(
        "fleet.trace_efficiency", policy=result.policy, routing=result.routing
    ).set(result.efficiency)
    observer.metrics.counter("fleet.trace_requests").inc(result.requests)
    for row in result.tenant_rows:
        observer.metrics.histogram(
            "fleet.tenant_attainment", tenant=row.name
        ).observe(row.attainment)


def format_hours(seconds: float) -> str:
    """A trace time as hours (``05.25h``) from one hour on, else seconds."""
    if seconds >= 3600:
        return f"{seconds / 3600:05.2f}h"
    return f"{seconds:6.1f}s"


def format_fleet_trace(result: FleetTraceResult) -> str:
    """Render the fleet-trace outcome: tenant table + time-of-day curve."""
    lines = [
        (
            f"fleet-trace: {result.requests} requests over "
            f"{format_hours(result.trace_duration_s).strip()} -> "
            f"{result.nodes} nodes x {result.policy} "
            f"({result.routing} routing), ml={result.ml}, "
            f"trials={result.trials}"
        ),
        f"trace source: {result.source}",
        "",
        *tenant_table(result.tenant_rows),
    ]
    if result.window_fleet:
        lines += [
            "",
            f"time-of-day curve (window = {format_hours(result.window_s).strip()}, "
            "trial 0):",
            f"{'start':>8} {'offered':>8} {'attain':>7} {'eff':>7} "
            f"{'saturated':>9}",
        ]
        for row in result.window_fleet:
            lines.append(
                f"{format_hours(row['start_s']):>8} {row['offered']:>8} "
                f"{row['attainment']:>6.1%} {row['efficiency']:>6.1%} "
                f"{row['fraction_saturated']:>8.1%}"
            )
    lines += [
        "",
        f"fraction saturated   {result.fraction_saturated:.1%}",
        f"serving yield        {result.serving_yield:.1%}",
        f"fleet efficiency     {result.efficiency:.1%}",
    ]
    return "\n".join(lines)
