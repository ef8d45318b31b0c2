"""The ``fleet-sim`` experiment family: cluster-scale QoS evaluation.

One invocation runs ``trials`` independent fleet simulations (same shape,
different seeds) and aggregates per-tenant SLO outcomes and fleet-level
statistics. Trials are independent points in the :mod:`repro.parallel`
sense, so ``jobs > 1`` fans them out over a process pool with bit-identical
results: each trial's :class:`~repro.fleet.config.FleetConfig` carries its
own derived seed, and the fleet orchestrator draws every random stream from
that seed alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.control.actuators import ActuationFaultConfig
from repro.control.sensors import SensorConfig
from repro.errors import ExperimentError
from repro.fleet.config import FleetConfig, default_tenants, uniform_batch_jobs
from repro.fleet.orchestrator import FleetResult, run_fleet
from repro.parallel import point_seed, run_points

if TYPE_CHECKING:
    from repro.obs.recorder import RunObserver

#: Telemetry rows exported to the observer (first trial only, capped).
_MAX_TELEMETRY_ROWS = 4096
#: Controller/actuation rows exported to the observer (first trial only).
_MAX_CONTROLLER_ROWS = 4096

#: Default aggregate per-node load of the canonical two-tenant mix.
_DEFAULT_TOTAL_LOAD = sum(t.load_fraction for t in default_tenants())


@dataclass(frozen=True)
class TenantSummary:
    """One tenant's outcome aggregated over the trials."""

    name: str
    slo_p99_ms: float
    offered: int
    completed: int
    attainment: float
    goodput_qps: float
    p99_ms: float | None
    #: True only when the tenant's p99 met its SLO in *every* trial.
    slo_met_all_trials: bool


@dataclass(frozen=True)
class FleetSimResult:
    """Aggregated outcome of one fleet-sim invocation."""

    nodes: int
    policy: str
    routing: str
    ml: str
    trials: int
    tenant_rows: tuple[TenantSummary, ...]
    fraction_saturated: float
    serving_yield: float
    batch_yield: float
    efficiency: float
    batch_evictions: int
    #: One JSON-clean summary per trial, in trial order — the artifact the
    #: determinism tests compare across ``jobs`` values.
    summaries: tuple[dict, ...]
    #: The full per-trial results (validation, benchmarks, observability).
    results: tuple[FleetResult, ...]


def _run_trial(config: FleetConfig) -> FleetResult:
    """Module-level trial evaluator (picklable for the process pool)."""
    return run_fleet(config)


def run_fleet_sim(
    nodes: int = 8,
    policy: str = "KP",
    routing: str = "interference-aware",
    ml: str = "rnn1",
    load: float | None = None,
    duration: float = 8.0,
    warmup: float = 2.0,
    interval: float = 0.5,
    batch_jobs: int = 0,
    batch_workload: str = "stream",
    batch_intensity: int | str = 8,
    batch_eviction: bool = True,
    trials: int = 1,
    seed: int = 0,
    jobs: int = 1,
    observer: "RunObserver | None" = None,
    sensors: SensorConfig | None = None,
    faults: ActuationFaultConfig | None = None,
) -> FleetSimResult:
    """Run the fleet simulation family and aggregate over trials.

    ``load`` is the aggregate per-node offered load across the two default
    tenants (their 70/30-ish split is preserved); ``None`` keeps the
    canonical 0.50. ``jobs`` parallelizes trials; the per-trial seed chain
    (:func:`repro.parallel.point_seed`) makes the output independent of the
    worker count.
    """
    if trials < 1:
        raise ExperimentError("trials must be >= 1")
    if duration <= warmup:
        # Keep short suite/report invocations (e.g. ``--duration 1``) valid:
        # scale the warmup with the horizon instead of rejecting the run.
        warmup = duration / 4.0
    base = FleetConfig(
        nodes=nodes,
        policy=policy,
        routing=routing,
        ml=ml,
        batch_jobs=uniform_batch_jobs(
            batch_jobs, workload=batch_workload, intensity=batch_intensity
        ),
        batch_eviction=batch_eviction,
        duration=duration,
        warmup=warmup,
        interval=interval,
        seed=seed,
        sensors=sensors,
        faults=faults,
    )
    if load is not None:
        base = base.scaled_load(load / _DEFAULT_TOTAL_LOAD)
    from dataclasses import replace

    configs = [
        replace(base, seed=point_seed(seed, trial)) for trial in range(trials)
    ]
    results: list[FleetResult] = run_points(
        _run_trial, configs, jobs=jobs, base_seed=seed
    )

    tenant_rows = _aggregate_tenants(results)
    mean = lambda values: sum(values) / len(values)  # noqa: E731
    result = FleetSimResult(
        nodes=nodes,
        policy=base.policy,
        routing=base.routing,
        ml=base.ml,
        trials=trials,
        tenant_rows=tenant_rows,
        fraction_saturated=mean([r.fraction_saturated for r in results]),
        serving_yield=mean([r.serving_yield for r in results]),
        batch_yield=mean([r.batch_yield for r in results]),
        efficiency=mean([r.efficiency for r in results]),
        batch_evictions=sum(r.batch_evictions for r in results),
        summaries=tuple(r.summary() for r in results),
        results=tuple(results),
    )
    _observe(result, observer)
    return result


def _aggregate_tenants(results: list[FleetResult]) -> tuple[TenantSummary, ...]:
    rows = []
    for index in range(len(results[0].tenants)):
        slices = [r.tenants[index] for r in results]
        p99s = [t.p99_s for t in slices if t.p99_s is not None]
        offered = sum(t.offered for t in slices)
        good = sum(
            round(t.attainment * t.offered) for t in slices
        )
        rows.append(
            TenantSummary(
                name=slices[0].name,
                slo_p99_ms=slices[0].slo_p99_s * 1e3,
                offered=offered,
                completed=sum(t.completed for t in slices),
                attainment=good / offered if offered else 0.0,
                goodput_qps=sum(t.goodput_qps for t in slices) / len(slices),
                p99_ms=max(p99s) * 1e3 if p99s else None,
                slo_met_all_trials=all(t.slo_met for t in slices),
            )
        )
    return tuple(rows)


def _observe(result: FleetSimResult, observer: "RunObserver | None") -> None:
    if observer is None or not observer.enabled:
        return
    observer.note_config(
        fleet_nodes=result.nodes,
        fleet_policy=result.policy,
        fleet_routing=result.routing,
        fleet_ml=result.ml,
        fleet_trials=result.trials,
    )
    for trial, summary in enumerate(result.summaries):
        observer.note_seed(f"fleet.trial{trial}.seed", int(summary["seed"]))
        observer.record("fleet_run", trial=trial, **summary)
    _record_tenants(observer, "fleet_tenant", result.tenant_rows)
    for sample in result.results[0].telemetry[:_MAX_TELEMETRY_ROWS]:
        observer.record("fleet_telemetry", trial=0, **sample)
    for row in result.results[0].controller[:_MAX_CONTROLLER_ROWS]:
        observer.record("fleet_controller", trial=0, **row)
    for row in result.results[0].actuation[:_MAX_CONTROLLER_ROWS]:
        observer.record("fleet_actuation", trial=0, **row)
    observer.metrics.gauge(
        "fleet.efficiency", policy=result.policy, routing=result.routing
    ).set(result.efficiency)
    observer.metrics.gauge(
        "fleet.fraction_saturated", policy=result.policy
    ).set(result.fraction_saturated)
    observer.metrics.counter("fleet.trials").inc(result.trials)
    observer.metrics.counter("fleet.batch_evictions").inc(result.batch_evictions)
    for row in result.tenant_rows:
        observer.metrics.histogram(
            "fleet.tenant_attainment", tenant=row.name
        ).observe(row.attainment)


def _record_tenants(
    observer: "RunObserver", kind: str, rows: tuple[TenantSummary, ...]
) -> None:
    """Export one ``kind`` record per aggregated tenant row."""
    for row in rows:
        observer.record(
            kind,
            tenant=row.name,
            slo_p99_ms=row.slo_p99_ms,
            attainment=row.attainment,
            goodput_qps=row.goodput_qps,
            p99_ms=row.p99_ms,
            slo_met_all_trials=row.slo_met_all_trials,
        )


def _tenant_table(rows: tuple[TenantSummary, ...]) -> list[str]:
    """The per-tenant SLO table of the fleet families' reports."""
    lines = [
        f"{'tenant':<10} {'slo_p99':>8} {'p99':>9} {'attain':>7} "
        f"{'goodput':>9}  slo_met",
    ]
    for row in rows:
        p99 = f"{row.p99_ms:.1f}ms" if row.p99_ms is not None else "-"
        lines.append(
            f"{row.name:<10} {row.slo_p99_ms:>6.1f}ms {p99:>9} "
            f"{row.attainment:>6.1%} {row.goodput_qps:>6.1f}qps  "
            f"{'yes' if row.slo_met_all_trials else 'NO'}"
        )
    return lines


def format_fleet_sim(result: FleetSimResult) -> str:
    """Render the fleet-sim outcome as the CLI table."""
    lines = [
        (
            f"fleet-sim: {result.nodes} nodes x {result.policy} "
            f"({result.routing} routing), ml={result.ml}, "
            f"trials={result.trials}"
        ),
        "",
        *_tenant_table(result.tenant_rows),
        "",
        f"fraction saturated   {result.fraction_saturated:.1%}",
        f"serving yield        {result.serving_yield:.1%}",
        f"batch yield          {result.batch_yield:.1%}",
        f"fleet efficiency     {result.efficiency:.1%}",
        f"batch evictions      {result.batch_evictions}",
    ]
    return "\n".join(lines)
