"""The ``fleet-sim`` experiment family: cluster-scale QoS evaluation.

One invocation runs ``trials`` independent fleet simulations (same shape,
different seeds) and aggregates per-tenant SLO outcomes and fleet-level
statistics. Trials are independent points in the :mod:`repro.parallel`
sense, so ``jobs > 1`` fans them out over a process pool with bit-identical
results: each trial's :class:`~repro.fleet.config.FleetConfig` carries its
own derived seed, and the fleet orchestrator draws every random stream from
that seed alone.

The trial frame the other fleet families build on lives here too: they seed
their trials with :func:`trial_configs`, aggregate them into
:class:`FleetTrials`, export them with :func:`observe_trials` and print
them with :func:`tenant_table`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Sequence

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
class FleetTrials:
    """Trials of one fleet shape, aggregated; the fleet families' result."""

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

    @classmethod
    def aggregate(
        cls, config: FleetConfig, results: Sequence[FleetResult], **fields
    ):
        """Aggregate the per-trial ``results`` of ``config``'s fleet shape;
        ``fields`` fill a subclass's own fields."""

        def mean(name: str) -> float:
            return sum(getattr(r, name) for r in results) / len(results)

        return cls(
            nodes=config.nodes,
            policy=config.policy,
            routing=config.routing,
            ml=config.ml,
            trials=len(results),
            tenant_rows=aggregate_tenants(results),
            fraction_saturated=mean("fraction_saturated"),
            serving_yield=mean("serving_yield"),
            batch_yield=mean("batch_yield"),
            efficiency=mean("efficiency"),
            batch_evictions=sum(r.batch_evictions for r in results),
            summaries=tuple(r.summary() for r in results),
            results=tuple(results),
            **fields,
        )


def trial_configs(
    base: FleetConfig, trials: int, seed: int
) -> list[FleetConfig]:
    """``base`` once per trial, each with its trial's derived seed."""
    if trials < 1:
        raise ExperimentError("trials must be >= 1")
    return [
        replace(base, seed=point_seed(seed, trial)) for trial in range(trials)
    ]


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
) -> FleetTrials:
    """Run the fleet simulation family and aggregate over trials.

    ``load`` is the aggregate per-node offered load across the two default
    tenants (their 70/30-ish split is preserved); ``None`` keeps the
    canonical 0.50. ``jobs`` parallelizes trials; the per-trial seed chain
    (:func:`repro.parallel.point_seed`) makes the output independent of the
    worker count.
    """
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
    results = run_points(
        run_fleet, trial_configs(base, trials, seed), jobs=jobs, base_seed=seed
    )
    result = FleetTrials.aggregate(base, results)
    _observe(result, observer)
    return result


def aggregate_tenants(
    results: Sequence[FleetResult],
) -> tuple[TenantSummary, ...]:
    """Each tenant's outcome pooled over the per-trial ``results``."""
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


def observe_trials(
    observer: "RunObserver", result: FleetTrials, scope: str, **config
) -> None:
    """Export what every fleet family shares: the fleet shape plus the
    family's ``config`` keys, then each trial's seed and ``<scope>_run``
    row, then one ``<scope>_tenant`` row per aggregated tenant."""
    observer.note_config(
        fleet_nodes=result.nodes,
        fleet_policy=result.policy,
        fleet_routing=result.routing,
        fleet_ml=result.ml,
        fleet_trials=result.trials,
        **config,
    )
    for trial, summary in enumerate(result.summaries):
        observer.note_seed(f"{scope}.trial{trial}.seed", int(summary["seed"]))
        row = {k: v for k, v in summary.items() if k not in (
            "windows", "window_fleet",
        )}
        observer.record(f"{scope}_run", trial=trial, **row)
    for row in result.tenant_rows:
        observer.record(
            f"{scope}_tenant",
            tenant=row.name,
            slo_p99_ms=row.slo_p99_ms,
            attainment=row.attainment,
            goodput_qps=row.goodput_qps,
            p99_ms=row.p99_ms,
            slo_met_all_trials=row.slo_met_all_trials,
        )


def _observe(result: FleetTrials, observer: "RunObserver | None") -> None:
    if observer is None or not observer.enabled:
        return
    observe_trials(observer, result, "fleet")
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


def tenant_table(rows: tuple[TenantSummary, ...]) -> list[str]:
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


def format_fleet_sim(result: FleetTrials) -> str:
    """Render the fleet-sim outcome as the CLI table."""
    lines = [
        (
            f"fleet-sim: {result.nodes} nodes x {result.policy} "
            f"({result.routing} routing), ml={result.ml}, "
            f"trials={result.trials}"
        ),
        "",
        *tenant_table(result.tenant_rows),
        "",
        f"fraction saturated   {result.fraction_saturated:.1%}",
        f"serving yield        {result.serving_yield:.1%}",
        f"batch yield          {result.batch_yield:.1%}",
        f"fleet efficiency     {result.efficiency:.1%}",
        f"batch evictions      {result.batch_evictions}",
    ]
    return "\n".join(lines)
