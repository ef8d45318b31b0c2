"""The ``fleet-incidents`` experiment family: faults, detection, response.

For each trial the family replays the *same* trace under the same fleet
seed three times — clean (no faults), faulted without remediation, and
faulted with auto-remediation — and scores every scheduled incident from
the three runs: detection latency, localization accuracy, and SLO damage
with / without remediation against the clean counterfactual (see
:mod:`repro.incidents.score`). Because admission accounting counts a
request as offered before any fault can touch it, all three runs offer an
identical stream and damage is a plain difference of SLO-good counts.

Trials are independent sweep points (three runs each); the trace, the
incident schedule and the detector thresholds ship to workers once via the
sweep context, so results are bit-identical for any ``--jobs`` value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ExperimentError
from repro.experiments.fleet_sim import trial_configs
from repro.experiments.fleet_trace import format_hours, replay_setup
from repro.fleet.config import FleetConfig
from repro.fleet.orchestrator import run_fleet
from repro.incidents.engine import IncidentEngine
from repro.incidents.faults import (
    INCIDENT_KINDS,
    IncidentSchedule,
    default_schedule,
    load_scenario,
)
from repro.incidents.score import Scorecard, score_trial
from repro.parallel import run_points, sweep_context
from repro.traces import Trace, TraceGenConfig

if TYPE_CHECKING:
    from repro.obs.recorder import RunObserver

#: The three runs of one trial, in point order.
MODES = ("clean", "norem", "rem")


@dataclass(frozen=True)
class IncidentClassRow:
    """One incident class aggregated over trials."""

    kind: str
    target: str
    trials: int
    detected: int
    localized: int
    mean_detection_latency_s: float | None
    mean_damage_norem: float
    mean_damage_rem: float

    @property
    def mean_damage_avoided(self) -> float:
        return self.mean_damage_norem - self.mean_damage_rem


@dataclass(frozen=True)
class FleetIncidentsResult:
    """Aggregated outcome of one fleet-incidents invocation."""

    nodes: int
    policy: str
    routing: str
    ml: str
    trials: int
    source: str
    requests: int
    trace_duration_s: float
    interval: float
    schedule: IncidentSchedule
    #: Scenario provenance: ``generated(seed=…)`` or a scenario file path.
    scenario_source: str
    #: Per trial: ``{"clean"|"norem"|"rem": fleet summary dict}``.
    summaries: tuple[dict, ...]
    #: Per trial: ``{"clean"|"norem"|"rem": engine export dict}``.
    exports: tuple[dict, ...]
    scorecards: tuple[Scorecard, ...]
    class_rows: tuple[IncidentClassRow, ...]
    trace: Trace

    def artifact(self) -> dict:
        """The JSON-clean artifact the determinism tests compare."""
        return {
            "scenario": self.schedule.as_dict(),
            "summaries": list(self.summaries),
            "exports": list(self.exports),
            "scorecards": [card.as_dict() for card in self.scorecards],
        }


def _run_point(point: tuple[FleetConfig, str]) -> tuple[dict, dict]:
    """One (config, mode) run — module-level for the process pool.

    The scorecard reads only the summary and the engine export, so the
    per-interval telemetry rows are not collected.
    """
    config, mode = point
    trace, schedule = sweep_context()
    engine = IncidentEngine(
        schedule=(
            schedule
            if mode != "clean"
            else IncidentSchedule(seed=schedule.seed)
        ),
        remediate=(mode == "rem"),
    )
    result = run_fleet(
        config, collect_telemetry=False, trace=trace, hooks=engine
    )
    return result.summary(), engine.export()


def _resolve_schedule(
    schedule: IncidentSchedule | None,
    scenario_path: str | None,
    classes: tuple[str, ...],
    incident_seed: int,
    duration: float,
    nodes: int,
    **knobs,
) -> tuple[IncidentSchedule, str]:
    if schedule is not None and scenario_path is not None:
        raise ExperimentError("pass at most one of schedule or scenario_path")
    if schedule is not None:
        return schedule, "caller"
    if scenario_path is not None:
        return load_scenario(scenario_path), scenario_path
    resolved = default_schedule(
        duration, nodes, seed=incident_seed, classes=classes, **knobs
    )
    return resolved, f"generated(seed={incident_seed})"


def _aggregate_classes(
    scorecards: tuple[Scorecard, ...],
) -> tuple[IncidentClassRow, ...]:
    rows: list[IncidentClassRow] = []
    if not scorecards:
        return ()
    for index, spec_score in enumerate(scorecards[0].incidents):
        per_trial = [card.incidents[index] for card in scorecards]
        latencies = [
            s.detection_latency_s
            for s in per_trial
            if s.detection_latency_s is not None
        ]
        rows.append(
            IncidentClassRow(
                kind=spec_score.kind,
                target=spec_score.target,
                trials=len(per_trial),
                detected=len(latencies),
                localized=sum(s.localization_correct for s in per_trial),
                mean_detection_latency_s=(
                    sum(latencies) / len(latencies) if latencies else None
                ),
                mean_damage_norem=(
                    sum(s.damage_norem for s in per_trial) / len(per_trial)
                ),
                mean_damage_rem=(
                    sum(s.damage_rem for s in per_trial) / len(per_trial)
                ),
            )
        )
    return tuple(rows)


def run_fleet_incidents(
    trace: Trace | None = None,
    trace_path: str | None = None,
    gen: TraceGenConfig | None = None,
    schedule: IncidentSchedule | None = None,
    scenario_path: str | None = None,
    classes: tuple[str, ...] = INCIDENT_KINDS,
    incident_seed: int | None = None,
    intruder_rate_qps: float | None = None,
    intruder_demand: float = 300.0,
    batch_workload: str = "stream",
    batch_intensity: int = 12,
    drop_fraction: float = 0.5,
    nodes: int = 3,
    policy: str = "KP",
    routing: str = "random",
    ml: str = "rnn1",
    duration: float | None = None,
    warmup: float | None = None,
    interval: float | None = None,
    window_s: float | None = None,
    trials: int = 1,
    seed: int = 0,
    jobs: int = 1,
    observer: "RunObserver | None" = None,
) -> FleetIncidentsResult:
    """Run the incident scenario over a trace replay and score it.

    Each trial costs three fleet runs (clean / faulted / remediated); the
    incident schedule comes from ``schedule``, a ``scenario_path`` file, or
    :func:`~repro.incidents.faults.default_schedule` over ``classes`` with
    ``incident_seed`` (default: ``seed``).
    """
    resolved_trace, source, base = replay_setup(
        trace, trace_path, gen, nodes=nodes, policy=policy, routing=routing,
        ml=ml, duration=duration, warmup=warmup, interval=interval,
        window_s=window_s, seed=seed,
    )
    resolved_schedule, scenario_source = _resolve_schedule(
        schedule,
        scenario_path,
        tuple(classes),
        incident_seed if incident_seed is not None else seed,
        base.duration,
        base.nodes,
        intruder_rate_qps=intruder_rate_qps,
        intruder_demand=intruder_demand,
        batch_workload=batch_workload,
        batch_intensity=batch_intensity,
        drop_fraction=drop_fraction,
    )
    for spec in resolved_schedule.incidents:
        if spec.node is not None and spec.node >= base.nodes:
            raise ExperimentError(
                f"incident {spec.kind!r} targets node {spec.node} but the "
                f"fleet has {base.nodes} nodes"
            )
        if spec.end_s > base.duration:
            raise ExperimentError(
                f"incident {spec.kind!r} ends at {spec.end_s:.0f}s, beyond "
                f"the {base.duration:.0f}s replay horizon"
            )

    # One pool point per (trial, mode), so that --jobs spreads even a
    # single trial's three runs.
    points = [
        (config, mode)
        for config in trial_configs(base, trials, seed)
        for mode in MODES
    ]
    outcomes = run_points(
        _run_point,
        points,
        jobs=jobs,
        base_seed=seed,
        context=(resolved_trace, resolved_schedule),
    )

    summaries: list[dict] = []
    exports: list[dict] = []
    scorecards: list[Scorecard] = []
    for trial in range(trials):
        by_mode_summary = {}
        by_mode_export = {}
        for offset, mode in enumerate(MODES):
            summary, export = outcomes[trial * len(MODES) + offset]
            by_mode_summary[mode] = summary
            by_mode_export[mode] = export
        summaries.append(by_mode_summary)
        exports.append(by_mode_export)
        scorecards.append(
            score_trial(
                resolved_schedule,
                by_mode_export["clean"],
                by_mode_export["norem"],
                by_mode_export["rem"],
                interval=base.interval,
                duration=base.duration,
            )
        )

    result = FleetIncidentsResult(
        nodes=base.nodes,
        policy=base.policy,
        routing=base.routing,
        ml=base.ml,
        trials=trials,
        source=source,
        requests=len(resolved_trace),
        trace_duration_s=resolved_trace.duration_s,
        interval=base.interval,
        schedule=resolved_schedule,
        scenario_source=scenario_source,
        summaries=tuple(summaries),
        exports=tuple(exports),
        scorecards=tuple(scorecards),
        class_rows=_aggregate_classes(tuple(scorecards)),
        trace=resolved_trace,
    )
    _observe(result, observer)
    return result


def _observe(
    result: FleetIncidentsResult, observer: "RunObserver | None"
) -> None:
    if observer is None or not observer.enabled:
        return
    observer.note_config(
        fleet_nodes=result.nodes,
        fleet_policy=result.policy,
        fleet_routing=result.routing,
        fleet_ml=result.ml,
        fleet_trials=result.trials,
        trace_source=result.source,
        trace_requests=result.requests,
        trace_duration_s=result.trace_duration_s,
        incident_scenario=result.scenario_source,
        incident_seed=result.schedule.seed,
        incident_classes=list(result.schedule.kinds),
    )
    for trial, by_mode in enumerate(result.summaries):
        observer.note_seed(
            f"incidents.trial{trial}.seed", int(by_mode["clean"]["seed"])
        )
    for trial, card in enumerate(result.scorecards):
        for score in card.incidents:
            row = score.as_dict()
            row["incident_kind"] = row.pop("kind")
            observer.record("incident", trial=trial, **row)
        by_mode = result.exports[trial]
        for mode in ("norem", "rem"):
            for alarm in by_mode[mode]["alarms"]:
                observer.record("alarm", trial=trial, mode=mode, **alarm)
        for action in by_mode["rem"]["remediations"]:
            observer.record("remediation", trial=trial, **action)
    total_avoided = sum(
        card.total_damage_norem - card.total_damage_rem
        for card in result.scorecards
    )
    observer.metrics.counter("incidents.scheduled").inc(
        len(result.schedule) * result.trials
    )
    observer.metrics.counter("incidents.slo_damage_avoided").inc(
        max(total_avoided, 0)
    )
    for row in result.class_rows:
        if row.mean_detection_latency_s is not None:
            observer.metrics.histogram(
                "incidents.detection_latency_s", kind=row.kind
            ).observe(row.mean_detection_latency_s)


def format_fleet_incidents(result: FleetIncidentsResult) -> str:
    """Render the incident scorecard."""
    lines = [
        (
            f"fleet-incidents: {len(result.schedule)} incidents over "
            f"{format_hours(result.trace_duration_s).strip()} x {result.trials} "
            f"trial(s) -> {result.nodes} nodes x {result.policy} "
            f"({result.routing} routing), ml={result.ml}"
        ),
        f"trace source: {result.source}; scenario: {result.scenario_source}",
        "",
        f"{'incident':<20} {'detect':>8} {'detector':>20} {'localized':>10} "
        f"{'damage':>8} {'remedied':>9} {'avoided':>8}",
    ]
    for row in result.class_rows:
        detect = (
            f"{row.mean_detection_latency_s:.0f}s"
            if row.mean_detection_latency_s is not None
            else "-"
        )
        detector = "-"
        localized = f"{row.localized}/{row.trials}"
        for card in result.scorecards:
            for score in card.incidents:
                if score.kind == row.kind and score.detected_by:
                    detector = score.detected_by
                    break
            if detector != "-":
                break
        lines.append(
            f"{row.kind:<20} {detect:>8} {detector:>20} {localized:>10} "
            f"{row.mean_damage_norem:>8.1f} {row.mean_damage_rem:>9.1f} "
            f"{row.mean_damage_avoided:>8.1f}"
        )
    totals = [
        (
            card.total_damage_norem,
            card.total_damage_rem,
            card.offered,
        )
        for card in result.scorecards
    ]
    mean = lambda xs: sum(xs) / len(xs)  # noqa: E731
    lines += [
        "",
        f"offered per trial        {mean([t[2] for t in totals]):.0f}",
        f"SLO damage, no response  {mean([t[0] for t in totals]):.1f}",
        f"SLO damage, remediated   {mean([t[1] for t in totals]):.1f}",
        (
            "damage avoided           "
            f"{mean([t[0] - t[1] for t in totals]):.1f}"
        ),
    ]
    return "\n".join(lines)
