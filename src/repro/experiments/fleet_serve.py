"""The ``fleet-serve`` experiment family: the serving control plane.

Where ``fleet-trace`` replays a trace through one opaque orchestrator run,
``fleet-serve`` drives the same replay through :class:`repro.serve.FleetService`
— epoch-stepped, with control commands applied at scheduled epoch
boundaries (tenant eviction/admission, routing swaps, manual grow/shrink),
an optional demand-driven autoscaler, and checkpoint/restore of the live
service.

Trials are independent points in the :mod:`repro.parallel` sense: the trace
and the serve plan (epoch length, autoscaler config, command schedule) ship
to workers once via the sweep context, and per-trial seeds derive from
:func:`repro.parallel.point_seed` — results are bit-identical for any
``jobs`` value, and a command-free, autoscaler-free run is bit-identical to
``fleet-trace`` on the same trace and seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.control.actuators import ActuationFaultConfig
from repro.control.sensors import SensorConfig
from repro.errors import ExperimentError
from repro.experiments.fleet_sim import (
    FleetTrials,
    observe_trials,
    tenant_table,
    trial_configs,
)
from repro.experiments.fleet_trace import replay_setup
from repro.fleet.config import FleetConfig
from repro.fleet.orchestrator import FleetResult
from repro.parallel import run_points, sweep_context
from repro.serve import AutoscalerConfig, FleetService
from repro.traces import Trace, TraceGenConfig

if TYPE_CHECKING:
    from repro.obs.recorder import RunObserver

#: Epoch snapshot rows exported to the observer (first trial only).
_MAX_SNAPSHOT_ROWS = 4096

#: Command verbs accepted in a schedule entry (``EPOCH:VERB[:ARG]``).
_COMMAND_VERBS = ("evict", "admit", "routing", "grow", "shrink")


@dataclass(frozen=True)
class FleetServeResult(FleetTrials):
    """Aggregated outcome of one fleet-serve invocation."""

    source: str
    requests: int
    trace_duration_s: float
    epoch_s: float
    #: Epochs stepped per trial (identical across trials).
    epochs: int
    autoscaled: bool
    #: Trial 0's epoch-boundary snapshots (JSON-clean rows).
    snapshots: tuple[dict, ...]
    #: Trial 0's applied-command audit log, ``(epoch, command)`` rows.
    commands: tuple[tuple[int, str], ...]
    trace: Trace


def parse_schedule(
    specs: Sequence[str],
) -> tuple[tuple[int, str, str | None], ...]:
    """Parse ``EPOCH:VERB[:ARG]`` command specs into schedule entries.

    Verbs: ``evict:TENANT``, ``admit:TENANT``, ``routing:NAME``, ``grow``,
    ``shrink``. The epoch is the boundary *before* which the command
    applies — ``10:evict:ads`` evicts ads after epoch 10 completes, so
    epoch 11 is the first epoch served without it.
    """
    schedule = []
    for spec in specs:
        parts = spec.split(":", 2)
        try:
            epoch = int(parts[0])
        except ValueError:
            raise ExperimentError(
                f"bad command spec {spec!r}: epoch must be an integer"
            ) from None
        if epoch < 0 or len(parts) < 2:
            raise ExperimentError(
                f"bad command spec {spec!r}: want EPOCH:VERB[:ARG]"
            )
        verb = parts[1]
        arg = parts[2] if len(parts) > 2 else None
        if verb not in _COMMAND_VERBS:
            raise ExperimentError(
                f"bad command spec {spec!r}: verb must be one of "
                f"{list(_COMMAND_VERBS)}"
            )
        if verb in ("evict", "admit", "routing") and not arg:
            raise ExperimentError(f"command spec {spec!r} needs an argument")
        if verb in ("grow", "shrink") and arg is not None:
            raise ExperimentError(f"command spec {spec!r} takes no argument")
        schedule.append((epoch, verb, arg))
    return tuple(sorted(schedule, key=lambda entry: entry[0]))


def _apply_command(service: FleetService, verb: str, arg: str | None) -> None:
    if verb == "evict":
        service.evict_tenant(arg)
    elif verb == "admit":
        service.admit_tenant(arg)
    elif verb == "routing":
        service.swap_routing(arg)
    elif verb == "grow":
        service.grow()
    else:
        service.shrink()


def drive_service(
    service: FleetService,
    schedule: Sequence[tuple[int, str, str | None]] = (),
    stop_at_epoch: int | None = None,
) -> None:
    """Step the service to the horizon (or ``stop_at_epoch``), applying
    scheduled commands at their epoch boundaries.

    Entries scheduled before the service's current epoch are skipped —
    which is exactly what a restored run wants: commands applied before
    the checkpoint are part of the pickled state, not replayed.
    """
    by_epoch: dict[int, list[tuple[str, str | None]]] = {}
    for epoch, verb, arg in schedule:
        by_epoch.setdefault(epoch, []).append((verb, arg))
    while not service.done:
        if stop_at_epoch is not None and service.epoch >= stop_at_epoch:
            return
        for verb, arg in by_epoch.pop(service.epoch, ()):
            _apply_command(service, verb, arg)
        service.step()


@dataclass(frozen=True)
class _TrialOutcome:
    """Per-trial payload shipped back from pool workers."""

    result: FleetResult
    snapshots: tuple[dict, ...]
    commands: tuple[tuple[int, str], ...]
    epochs: int
    epoch_s: float
    autoscaled: bool


def _run_trial(config: FleetConfig) -> _TrialOutcome:
    """Module-level trial evaluator (picklable for the process pool).

    Restores the checkpoint when the plan names one, else builds and
    starts the service; checkpoints at the planned epoch when asked; then
    serves to the horizon. Nothing the family reports reads the
    per-interval telemetry rows, so they are not collected.
    """
    trace, epoch_s, autoscaler, schedule, save, restore = sweep_context()
    if restore is not None:
        service = FleetService.restore(restore, trace=trace)
    else:
        service = FleetService(
            config,
            trace=trace,
            collect_telemetry=False,
            autoscaler=autoscaler,
            epoch_s=epoch_s,
        )
        service.start()
    if save is not None:
        path, epoch = save
        drive_service(service, schedule, stop_at_epoch=epoch)
        service.save(path)
    drive_service(service, schedule)
    return _TrialOutcome(
        result=service.finish(),
        snapshots=tuple(s.as_dict() for s in service.snapshots),
        commands=tuple(service.commands),
        epochs=service.epoch,
        epoch_s=service.epoch_s,
        autoscaled=service.autoscaler is not None,
    )


def run_fleet_serve(
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
    epoch_s: float | None = None,
    commands: Sequence[str] = (),
    autoscaler: AutoscalerConfig | None = None,
    save_path: str | None = None,
    save_at_epoch: int | None = None,
    restore_path: str | None = None,
    trials: int = 1,
    seed: int = 0,
    jobs: int = 1,
    observer: "RunObserver | None" = None,
    sensors: SensorConfig | None = None,
    faults: ActuationFaultConfig | None = None,
) -> FleetServeResult:
    """Serve a workload trace through the epoch-stepped control plane.

    ``commands`` are ``EPOCH:VERB[:ARG]`` specs (see :func:`parse_schedule`);
    ``epoch_s`` defaults to the fleet control interval. ``save_path`` +
    ``save_at_epoch`` checkpoint trial 0's live service mid-run and then
    continue to the horizon, so a saved run is the plain run;
    ``restore_path`` resumes a checkpoint against the same trace instead of
    starting fresh (fleet shape, epoch length and autoscaler then come from
    the checkpoint, and schedule entries at already-served epochs are
    skipped). Checkpointing is single-run: both require ``trials == 1``.
    """
    if (save_path is None) != (save_at_epoch is None):
        raise ExperimentError(
            "pass save_path and save_at_epoch together"
        )
    checkpointing = save_path is not None or restore_path is not None
    if checkpointing and trials != 1:
        raise ExperimentError("checkpoint/restore requires trials == 1")
    if restore_path is not None and save_path is not None:
        raise ExperimentError("pass either save_path or restore_path")
    schedule = parse_schedule(commands)

    trace, source, base = replay_setup(
        trace, trace_path, gen, nodes=nodes, policy=policy, routing=routing,
        ml=ml, duration=duration, warmup=warmup, interval=interval,
        window_s=window_s, seed=seed, sensors=sensors, faults=faults,
    )
    if restore_path is not None:
        source = f"restored({restore_path})"
    save = (save_path, save_at_epoch) if save_path is not None else None
    outcomes = run_points(
        _run_trial,
        trial_configs(base, trials, seed),
        jobs=jobs,
        base_seed=seed,
        context=(trace, epoch_s, autoscaler, schedule, save, restore_path),
    )

    # A restored run's fleet shape and plan are the checkpoint's, not the
    # arguments'.
    results = [o.result for o in outcomes]
    result = FleetServeResult.aggregate(
        results[0].config,
        results,
        source=source,
        requests=len(trace),
        trace_duration_s=trace.duration_s,
        epoch_s=outcomes[0].epoch_s,
        epochs=outcomes[0].epochs,
        autoscaled=outcomes[0].autoscaled,
        snapshots=outcomes[0].snapshots,
        commands=outcomes[0].commands,
        trace=trace,
    )
    _observe(result, observer)
    return result


def _observe(
    result: FleetServeResult, observer: "RunObserver | None"
) -> None:
    if observer is None or not observer.enabled:
        return
    observe_trials(
        observer,
        result,
        "serve",
        trace_source=result.source,
        trace_requests=result.requests,
        trace_duration_s=result.trace_duration_s,
        serve_epoch_s=result.epoch_s,
        serve_epochs=result.epochs,
        serve_autoscaled=result.autoscaled,
        trace_tenants=[t.name for t in result.trace.tenants],
    )
    for row in result.snapshots[:_MAX_SNAPSHOT_ROWS]:
        observer.record("serve_epoch", trial=0, **row)
    for epoch, command in result.commands:
        observer.record("serve_command", trial=0, epoch=epoch, command=command)
    observer.metrics.gauge(
        "serve.efficiency", policy=result.policy, routing=result.routing
    ).set(result.efficiency)
    observer.metrics.counter("serve.requests").inc(result.requests)


def format_fleet_serve(result: FleetServeResult) -> str:
    """Render the serve outcome: tenant table + epoch/command digest."""
    lines = [
        (
            f"fleet-serve: {result.requests} requests over "
            f"{result.trace_duration_s:.1f}s -> {result.nodes} nodes x "
            f"{result.policy} ({result.routing} routing), ml={result.ml}, "
            f"trials={result.trials}"
        ),
        (
            f"epochs: {result.epochs} x {result.epoch_s:.3g}s"
            f"{', autoscaled' if result.autoscaled else ''}"
            f" | trace source: {result.source}"
        ),
        "",
        *tenant_table(result.tenant_rows),
    ]
    if result.commands:
        lines += ["", "commands applied (trial 0):"]
        for epoch, command in result.commands:
            lines.append(f"  epoch {epoch:>5}  {command}")
    if result.snapshots:
        last = result.snapshots[-1]
        lines += [
            "",
            (
                f"final epoch {last['epoch']}: "
                f"{last['nodes_active']}/{last['nodes_built']} nodes active, "
                f"attainment {last['attainment']:.1%}, "
                f"{last['dropped']} dropped, "
                f"{last['incident_alarms']} alarms"
            ),
        ]
    lines += [
        "",
        f"fraction saturated   {result.fraction_saturated:.1%}",
        f"serving yield        {result.serving_yield:.1%}",
        f"fleet efficiency     {result.efficiency:.1%}",
    ]
    return "\n".join(lines)
