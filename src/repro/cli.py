"""Command-line entry point: run experiments and colocation mixes.

Usage::

    python -m repro list
    python -m repro run fig05
    python -m repro run fig13 --trace-out out/ --metrics-out out/m.jsonl
    python -m repro run fig07 --ml cnn1
    python -m repro mix --ml cnn1 --policy KP --cpu stitch --intensity 4

Every subcommand but ``list`` runs inside one frame (:func:`main`): the
frame builds the run observer, turns a :class:`~repro.errors.ReproError`
into a one-line ``<name>: <message>`` on stderr with exit status 2, prints
the lines the handler returns, and writes the observability outputs.

Observability: ``--trace-out DIR`` writes a Perfetto-loadable
``trace.json`` plus a run manifest into ``DIR``; ``--metrics-out FILE``
writes the JSONL metric/record stream. See ``docs/observability.md``.
To profile a command, run it under ``python -m cProfile -o FILE -m repro``.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.errors import ConfigurationError, ReproError
from repro.experiments.common import MixConfig, run_colocation
from repro.experiments.registry import accepts, experiment_ids, run_experiment

def _intensity(text: str) -> int | str:
    """Instances or threads as an int; an aggressor level string as-is."""
    return int(text) if text.isdigit() else text


def _add_control_plane_arguments(parser: argparse.ArgumentParser) -> None:
    """Degraded-telemetry and actuation-fault knobs (see docs/architecture.md)."""
    parser.add_argument(
        "--sensor-staleness", type=float, default=0.0, metavar="SECONDS",
        help="sample-and-hold period for controller telemetry (0 = fresh)",
    )
    parser.add_argument(
        "--sensor-noise", type=float, default=0.0, metavar="SIGMA",
        help="multiplicative Gaussian noise sigma on each counter",
    )
    parser.add_argument(
        "--sensor-dropout", type=float, default=0.0, metavar="PROB",
        help="probability each fresh telemetry sample is lost",
    )
    parser.add_argument(
        "--fault-rate", type=float, default=0.0, metavar="PROB",
        help="probability each knob write attempt fails (bounded retry)",
    )
    parser.add_argument(
        "--fault-defer", type=float, default=0.0, metavar="PROB",
        help="probability a knob write is delayed to the next tick",
    )


def _control_plane_configs(args: argparse.Namespace):
    """Materialize (SensorConfig | None, ActuationFaultConfig | None)."""
    from repro.control import ActuationFaultConfig, SensorConfig

    sensors = None
    if args.sensor_staleness or args.sensor_noise or args.sensor_dropout:
        sensors = SensorConfig(
            staleness_period=args.sensor_staleness,
            noise_sigma=args.sensor_noise,
            dropout_prob=args.sensor_dropout,
            seed=args.seed,
        )
    faults = None
    if args.fault_rate or args.fault_defer:
        faults = ActuationFaultConfig(
            fail_prob=args.fault_rate, defer_prob=args.fault_defer,
            seed=args.seed,
        )
    return sensors, faults


def _add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace-out", default=None, metavar="DIR",
        help="write trace.json + manifest into DIR",
    )
    parser.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help="write the JSONL metrics/records stream to FILE",
    )


def _add_trace_source_arguments(
    parser: argparse.ArgumentParser, horizon: float, shape: bool = False
) -> None:
    """Where a replay's trace comes from: a file, or the generator.

    Every generator flag defaults to ``None`` and, but for ``--trace-seed``,
    stores under the :class:`~repro.traces.TraceGenConfig` field it sets,
    so :func:`_trace_gen` passes on only the flags given, and refuses them
    next to ``--trace``. ``shape`` adds the diurnal, burst and churn flags.
    """
    flags: dict[str, str] = {}

    def generator(flag: str, **kwargs) -> None:
        flags[parser.add_argument(flag, default=None, **kwargs).dest] = flag

    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="trace file to replay (.jsonl or .jsonl.gz; see docs/traces.md; "
             "default: a generated trace)",
    )
    generator(
        "--trace-duration", dest="duration_s", type=float, metavar="SECONDS",
        help=f"generated trace horizon (default: {horizon:g})",
    )
    generator(
        "--trace-rate", dest="rate_qps", type=float, metavar="QPS",
        help="generated long-run mean arrival rate across tenants",
    )
    generator(
        "--trace-seed", type=int, help="generator seed (default: --seed)"
    )
    if shape:
        generator(
            "--diurnal-amplitude", type=float,
            help="peak-to-mean diurnal swing in [0, 1); 0 disables",
        )
        generator(
            "--diurnal-peak-hour", type=float,
            help="hour of day (0-24) at which load peaks",
        )
        generator(
            "--burst-multiplier", type=float,
            help="rate multiplier while a tenant bursts; 1 disables",
        )
        generator(
            "--burst-on", dest="burst_on_s", type=float, metavar="SECONDS"
        )
        generator(
            "--burst-off", dest="burst_off_s", type=float, metavar="SECONDS"
        )
        generator(
            "--churn-active", dest="churn_active_s", type=float,
            metavar="SECONDS",
            help="mean active period before a tenant departs",
        )
        generator(
            "--churn-idle", dest="churn_idle_s", type=float, metavar="SECONDS",
            help="mean idle period before a departed tenant returns; "
                 "0 disables",
        )
    parser.set_defaults(generator_flags=flags, trace_horizon=horizon)


def _add_fleet_arguments(
    parser: argparse.ArgumentParser,
    trials: str,
    nodes: int = 4,
    routing: str = "least-loaded",
) -> None:
    """Fleet shape, trials and seeding, shared by the fleet commands."""
    parser.add_argument("--nodes", type=int, default=nodes, help="fleet size")
    parser.add_argument(
        "--policy", default="KP", help="per-node policy: BL | CT | KP-SD | KP"
    )
    parser.add_argument(
        "--routing", default=routing,
        help="random | least-loaded | interference-aware",
    )
    parser.add_argument("--ml", default="rnn1", help="served inference workload")
    parser.add_argument("--trials", type=int, default=1, help=trials)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the trial sweep; results are identical "
             "to a serial run",
    )


def _add_horizon_arguments(parser: argparse.ArgumentParser) -> None:
    """Replay horizon knobs; unset ones scale with the trace."""
    parser.add_argument(
        "--duration", type=float, default=None,
        help="replay horizon, seconds (default: the trace duration)",
    )
    parser.add_argument("--warmup", type=float, default=None)
    parser.add_argument(
        "--interval", type=float, default=None,
        help="fleet control interval (default scales with the horizon)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Kelp: QoS for Accelerated Machine Learning "
            "Systems' (HPCA 2019)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiment ids")

    run = sub.add_parser("run", help="run one experiment and print its table")
    run.set_defaults(handler=_run)
    run.add_argument("experiment", help="experiment id (see 'list')")
    run.add_argument("--ml", help="workload for per-workload experiments")
    run.add_argument(
        "--duration", type=float, default=None,
        help="simulated measurement horizon, seconds",
    )
    run.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for experiments with internal sweeps",
    )

    report = sub.add_parser(
        "report", help="run every experiment and write one report"
    )
    report.set_defaults(handler=_report)
    report.add_argument(
        "--out", default="report.md", help="output path (markdown)"
    )
    report.add_argument("--duration", type=float, default=30.0)
    report.add_argument(
        "--only", nargs="*", default=None,
        help="subset of experiment ids (default: all)",
    )
    report.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the experiment sweep; results are "
             "identical to a serial run",
    )

    fleet = sub.add_parser(
        "fleet-sim",
        help="run the fleet orchestrator (nodes x policy x routing)",
    )
    fleet.set_defaults(handler=_fleet_sim)
    _add_fleet_arguments(
        fleet, "independent fleet replications (aggregated)",
        nodes=8, routing="interference-aware",
    )
    fleet.add_argument(
        "--load", type=float, default=None,
        help="aggregate per-node offered load fraction (default 0.50)",
    )
    fleet.add_argument("--duration", type=float, default=8.0)
    fleet.add_argument("--warmup", type=float, default=2.0)
    fleet.add_argument(
        "--batch-jobs", type=int, default=0,
        help="best-effort batch jobs submitted to the cluster queue",
    )
    fleet.add_argument("--batch-workload", default="stream")
    fleet.add_argument("--batch-intensity", type=_intensity, default="8")
    fleet.add_argument(
        "--no-eviction", action="store_true",
        help="pin batch jobs where first placed (no watermark eviction)",
    )
    _add_control_plane_arguments(fleet)

    trace = sub.add_parser(
        "fleet-trace",
        help="replay a workload trace over the fleet (time-of-day curves)",
    )
    trace.set_defaults(handler=_fleet_trace)
    _add_trace_source_arguments(trace, horizon=86400.0, shape=True)
    trace.add_argument(
        "--trace-gen", action="store_true",
        help="synthesize the trace instead (the default when --trace is "
             "absent; this flag exists to make that choice explicit)",
    )
    trace.add_argument(
        "--save-trace", default=None, metavar="PATH",
        help="write the replayed trace to PATH (.gz suffix gzips)",
    )
    _add_fleet_arguments(
        trace, "independent replays under different orchestrator seeds"
    )
    _add_horizon_arguments(trace)
    trace.add_argument(
        "--window", type=float, default=None, metavar="SECONDS",
        help="accounting window for the time-of-day curves "
             "(default: horizon / 24)",
    )
    _add_control_plane_arguments(trace)

    serve = sub.add_parser(
        "fleet-serve",
        help="drive a trace through the epoch-stepped serving control "
             "plane (live commands, autoscaling, checkpoint/restore)",
    )
    serve.set_defaults(handler=_fleet_serve)
    _add_trace_source_arguments(serve, horizon=120.0)
    _add_fleet_arguments(
        serve, "independent serves under different orchestrator seeds"
    )
    # Unset shape flags stay None, so a restore can tell a given flag from
    # a default; the runner's defaults are the other commands' (4 nodes,
    # KP, least-loaded, rnn1).
    serve.set_defaults(nodes=None, policy=None, routing=None, ml=None)
    _add_horizon_arguments(serve)
    serve.add_argument(
        "--window", type=float, default=None, metavar="SECONDS",
        help="accounting window (default: horizon / 24)",
    )
    serve.add_argument(
        "--epoch", type=float, default=None, metavar="SECONDS",
        help="service epoch length (default: the control interval)",
    )
    serve.add_argument(
        "--command", dest="serve_commands", action="append", default=[],
        metavar="EPOCH:VERB[:ARG]",
        help="control command to apply at an epoch boundary; verbs: "
             "evict:TENANT admit:TENANT routing:NAME grow shrink "
             "(repeatable)",
    )
    serve.add_argument(
        "--autoscale", action="store_true", default=None,
        help="enable the demand-driven autoscaler",
    )
    serve.add_argument(
        "--min-nodes", type=int, default=None,
        help="autoscaler floor (with --autoscale; default 1)",
    )
    serve.add_argument(
        "--max-nodes", type=int, default=None,
        help="autoscaler ceiling (with --autoscale; default 16)",
    )
    serve.add_argument(
        "--save", default=None, metavar="PATH",
        help="checkpoint the live service to PATH at --save-at, then "
             "continue to the horizon",
    )
    serve.add_argument(
        "--save-at", type=int, default=None, metavar="EPOCH",
        help="epoch boundary at which to write --save",
    )
    serve.add_argument(
        "--restore", default=None, metavar="PATH",
        help="resume a checkpoint against the same trace instead of "
             "starting fresh",
    )
    serve.add_argument(
        "--summary-json", default=None, metavar="PATH",
        help="write the per-trial summaries and epoch snapshots as JSON",
    )

    incidents = sub.add_parser(
        "fleet-incidents",
        help="inject a fault scenario into a trace replay, detect, "
             "localize, remediate, and score the SLO damage avoided",
    )
    incidents.set_defaults(handler=_fleet_incidents)
    incidents.add_argument(
        "--scenario", default=None, metavar="PATH",
        help="incident scenario file (JSON; see docs/incidents.md); "
             "default: a generated schedule over --classes",
    )
    incidents.add_argument(
        "--save-scenario", default=None, metavar="PATH",
        help="write the (possibly generated) scenario to PATH",
    )
    incidents.add_argument(
        "--classes", default=None, metavar="KIND[,KIND...]",
        help="incident classes for the generated schedule (default: all "
             "five; conflicts with --scenario)",
    )
    incidents.add_argument(
        "--incident-seed", type=int, default=None,
        help="schedule jitter / intruder-stream seed (default: --seed)",
    )
    incidents.add_argument(
        "--intruder-rate", type=float, default=None, metavar="QPS",
        help="noisy-neighbor arrival rate (default scales with fleet size)",
    )
    incidents.add_argument(
        "--intruder-demand", type=float, default=None,
        help="noisy-neighbor per-request demand multiplier (default 300)",
    )
    incidents.add_argument(
        "--drop-fraction", type=float, default=None,
        help="fraction of arrivals null-routed during routing-misconfig "
             "(default 0.5)",
    )
    _add_trace_source_arguments(incidents, horizon=86400.0)
    _add_fleet_arguments(
        incidents, "independent scenario replays (three fleet runs each)"
    )
    _add_horizon_arguments(incidents)

    mix = sub.add_parser("mix", help="run a single colocation mix")
    mix.set_defaults(handler=_mix)
    mix.add_argument("--ml", required=True, help="rnn1 | cnn1 | cnn2 | cnn3")
    mix.add_argument("--policy", default="BL", help="BL | CT | KP-SD | KP | HW-QOS")
    mix.add_argument("--cpu", default=None, help="stream | stitch | cpuml | ...")
    mix.add_argument(
        "--intensity", type=_intensity, default="1",
        help="instances/threads/level",
    )
    mix.add_argument("--duration", type=float, default=40.0)
    mix.add_argument("--seed", type=int, default=0)
    _add_control_plane_arguments(mix)

    for name, command in sub.choices.items():
        if name != "list":
            _add_obs_arguments(command)
    return parser


def _trace_gen(args: argparse.Namespace):
    """The generator config from the given generator flags; ``None`` when
    ``--trace`` is set, which refuses them all."""
    from repro.traces import TraceGenConfig

    given = _given(args, *args.generator_flags)
    if args.trace is not None:
        if given:
            raise ConfigurationError(
                "--trace replays a saved trace; it cannot be combined with "
                f"{args.generator_flags[next(iter(given))]}"
            )
        return None
    return TraceGenConfig(
        seed=given.pop("trace_seed", args.seed),
        **{"duration_s": args.trace_horizon, **given},
    )


def _given(args: argparse.Namespace, *dests: str) -> dict:
    """The value of each of ``dests`` whose flag was passed, by dest (the
    flags default to ``None`` so that a passed one can be told apart)."""
    return {d: getattr(args, d) for d in dests if getattr(args, d) is not None}


def _flag(dest: str) -> str:
    """The command-line spelling of the flag stored under ``dest``."""
    return "--" + dest.replace("_", "-")


def _replay_kwargs(args: argparse.Namespace, observer) -> dict:
    """The keywords every trace-replay runner takes from the shared flags."""
    if args.trials < 1:
        # The runners refuse it only once their trace is built or loaded.
        raise ConfigurationError("trials must be >= 1")
    return dict(
        trace_path=args.trace, gen=_trace_gen(args),
        duration=args.duration, warmup=args.warmup, interval=args.interval,
        trials=args.trials, seed=args.seed, jobs=args.jobs, observer=observer,
        **_given(args, "nodes", "policy", "routing", "ml"),
    )


def _run(args: argparse.Namespace, observer) -> list[str]:
    takes = accepts(args.experiment)
    kwargs: dict = {}
    if args.ml:
        kwargs["ml"] = args.ml
    if args.duration is not None:
        kwargs["duration"] = args.duration
    if "jobs" in takes:
        kwargs["jobs"] = args.jobs
    if "observer" in takes:
        kwargs["observer"] = observer
    _, text = run_experiment(args.experiment, **kwargs)
    observer.note_config(
        experiment=args.experiment, ml=args.ml, duration=args.duration
    )
    return [text]


def _report(args: argparse.Namespace, observer) -> list[str]:
    from repro.experiments.suite import format_suite, run_suite

    entries = run_suite(
        experiments=args.only, duration=args.duration, jobs=args.jobs,
        observer=observer,
    )
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(format_suite(entries))
    return [f"wrote {args.out} ({len(entries)} experiments)"]


def _fleet_sim(args: argparse.Namespace, observer) -> list[str]:
    from repro.experiments.fleet_sim import format_fleet_sim, run_fleet_sim

    sensors, faults = _control_plane_configs(args)
    result = run_fleet_sim(
        nodes=args.nodes, policy=args.policy, routing=args.routing,
        ml=args.ml, load=args.load, duration=args.duration,
        warmup=args.warmup, batch_jobs=args.batch_jobs,
        batch_workload=args.batch_workload,
        batch_intensity=args.batch_intensity,
        batch_eviction=not args.no_eviction, trials=args.trials,
        seed=args.seed, jobs=args.jobs, observer=observer,
        sensors=sensors, faults=faults,
    )
    observer.note_seed("fleet.seed", args.seed)
    return [format_fleet_sim(result)]


def _fleet_trace(args: argparse.Namespace, observer) -> list[str]:
    from repro.experiments.fleet_trace import format_fleet_trace, run_fleet_trace
    from repro.traces import save_trace

    if args.trace is not None and args.trace_gen:
        raise ConfigurationError("pass either --trace or --trace-gen, not both")
    sensors, faults = _control_plane_configs(args)
    result = run_fleet_trace(
        **_replay_kwargs(args, observer), window_s=args.window,
        sensors=sensors, faults=faults,
    )
    lines = [format_fleet_trace(result)]
    if args.save_trace:
        save_trace(result.trace, args.save_trace)
        lines.append(f"wrote {args.save_trace}")
    observer.note_seed("fleet.seed", args.seed)
    return lines


def _fleet_serve(args: argparse.Namespace, observer) -> list[str]:
    import json

    from repro.experiments.fleet_serve import format_fleet_serve, run_fleet_serve
    from repro.serve import AutoscalerConfig

    bounds = _given(args, "min_nodes", "max_nodes")
    if bounds and not args.autoscale:
        raise ConfigurationError(
            f"{_flag(next(iter(bounds)))} bounds the autoscaler; it needs "
            f"--autoscale"
        )
    autoscaler = AutoscalerConfig(**bounds) if args.autoscale else None
    if args.restore is not None:
        _refuse_restore_overrides(args)
    result = run_fleet_serve(
        **_replay_kwargs(args, observer), window_s=args.window,
        epoch_s=args.epoch, commands=args.serve_commands,
        autoscaler=autoscaler, save_path=args.save,
        save_at_epoch=args.save_at, restore_path=args.restore,
    )
    lines = [format_fleet_serve(result)]
    if args.save:
        lines.append(f"wrote {args.save}")
    if args.summary_json:
        payload = {
            "summaries": list(result.summaries),
            "snapshots": list(result.snapshots),
            "commands": [list(row) for row in result.commands],
            "epochs": result.epochs,
            "epoch_s": result.epoch_s,
        }
        with open(args.summary_json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        lines.append(f"wrote {args.summary_json}")
    observer.note_seed("fleet.seed", args.seed)
    return lines


def _refuse_restore_overrides(args: argparse.Namespace) -> None:
    """A restore resumes the checkpoint's fleet shape, horizon and serve
    plan: refuse any flag that sets one of them to another value."""
    from repro.serve import checkpoint_meta

    plan = checkpoint_meta(args.restore)["plan"]
    scaler = plan["autoscaler"] or {}
    fixed = {
        "nodes": plan["nodes"], "policy": plan["policy"],
        "routing": plan["routing"], "ml": plan["ml"], "epoch": plan["epoch_s"],
        "autoscale": bool(scaler), "min_nodes": scaler.get("min_nodes"),
        "max_nodes": scaler.get("max_nodes"), "duration": plan["duration"],
        "warmup": plan["warmup"], "interval": plan["interval"],
        "window": plan["window_s"],
    }
    for dest, value in _given(args, *fixed).items():
        resolved = value
        if dest == "duration" and plan["trace_s"] is not None:
            resolved = min(value, plan["trace_s"])  # as the run clips it
        if resolved != fixed[dest]:
            raise ConfigurationError(
                f"{_flag(dest)} {value} differs from the checkpoint's "
                f"{fixed[dest]}; --restore resumes the checkpoint's plan"
            )


def _fleet_incidents(args: argparse.Namespace, observer) -> list[str]:
    from repro.experiments.fleet_incidents import (
        format_fleet_incidents,
        run_fleet_incidents,
    )
    from repro.incidents.faults import INCIDENT_KINDS, save_scenario

    knobs = _given(args, "intruder_demand", "drop_fraction")
    generator = _given(args, "classes", "incident_seed", "intruder_rate") | knobs
    if args.scenario is not None and generator:
        raise ConfigurationError(
            "--scenario replays a saved schedule; it cannot be combined "
            f"with {_flag(next(iter(generator)))}"
        )
    classes = INCIDENT_KINDS
    if args.classes is not None:
        classes = tuple(k.strip() for k in args.classes.split(",") if k.strip())
    result = run_fleet_incidents(
        **_replay_kwargs(args, observer), scenario_path=args.scenario,
        classes=classes, incident_seed=args.incident_seed,
        intruder_rate_qps=args.intruder_rate, **knobs,
    )
    lines = [format_fleet_incidents(result)]
    if args.save_scenario:
        save_scenario(result.schedule, args.save_scenario)
        lines.append(f"wrote {args.save_scenario}")
    observer.note_seed("fleet.seed", args.seed)
    return lines


def _mix(args: argparse.Namespace, observer) -> list[str]:
    from repro.sim.tracing import TimelineTracer

    sensors, faults = _control_plane_configs(args)
    result = run_colocation(
        MixConfig(
            ml=args.ml, policy=args.policy, cpu=args.cpu,
            intensity=args.intensity, duration=args.duration,
            seed=args.seed, sensors=sensors, faults=faults,
        ),
        tracer=TimelineTracer() if observer.enabled else None,
        observer=observer,
        label=f"mix:{args.ml}+{args.cpu or 'none'}:{args.policy}",
    )
    lines = [f"ml_perf_norm     {result.ml_perf_norm:.3f}"]
    if result.ml_tail_norm is not None:
        lines.append(f"ml_tail_norm     {result.ml_tail_norm:.3f}")
    lines.append(f"cpu_throughput   {result.cpu_throughput:.3f}")
    if result.params:
        last = result.params[-1]
        lines.append(
            f"controller       lo_cores={last.lo_cores} "
            f"lo_prefetchers={last.lo_prefetchers} "
            f"backfill_cores={last.backfill_cores}"
        )
    return lines


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    from repro.obs import ObsConfig, RunObserver

    args = _build_parser().parse_args(argv)
    if args.command == "list":
        print("\n".join(experiment_ids()))
        return 0

    running = args.command == "run"
    name = args.experiment if running else args.command
    observer = RunObserver(
        ObsConfig(trace_dir=args.trace_out, metrics_path=args.metrics_out),
        name=name,
    )
    started = time.perf_counter()
    try:
        lines = args.handler(args, observer)
    except ReproError as exc:
        print(f"{name}: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    observer.add_span(
        "cli", "experiments", name, 0.0, time.perf_counter() - started
    )
    command = f"repro run {name}" if running else f"repro {name}"
    for path in observer.finalize(command=command):
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
