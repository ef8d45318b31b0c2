#!/usr/bin/env python3
"""Run the repository benchmark.

One workload, the way the command in BENCHMARK.json is run::

    python3 bench/run.py --workload day_replay --seed 3 --seconds 20 --trace 0

It sets the workload up several times (once here, the rest in fresh
processes), repeats the job until ``--seconds`` have passed, checks every
output, prints each metric by name with its unit, and ends with one JSON
line: ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are BENCHMARK.json's end-to-end metrics. With
``--trace 1`` untraced and traced repetitions alternate and the metrics
are its per-layer metrics.

All workloads, each in a fresh process, one process at a time::

    python3 bench/run.py [--seed S] [--reps N] [--trace] [--scale smoke] [--out FILE]

reports median, q1, q3 and n per metric and workload over the N processes,
alternating the workload order between repetitions. ``bench/compare.py``
compares two ``--out`` files.

Timings are corrected for the machine's momentary speed (see
:func:`reference_s`). Exit status: 0 when every check passed, 1 when a
check failed (the result is still printed), 2 when the program under test
cannot be found.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import spans
import workloads
from expected import seed_key

#: Reference point for ``setup_s``: the first statement after the standard
#: library imports.
STARTED = time.perf_counter()

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
#: Run-time output (checkpoints, the serve observer stream, spans).
OUT = ROOT / ".bench_out"

#: Repetitions run even when ``--seconds`` is already spent: a traced run
#: needs one untraced and one traced repetition, and a repeat shows whether
#: the outputs are deterministic.
MIN_REPS = 2
#: Set-ups timed per run (this process plus fresh ones).
SETUP_SAMPLES = {"full": 9, "smoke": 2}
#: Seconds a single set-up process may take.
SETUP_TIMEOUT_S = 120
#: Iterations of the reference loop, and its time in seconds on the machine
#: the benchmark was defined on (2 vCPU Xeon VM at 2.1 GHz, CPython 3.11)
#: when that machine was otherwise idle.
REF_ITERATIONS = 150_000
REF_S = 0.112
#: Metric units that are timings, and so get the speed correction.
TIME_UNITS = ("s", "ms", "us")


def spread(values: list[float]) -> dict:
    """Median, quartiles (as ``statistics.quantiles(values, n=4)``) and n."""
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def low(values) -> float:
    """Median of the faster half of ``values`` (about the lower quartile).

    Interference from other tenants of the machine only ever slows a
    repetition down, so the faster half estimates the code's own cost.
    """
    ordered = sorted(values)
    return statistics.median(ordered[: (len(ordered) + 1) // 2])


def reference_s() -> float:
    """Time a fixed pure-Python loop that touches no ``repro`` code.

    Its mix (dict updates, float arithmetic, a bounded heap) resembles the
    simulator's hot paths, and its memory stays bounded. It runs after every
    repetition; the ratio ``REF_S / low(reference times)`` is the run's
    speed correction, which cancels most of the slowdown that other tenants
    of a shared machine cause for minutes at a time. On an idle machine like
    the one ``REF_S`` was measured on, the correction is close to 1.
    """
    started = time.perf_counter()
    heap: list[tuple[float, int]] = []
    table: dict[int, float] = {}
    total = 0.0
    for i in range(REF_ITERATIONS):
        key = i & 2047
        value = table.get(key, 0.0) + (i % 97) * 0.25
        table[key] = value
        total += value * 1e-6
        heapq.heappush(heap, (total % 10.0, i))
        if len(heap) > 512:
            heapq.heappop(heap)
    return time.perf_counter() - started


def declared(section: str) -> list[tuple[str, str]]:
    """``(name, unit)`` of every metric BENCHMARK.json declares in ``section``."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return [(m["name"], m["unit"]) for m in json.load(handle)[section]]


@dataclass
class Rep:
    """One repetition of a workload's job."""

    traced: bool
    run_s: float
    outcome: workloads.Outcome
    #: Traced repetitions only: per-layer readings from the span tracer.
    layers: dict[str, float] = field(default_factory=dict)


@dataclass
class Measurement:
    """Everything one run of one workload measured."""

    reps: list[Rep] = field(default_factory=list)
    #: Reference loop times, one before the first repetition and one after each.
    refs: list[float] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    @property
    def speed(self) -> float:
        """Factor turning measured timings into idle-machine timings."""
        return REF_S / low(self.refs)


def _layer_readings(tracer: spans.Tracer, totals_before: dict, counts_before: dict):
    """Per-layer readings of one traced repetition (deltas of the tracer)."""
    totals = tracer.totals()
    empty = (0, 0.0, 0.0)

    def delta(name: str, column: int) -> float:
        return totals.get(name, empty)[column] - totals_before.get(name, empty)[column]

    def count(name: str) -> int:
        return tracer.counts.get(name, 0) - counts_before.get(name, 0)

    calls = lambda name: delta(name, 0)  # noqa: E731
    total = lambda name: delta(name, 1)  # noqa: E731
    ticks = calls("control.tick")
    return {
        "sim.events": count("sim.events"),
        "sim.compactions": count("sim.compactions"),
        "sim.self_s": delta("sim.run_until", 2),
        "hw.recompute_calls": calls("hw.recompute"),
        "hw.recompute_s": total("hw.recompute"),
        "hw.solve_calls": calls("hw.solve"),
        "hw.solve_s": total("hw.solve"),
        "control.ticks": ticks,
        "control.noop_ticks": count("control.noop_ticks"),
        "control.noop_ratio": count("control.noop_ticks") / ticks if ticks else 0.0,
        "control.writes": count("control.writes"),
        "control.tick_s": total("control.tick"),
        "control.sense_s": total("control.sense"),
        "control.decide_s": total("control.decide"),
        "core.policy_ticks": calls("core.policy_tick"),
        "core.policy_tick_s": total("core.policy_tick"),
        "fleet.route_calls": calls("fleet.route"),
        "fleet.route_s": total("fleet.route"),
        "fleet.submit_s": total("fleet.submit"),
        "fleet.sample_calls": calls("fleet.sample"),
        "fleet.sample_s": total("fleet.sample"),
        "fleet.batch_tick_s": total("fleet.batch_tick"),
        "fleet.setup_s": total("fleet.setup"),
        "fleet.finish_s": total("fleet.finish"),
        "workloads.server_submits": calls("workloads.server_submit"),
        "workloads.server_submit_s": total("workloads.server_submit"),
        "serve.step_self_s": delta("serve.step", 2),
        "serve.snapshot_s": total("serve.snapshot"),
        "serve.save_s": total("serve.save"),
        "serve.restore_s": total("serve.restore"),
        "incidents.on_tick_s": total("incidents.on_tick"),
        "obs.records": calls("obs.record"),
        "obs.record_s": total("obs.record"),
        "obs.finalize_s": total("obs.finalize"),
    }


def _span(tracer, name: str, call):
    if tracer is None:
        return call()
    with tracer.span(name):
        return call()


def _repeat(workload, first: list, seconds: float, tracer) -> Measurement:
    """Repeat the job until ``seconds`` pass, timing the reference after each.

    ``first`` holds the objects the set-up built; the first repetition takes
    them out, so nothing keeps them alive afterwards. With a tracer, odd
    repetitions run with the span wrappers installed, from objects built
    after the install.
    """
    measured = Measurement(refs=[reference_s()])
    deadline = time.perf_counter() + seconds
    last = 0.0
    while len(measured.reps) < MIN_REPS or time.perf_counter() + last <= deadline:
        traced = tracer is not None and len(measured.reps) % 2 == 1
        rep_started = time.perf_counter()
        uninstall = spans.install(tracer) if traced else None
        if tracer is not None:
            totals_before, counts_before = tracer.totals(), dict(tracer.counts)
            rep_frame = tracer.push("rep")
        try:
            built = first.pop() if first else _span(tracer, "build", workload.build)
            gc.collect()
            run_started = time.perf_counter()
            outcome = _span(tracer, "run", lambda: workload.run(built))
            run_s = time.perf_counter() - run_started
        except Exception:  # a failed job is a result to report, not a crash
            measured.errors.append(traceback.format_exc())
            break
        finally:
            built = None
            if tracer is not None:
                tracer.pop(rep_frame)
            if uninstall is not None:
                uninstall()
        rep = Rep(traced=traced, run_s=run_s, outcome=outcome)
        if traced:
            rep.layers = _layer_readings(tracer, totals_before, counts_before)
        measured.reps.append(rep)
        # The finished simulation is cyclic garbage: free it before the next
        # build, so two simulations never share the peak memory.
        gc.collect()
        measured.refs.append(reference_s())
        last = time.perf_counter() - rep_started
    return measured


def _setup_samples(args, first: dict) -> list[dict]:
    """Time ``SETUP_SAMPLES - 1`` more set-ups, each in a fresh process."""
    samples = [first]
    command = [
        sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--scale", args.scale, "--setup-only",
    ]
    for _ in range(SETUP_SAMPLES[args.scale] - 1):
        proc = subprocess.run(
            command, capture_output=True, text=True, check=True,
            timeout=SETUP_TIMEOUT_S,
        )
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def _median_or_zero(samples: list[float] | None) -> float:
    return statistics.median(samples) if samples else 0.0


def _end_to_end_metrics(measured: Measurement, setups: list[dict], peak_rss_mb: float):
    return {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "run_s": low(r.run_s for r in measured.reps),
        "peak_rss_mb": peak_rss_mb,
    }


def _layer_metrics(workload, measured: Measurement, setups: list[dict]) -> dict[str, float]:
    """Every per-layer metric, from the traced and untraced repetitions."""
    untraced = [r for r in measured.reps if not r.traced]
    traced = [r for r in measured.reps if r.traced]
    values: dict[str, float] = {**workloads.ABSENT_VALUES, **untraced[0].outcome.values}
    for name in traced[0].layers:
        values[name] = low(r.layers[name] for r in traced)
    pooled: dict[str, list[float]] = {}
    for rep in untraced:
        for name, samples in rep.outcome.samples.items():
            pooled.setdefault(name, []).extend(samples)
    for fig in workloads.FIGURES:
        name = f"experiments.{fig}_s"
        values[name] = low(r.outcome.values.get(name, 0.0) for r in untraced)
    epoch_ms = pooled.get("serve.epoch_ms", [])
    run_s = low(r.run_s for r in untraced)
    values.update(
        {
            "sim.us_per_event": run_s / values["sim.events"] * 1e6,
            "fleet.us_per_req": (
                run_s / workload.requests * 1e6 if workload.requests else 0.0
            ),
            "traces.generate_s": statistics.median(
                s.get("traces.generate_s", 0.0) for s in setups
            ),
            "traces.requests": workload.requests,
            "serve.epoch_p50_ms": _median_or_zero(epoch_ms),
            "serve.epoch_p99_ms": (
                statistics.quantiles(epoch_ms, n=100)[98] if len(epoch_ms) > 1 else 0.0
            ),
            "serve.ckpt_save_ms": _median_or_zero(pooled.get("serve.ckpt_save_ms")),
            "serve.ckpt_restore_ms": _median_or_zero(pooled.get("serve.ckpt_restore_ms")),
            "serve.ckpt_mb": max(pooled.get("serve.ckpt_mb") or [0.0]),
            "trace.overhead": low(r.run_s for r in traced) / run_s,
        }
    )
    return values


def _expected_digest(workload: str, scale: str, seed: int) -> str | None:
    with open(BENCH / "expected.json", encoding="utf-8") as handle:
        expected = json.load(handle)
    return expected.get(workload, {}).get(scale, {}).get(seed_key(workload, seed))


def run_workload(args) -> int:
    """Measure one workload in this process (what BENCHMARK.json runs)."""
    sys.path.insert(0, str(SRC))
    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, args.scale, out_dir)
    tracer = spans.Tracer() if args.trace and not args.setup_only else None
    if tracer is not None:
        root = tracer.push("workload")
        setup_frame = tracer.push("setup")
    phases = workload.prepare()
    first = [workload.build()]
    setup = {"setup_s": time.perf_counter() - STARTED, **phases}
    if args.setup_only:
        print(json.dumps(setup))
        return 0
    if tracer is not None:
        tracer.pop(setup_frame)

    measured = _repeat(workload, first, args.seconds, tracer)
    reps = measured.reps
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    checks: list[tuple[str, bool]] = [("job_completed", not measured.errors)]
    setups = [setup]
    if reps:
        digest = reps[0].outcome.digest
        for rep in reps:
            checks.extend(rep.outcome.checks)
        for rep in reps[1:]:
            label = "traced_digest" if rep.traced else "repeat_digest"
            checks.append((label, rep.outcome.digest == digest))
        expected = _expected_digest(args.workload, args.scale, args.seed)
        if expected is not None:
            checks.append(("expected_digest", digest == expected))
        try:
            checks.extend(workload.verify(reps[-1].outcome))
            setups = _setup_samples(args, setup)
        except Exception:  # reported as a failed check naming the workload
            measured.errors.append(traceback.format_exc())
            checks.append(("verify", False))
    if tracer is not None:
        tracer.pop(root)
        tracer.write(out_dir / "spans.jsonl")

    for error in measured.errors:
        print(f"{args.workload}: error\n{error}", file=sys.stderr)
    failed = [name for name, ok in checks if not ok]
    for name in failed:
        print(f"{args.workload}: check failed: {name}", file=sys.stderr)

    metrics: dict[str, dict] = {}
    complete = bool(reps) and (
        not args.trace or len({r.traced for r in reps}) == 2
    )
    if complete:
        if args.trace:
            values = _layer_metrics(workload, measured, setups)
            section = "per_layer"
        else:
            values = _end_to_end_metrics(measured, setups, peak_rss_mb)
            section = "end_to_end"
        speed = measured.speed
        metrics = {
            name: {
                "value": values[name] * speed if unit in TIME_UNITS else values[name],
                "unit": unit,
            }
            for name, unit in declared(section)
        }

    print(
        f"workload {args.workload}  seed {args.seed}  scale {args.scale}  "
        f"requests {workload.requests}  reps {len(reps)} "
        f"({sum(r.traced for r in reps)} traced)  setups {len(setups)}"
    )
    if reps:
        print(f"digest {args.workload} {args.scale} {args.seed} {reps[0].outcome.digest}")
        print(f"  speed correction {measured.speed:.4f} (reference loop, low {low(measured.refs):.4f} s)")
        print("  run_s reps: " + " ".join(f"{r.run_s:.4f}" for r in reps if not r.traced))
        print("  ref_s: " + " ".join(f"{t:.4f}" for t in measured.refs))
    for name, metric in metrics.items():
        print(f"  {name:<28} {metric['value']:>14.6g} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": len(checks),
                "failed": len(failed),
                "metrics": metrics,
            }
        )
    )
    return 0 if not failed else 1


def run_all(args) -> int:
    """Run every workload ``--reps`` times, each in a fresh process."""
    names = list(workloads.WORKLOADS)
    runs: dict[str, list[dict]] = {name: [] for name in names}
    digests: dict[str, set[str]] = {name: set() for name in names}
    attempted = failed = 0
    for rep in range(args.reps):
        for name in names if rep % 2 == 0 else names[::-1]:
            command = [
                sys.executable, str(BENCH / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(int(args.trace)), "--scale", args.scale,
            ]
            proc = subprocess.run(command, capture_output=True, text=True, timeout=900)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                print(f"{name}: no result (exit {proc.returncode})", file=sys.stderr)
                attempted += 1
                failed += 1
                continue
            for line in lines:
                if line.startswith("digest "):
                    digests[name].add(line.split()[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            runs[name].append(result)
            status = "ok" if result["correct"] else "FAILED"
            print(f"[{rep + 1}/{args.reps}] {name}: {status}", flush=True)

    summary: dict[str, dict] = {}
    print()
    print(f"{'workload':<11} {'metric':<28} {'median':>12} {'q1':>12} {'q3':>12} {'n':>3}  unit")
    for name in names:
        summary[name] = {}
        for metric in (runs[name][0]["metrics"] if runs[name] else {}):
            values = [r["metrics"][metric]["value"] for r in runs[name]]
            unit = runs[name][0]["metrics"][metric]["unit"]
            stats = spread(values)
            summary[name][metric] = {"unit": unit, "values": values, **stats}
            print(
                f"{name:<11} {metric:<28} {stats['median']:>12.6g} "
                f"{stats['q1']:>12.6g} {stats['q3']:>12.6g} {stats['n']:>3}  {unit}"
            )
    for name in names:
        print(f"digest {name} {args.scale} {args.seed} {' '.join(sorted(digests[name]))}")
    print(f"checks: {attempted - failed}/{attempted} passed")
    if args.out:
        report = {
            "seed": args.seed, "scale": args.scale, "trace": bool(args.trace),
            "seconds": args.seconds, "reps": args.reps,
            "attempted": attempted, "failed": failed,
            "digests": {name: sorted(d) for name, d in digests.items()},
            "summary": summary,
        }
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0 if failed == 0 else 1


def main(argv: list[str] | None = None) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        run_seconds = json.load(handle)["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        help="measure one workload in this process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=run_seconds,
                        help="measuring time per workload run")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
                        help="report per-layer metrics from a traced run")
    parser.add_argument("--scale", choices=sorted(workloads.SIZES), default="full")
    parser.add_argument("--reps", type=int, default=1,
                        help="processes per workload (all-workload mode)")
    parser.add_argument("--out", help="write the all-workload summary here as JSON")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program under test is missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    # One busy core: keep numpy's BLAS from starting worker threads.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
