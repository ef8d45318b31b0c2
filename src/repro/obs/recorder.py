"""The run observer: one object threaded through a figure/suite run.

``RunObserver`` bundles the three export surfaces — JSONL metrics/records,
the Chrome trace, and the run manifest — behind a tiny API that is a no-op
when observability is off: every public method returns immediately unless
the observer was built with at least one output destination, so the hot
simulation path pays only a falsy attribute check.

Typical use::

    config = ObsConfig(trace_dir="out/", metrics_path="out/m.jsonl")
    with RunObserver(config, name="fig13") as obs:
        run_fig13(duration=16.0, observer=obs)
    # out/ now holds trace.json + manifest.json, m.jsonl the metric rows.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, is_dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from repro.obs.manifest import build_manifest, write_manifest
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import ChromeTraceBuilder

if TYPE_CHECKING:
    from repro.control.records import ActuationRecord, ControlTickRecord
    from repro.experiments.common import ColocationResult
    from repro.sim.tracing import TimelineTracer


@dataclass(frozen=True)
class ObsConfig:
    """Where (and whether) one run's observability output goes.

    Either path may be given as a string; an empty one means no output.
    """

    #: Directory receiving ``trace.json`` + ``manifest.json`` (created).
    trace_dir: Path | None = None
    #: File receiving the JSONL metric/record stream.
    metrics_path: Path | None = None

    def __post_init__(self) -> None:
        for name in ("trace_dir", "metrics_path"):
            value = getattr(self, name)
            object.__setattr__(self, name, Path(value) if value else None)

    @property
    def enabled(self) -> bool:
        """True when at least one output destination is configured."""
        return self.trace_dir is not None or self.metrics_path is not None

    @classmethod
    def disabled(cls) -> "ObsConfig":
        """A config with no outputs (every observer method is a no-op)."""
        return cls()


def _plain(value):
    """Best-effort conversion of config objects to JSON-clean values."""
    if is_dataclass(value) and not isinstance(value, type):
        return {k: _plain(v) for k, v in asdict(value).items()}
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_plain(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


class _StreamingJsonlWriter:
    """Incremental JSONL emission: flush every N rows.

    Rows are serialized on arrival and appended to the target file in
    ``flush_every``-row batches, so a day-long fleet replay streams its
    metric rows to disk instead of holding millions of dicts until
    finalize. Each row is framed as ``json.dumps(row) + "\\n"``.
    """

    def __init__(self, path: Path, flush_every: int) -> None:
        if flush_every <= 0:
            raise ValueError("flush_every must be positive")
        self.path = path
        self.flush_every = flush_every
        self._pending: list[str] = []
        self._opened = False

    def add(self, row: dict) -> None:
        """Queue one row; flushes to disk when the buffer fills."""
        self._pending.append(json.dumps(row))
        if len(self._pending) >= self.flush_every:
            self.flush()

    def flush(self) -> None:
        """Append every pending line to the file (creating it first)."""
        if not self._pending and self._opened:
            return
        mode = "a" if self._opened else "w"
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, mode, encoding="utf-8") as handle:
            for line in self._pending:
                handle.write(line + "\n")
        self._pending.clear()
        self._opened = True


class RunObserver:
    """Collects records, metrics and trace events for one run.

    Record rows stream to ``metrics_path`` in ``flush_every``-row batches
    (see :class:`_StreamingJsonlWriter`), so memory stays bounded over
    day-long replays; without a ``metrics_path`` they are dropped.
    """

    def __init__(
        self,
        config: ObsConfig,
        name: str = "run",
        flush_every: int = 8192,
    ) -> None:
        self.config = config
        self.name = name
        self.enabled = config.enabled
        self.metrics = MetricsRegistry()
        self.trace = ChromeTraceBuilder()
        self._writer: _StreamingJsonlWriter | None = None
        if config.metrics_path is not None:
            self._writer = _StreamingJsonlWriter(
                config.metrics_path, flush_every
            )
        self._seeds: dict[str, int] = {}
        self._run_config: dict = {}
        self._started = time.perf_counter()
        self._finalized: list[Path] | None = None

    # --------------------------------------------------------- raw records
    def record(self, kind: str, **fields) -> None:
        """Write one JSONL row of ``kind`` to the record stream."""
        if self._writer is not None:
            self._writer.add({"kind": kind, **_plain(fields)})

    def note_seed(self, name: str, seed: int) -> None:
        """Register a seed for the manifest."""
        if not self.enabled:
            return
        self._seeds[name] = seed

    def note_config(self, **fields) -> None:
        """Merge run-level configuration into the manifest."""
        if not self.enabled:
            return
        self._run_config.update(_plain(fields))

    # ------------------------------------------------------- domain hooks
    def record_colocation(
        self,
        label: str,
        result: "ColocationResult",
        ticks: Iterable["ControlTickRecord"] = (),
        telemetry: Iterable[dict] = (),
        journal: Iterable["ActuationRecord"] = (),
    ) -> None:
        """Export everything one colocation run saw, decided and wrote.

        Emits a ``run`` summary row, a ``solver_stats`` row, one ``tick``
        row per controller interval (the Algorithm-1 measurement/decision
        stream), one ``telemetry`` row per sampler interval, and one
        ``actuation`` row per journaled physical knob write; the same data
        also lands in the trace as counter series and action markers.
        """
        if not self.enabled:
            return
        config = result.config
        self.note_seed(f"{label}.seed", config.seed)
        self.record(
            "run",
            label=label,
            config=config,
            ml_perf=result.ml_perf,
            ml_perf_norm=result.ml_perf_norm,
            ml_tail=result.ml_tail,
            ml_tail_norm=result.ml_tail_norm,
            cpu_throughput=result.cpu_throughput,
            events_dispatched=result.events_dispatched,
        )
        self.record("solver_stats", label=label, **result.solver_stats)
        tick_list = list(ticks)
        for tick in tick_list:
            self.record("tick", label=label, **tick.as_dict())
        self.trace.add_tick_records(label, tick_list)
        for sample in telemetry:
            self.record("telemetry", label=label, **sample)
            self.trace.add_counter(
                label,
                "telemetry",
                sample.get("time", 0.0),
                {
                    k: v
                    for k, v in sample.items()
                    if k != "time" and isinstance(v, (int, float))
                },
            )
        journal_list = list(journal)
        for write in journal_list:
            self.record("actuation", label=label, **write.as_dict())
            if write.status != "applied":
                self.trace.add_instant(
                    label,
                    "actuation faults",
                    f"{write.kind}:{write.status}",
                    write.time,
                    category="controller",
                )
        # Registry roll-ups for the metrics stream.
        self.metrics.counter("colocation.runs", policy=config.policy).inc()
        self.metrics.counter("colocation.actuation_writes").inc(
            len(journal_list)
        )
        self.metrics.histogram(
            "colocation.ml_perf_norm", policy=config.policy
        ).observe(result.ml_perf_norm)
        if result.cpu_throughput:
            self.metrics.histogram(
                "colocation.cpu_throughput", policy=config.policy
            ).observe(result.cpu_throughput)
        self.metrics.counter("colocation.controller_ticks").inc(len(tick_list))
        self.metrics.counter("colocation.events_dispatched").inc(
            result.events_dispatched
        )

    def observe_tracer(self, process: str, tracer: "TimelineTracer") -> int:
        """Ingest a :class:`TimelineTracer`'s intervals into the trace."""
        if not self.enabled:
            return 0
        return self.trace.add_intervals(process, tracer.intervals)

    def add_span(
        self,
        process: str,
        track: str,
        name: str,
        start_s: float,
        duration_s: float,
        args: dict | None = None,
    ) -> None:
        """Record one complete span on a named lane (e.g. suite timing)."""
        if not self.enabled:
            return
        self.trace.add_complete(process, track, name, start_s, duration_s, args)

    # ------------------------------------------------------------ output
    def finalize(self, command: str | None = None) -> list[Path]:
        """Write every configured output; returns the paths written.

        Idempotent: a second call returns the already-written paths.
        """
        if not self.enabled:
            return []
        if self._finalized is not None:
            return self._finalized
        wall = time.perf_counter() - self._started
        written: list[Path] = []

        if self._writer is not None:
            # The record rows are already on disk (or pending); append the
            # metrics snapshot and flush the tail.
            for row in self.metrics.snapshot():
                self._writer.add(row)
            self._writer.flush()
            written.append(self._writer.path)

        trace_dir = self.config.trace_dir
        if trace_dir is not None:
            trace_dir.mkdir(parents=True, exist_ok=True)
            trace_path = trace_dir / "trace.json"
            self.trace.write(trace_path)
            written.append(trace_path)

        manifest_dir = (
            trace_dir if trace_dir is not None
            else self.config.metrics_path.parent
        )
        manifest_path = manifest_dir / f"{self.name}.manifest.json"
        write_manifest(
            manifest_path,
            build_manifest(
                run_id=self.name,
                command=command or self.name,
                config=self._run_config,
                seeds=self._seeds,
                wall_s=wall,
                outputs=[str(p) for p in written],
            ),
        )
        written.append(manifest_path)
        self._finalized = written
        return written

    # ------------------------------------------------------ context mgmt
    def __enter__(self) -> "RunObserver":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.finalize()
