"""Span tracing for the traced run, installed from outside the source tree.

:func:`install` wraps public functions of each ``repro`` layer (listed in
:data:`TARGETS`) so every call opens a span. Nothing under ``src/`` is
edited; the wrappers go onto the classes before a repetition builds its
objects and come off afterwards, so an untraced repetition in the same
process runs the original code.

Memory stays bounded on hot paths: every call is folded into a per
``(parent, name)`` aggregate of call count, total and self time, and only
the first :data:`SPAN_CAP` calls of each coarse name (a repetition, a
``run_until``, a serve ``step``, ...) are kept as individual spans with
start, end and parent. A call nested inside a span of the same name (a
re-entrant ``notify_change``, a wrapping router) is merged into the outer
span rather than counted twice.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from pathlib import Path

#: Individual spans kept per coarse name; later calls are aggregated only.
SPAN_CAP = 10_000

#: Span names recorded individually (the rest are aggregated only).
COARSE = frozenset(
    {
        "workload", "setup", "rep", "build", "run",
        "sim.run_until", "serve.step", "serve.save", "serve.restore",
        "fleet.setup", "fleet.finish",
    }
)


class Tracer:
    """In-memory span recorder."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        #: Open frames: ``[name, start, child time, span index or None]``.
        self.stack: list[list] = []
        self.open: set[str] = set()
        #: ``(parent name, name) -> [calls, total s, self s]``.
        self.agg: dict[tuple[str, str], list] = {}
        #: Counts measured at span boundaries (events dispatched, writes...).
        self.counts: dict[str, int] = {}
        #: Individual coarse spans: ``[name, start, end, parent index]``.
        self.spans: list[list] = []
        self._kept: dict[str, int] = {}

    def push(self, name: str) -> list:
        parent = None
        for frame in reversed(self.stack):
            if frame[3] is not None:
                parent = frame[3]
                break
        index = None
        if name in COARSE and self._kept.get(name, 0) < SPAN_CAP:
            self._kept[name] = self._kept.get(name, 0) + 1
            index = len(self.spans)
            self.spans.append([name, None, None, parent])
        frame = [name, time.perf_counter(), 0.0, index]
        self.stack.append(frame)
        self.open.add(name)
        return frame

    def pop(self, frame: list) -> None:
        end = time.perf_counter()
        self.stack.pop()
        name, start, child, index = frame
        self.open.discard(name)
        total = end - start
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += total
        key = (parent[0] if parent is not None else "", name)
        entry = self.agg.get(key)
        if entry is None:
            entry = self.agg[key] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += total
        entry[2] += total - child
        if index is not None:
            span = self.spans[index]
            span[1] = start - self.origin
            span[2] = end - self.origin

    def span(self, name: str):
        """Context manager recording one bench-level span."""
        return _Span(self, name)

    def totals(self) -> dict[str, list]:
        """Per-name ``[calls, total s, self s]`` summed over parents."""
        out: dict[str, list] = {}
        for (_, name), (calls, total, own) in self.agg.items():
            entry = out.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += own
        return out

    def write(self, path: Path) -> None:
        """Write the coarse spans and the aggregates as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent) in enumerate(self.spans):
                row = {"kind": "span", "id": index, "parent": parent,
                       "name": name, "start_s": start, "end_s": end}
                handle.write(json.dumps(row) + "\n")
            for (parent, name), (calls, total, own) in sorted(self.agg.items()):
                row = {"kind": "aggregate", "parent": parent, "name": name,
                       "calls": calls, "total_s": total, "self_s": own}
                handle.write(json.dumps(row) + "\n")


class _Span:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> None:
        self._frame = self._tracer.push(self._name)

    def __exit__(self, *exc) -> None:
        self._tracer.pop(self._frame)


def _count_events(tracer: Tracer, sim, call):
    """``Simulator.run_until``: events dispatched and heap compactions."""
    events, compactions = sim.dispatched_events, sim.compactions
    result = call()
    counts = tracer.counts
    counts["sim.events"] = counts.get("sim.events", 0) + sim.dispatched_events - events
    counts["sim.compactions"] = (
        counts.get("sim.compactions", 0) + sim.compactions - compactions
    )
    return result


def _count_writes(tracer: Tracer, loop, call):
    """``ControlLoop.tick``: ticks that wrote no knob, and knob writes."""
    record = call()
    writes = record.writes if record is not None else 0
    counts = tracer.counts
    counts["control.writes"] = counts.get("control.writes", 0) + writes
    if writes == 0:
        counts["control.noop_ticks"] = counts.get("control.noop_ticks", 0) + 1
    return record


#: ``(span name, module, owner, attribute, counter)``. ``owner`` is a class
#: name, or None for a module-level function. Several targets may share a
#: span name (every governor's ``decide`` is ``control.decide``).
TARGETS = (
    ("sim.run_until", "repro.sim.engine", "Simulator", "run_until", _count_events),
    ("hw.recompute", "repro.hw.machine", "Machine", "notify_change", None),
    ("hw.solve", "repro.hw.contention", "ContentionSolver", "solve", None),
    ("control.tick", "repro.control.loop", "ControlLoop", "tick", _count_writes),
    ("control.sense", "repro.control.sensors", "PerfectSensors", "sample", None),
    ("control.sense", "repro.control.sensors", "StaleSensors", "sample", None),
    ("control.sense", "repro.control.sensors", "NoisySensors", "sample", None),
    ("control.sense", "repro.control.sensors", "DropoutSensors", "sample", None),
    ("control.decide", "repro.control.governors", "KelpGovernor", "decide", None),
    ("control.decide", "repro.control.governors", "CoreThrottleGovernor", "decide", None),
    ("control.decide", "repro.control.governors", "MbaGovernor", "decide", None),
    ("control.decide", "repro.incidents.remediate", "ConservativeGovernor", "decide", None),
    ("core.policy_tick", "repro.core.policies.base", "IsolationPolicy", "tick", None),
    ("fleet.route", "repro.fleet.index", "RoutingIndex", "choose", None),
    ("fleet.route", "repro.fleet.routing", "RandomRouter", "choose", None),
    ("fleet.route", "repro.fleet.routing", "LeastLoadedRouter", "choose", None),
    ("fleet.route", "repro.fleet.routing", "InterferenceAwareRouter", "choose", None),
    ("fleet.submit", "repro.fleet.member", "FleetMember", "submit", None),
    ("fleet.sample", "repro.fleet.member", "FleetMember", "sample", None),
    ("fleet.batch_tick", "repro.fleet.batch", "BatchQueue", "tick", None),
    ("fleet.setup", "repro.fleet.orchestrator", "FleetOrchestrator", "setup", None),
    ("fleet.finish", "repro.fleet.orchestrator", "FleetOrchestrator", "finish", None),
    ("workloads.server_submit", "repro.workloads.ml.base", "InferenceServerTask", "submit", None),
    ("serve.step", "repro.serve.service", "FleetService", "step", None),
    ("serve.snapshot", "repro.serve.service", None, "take_snapshot", None),
    ("serve.save", "repro.serve.service", "FleetService", "save", None),
    ("serve.restore", "repro.serve.service", "FleetService", "restore", None),
    ("incidents.on_tick", "repro.incidents.engine", "IncidentEngine", "on_tick", None),
    ("obs.record", "repro.obs.recorder", "RunObserver", "record", None),
    ("obs.finalize", "repro.obs.recorder", "RunObserver", "finalize", None),
)


def _wrap(tracer: Tracer, name: str, fn, counter):
    push, pop, open_names = tracer.push, tracer.pop, tracer.open

    if counter is None:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name in open_names:
                return fn(*args, **kwargs)
            frame = push(name)
            try:
                return fn(*args, **kwargs)
            finally:
                pop(frame)
    else:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name in open_names:
                return fn(*args, **kwargs)
            frame = push(name)
            try:
                return counter(tracer, args[0], lambda: fn(*args, **kwargs))
            finally:
                pop(frame)
    return wrapper


def install(tracer: Tracer):
    """Wrap every target; returns a function that restores the originals."""
    undo = []
    for name, module_name, owner_name, attr, counter in TARGETS:
        module = importlib.import_module(module_name)
        owner = getattr(module, owner_name) if owner_name else module
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            wrapped = classmethod(_wrap(tracer, name, original.__func__, counter))
        else:
            wrapped = _wrap(tracer, name, original, counter)
        setattr(owner, attr, wrapped)
        undo.append((owner, attr, original))

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall
