"""Discrete-event simulation engine.

The engine is a classic calendar-queue simulator with one twist: it is built
for *fluid* models. Tasks do not execute instruction by instruction; they hold
a quantity of remaining work that drains at a rate set by the hardware
contention solver. Whenever the global rate assignment changes (a phase
completes, a controller reconfigures the machine, an aggressor starts), the
engine lets interested components recompute rates and re-schedule their
completion events.

Public surface:

* :class:`~repro.sim.engine.Simulator` — the event loop.
* :class:`~repro.sim.events.Event` / :func:`~repro.sim.engine.Simulator.at` /
  :func:`~repro.sim.engine.Simulator.after` — scheduling.
* :class:`~repro.sim.work.FluidWork` — a drainable quantity of work.
* :class:`~repro.sim.rng.RngStreams` — deterministic named random streams.
* :class:`~repro.sim.tracing.TimelineTracer` — phase-interval traces (Fig 3).
"""

from repro.sim.engine import Simulator
from repro.sim.events import Event
from repro.sim.gantt import render_gantt
from repro.sim.rng import RngStreams
from repro.sim.tracing import TimelineTracer, TraceInterval
from repro.sim.work import FluidWork

__all__ = [
    "Event",
    "FluidWork",
    "RngStreams",
    "Simulator",
    "TimelineTracer",
    "TraceInterval",
    "render_gantt",
]
