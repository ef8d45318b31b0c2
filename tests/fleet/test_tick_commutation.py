"""Member control ticks that fall on one instant commute.

Every fleet member's policy loop runs on one grid at ``PRIORITY_CONTROL``,
so at each grid instant the members' ticks tie on ``(time, priority)`` and
fire in event-creation order. A parked member's loop leaves the event heap
and is re-armed when the member wakes; the re-armed event has a later
creation sequence, so from then on that member ticks behind the others at
each instant. These tests show that the order does not change any output.

In reference mode (``REPRO_REFERENCE=1``: no parking), right after
``setup()`` they cancel every member's pending policy event and recreate it,
members taken in a seeded random order. Each loop re-arms in firing order,
so the permuted order holds at every later instant. The fleet's ticks do
real work: Kelp on every node, batch jobs with eviction,
interference-aware routing at moderate load, and an incident schedule with
a stuck actuator, a telemetry blackout and a node death under remediation.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

import numpy as np
import pytest

from repro.fleet.config import uniform_batch_jobs
from repro.fleet.orchestrator import FleetOrchestrator, fleet_config_for_trace
from repro.incidents import IncidentEngine, default_schedule
from repro.reference import REFERENCE_ENV
from repro.sim import Simulator
from repro.traces import TraceGenConfig, generate_trace

_NODES = 4


@contextmanager
def _reference_mode():
    saved = os.environ.get(REFERENCE_ENV)
    os.environ[REFERENCE_ENV] = "1"
    try:
        yield
    finally:
        if saved is None:
            del os.environ[REFERENCE_ENV]
        else:
            os.environ[REFERENCE_ENV] = saved


def _permute_policy_ticks(sim: Simulator, seed: int) -> list[str]:
    """Recreate every pending member policy event in a seeded random order.

    Returns the labels in their new firing order at the first grid instant.
    """
    pending = [
        entry[3]
        for entry in sorted(sim._heap)
        if entry[3].label.startswith("fleet:policy:") and not entry[3].cancelled
    ]
    order = np.random.default_rng(seed).permutation(len(pending))
    for index in order:
        event = pending[index]
        event.cancel()
        loop = event.callback
        loop.handle = sim.at(
            event.time, loop, label=event.label, priority=event.priority
        )
    return [pending[index].label for index in order]


def _run(permute_seed: int | None) -> tuple[dict, list[str]]:
    trace = generate_trace(
        TraceGenConfig(seed=11, duration_s=120.0, rate_qps=80.0)
    )
    config = fleet_config_for_trace(
        trace,
        nodes=_NODES,
        routing="interference-aware",
        interval=1.0,
        warmup=5.0,
        window_s=30.0,
        batch_jobs=uniform_batch_jobs(3, workload="stream", intensity=12),
        batch_eviction=True,
        seed=7,
    )
    schedule = default_schedule(
        config.duration,
        _NODES,
        seed=5,
        classes=("stuck-actuator", "telemetry-blackout", "node-death"),
    )
    engine = IncidentEngine(schedule, remediate=True)
    with _reference_mode():
        orchestrator = FleetOrchestrator(config, trace=trace, hooks=engine)
        orchestrator.setup()
        order = []
        if permute_seed is not None:
            order = _permute_policy_ticks(orchestrator._sim, permute_seed)
        orchestrator.advance(config.duration)
        result = orchestrator.finish()
    exported = engine.export()
    artifacts = {
        "summary": result.summary(),
        "telemetry": result.telemetry,
        "controller": result.controller,
        "actuation": result.actuation,
        "alarms": exported["alarms"],
        "remediations": exported["remediations"],
        "ticks": result.ticks_run,
    }
    return artifacts, order


@pytest.fixture(scope="module")
def unpermuted() -> dict:
    return _run(None)[0]


def test_the_fleet_does_real_work(unpermuted) -> None:
    """The scenario exercises what a tick can do, not an idle fleet."""
    assert unpermuted["summary"]["batch_evictions"] > 0
    assert any(row["writes"] for row in unpermuted["controller"])
    assert any(row["status"] != "applied" for row in unpermuted["actuation"])
    assert unpermuted["alarms"] and unpermuted["remediations"]


@pytest.mark.parametrize("seed", [2, 4])
def test_permuted_ticks_give_identical_outputs(unpermuted, seed) -> None:
    permuted, order = _run(seed)
    assert order != [f"fleet:policy:{index}" for index in range(_NODES)]
    assert permuted == unpermuted
