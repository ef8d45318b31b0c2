"""Shared fixtures for the test suite."""

from __future__ import annotations

import json

import pytest

from repro.node import Node
from repro.hw.machine import Machine
from repro.hw.spec import MachineSpec, cloud_tpu_host_spec, tpu_host_spec
from repro.sim import Simulator


@pytest.fixture
def sim() -> Simulator:
    """A fresh simulator."""
    return Simulator()


@pytest.fixture
def spec() -> MachineSpec:
    """The default (TPU host) machine specification."""
    return tpu_host_spec()


@pytest.fixture
def cloud_spec() -> MachineSpec:
    """The Cloud TPU host specification (high remote sensitivity)."""
    return cloud_tpu_host_spec()


@pytest.fixture
def machine(sim: Simulator, spec: MachineSpec) -> Machine:
    """A live machine on the default spec."""
    return Machine(spec, sim)


@pytest.fixture
def node(sim: Simulator, spec: MachineSpec) -> Node:
    """A managed node with all host interfaces."""
    return Node.create(spec, sim)


@pytest.fixture
def metrics_rows():
    """Finalize a run observer and parse its metrics file back into rows."""

    def read(observer) -> list[dict]:
        observer.finalize()
        with open(observer.config.metrics_path, encoding="utf-8") as handle:
            return [json.loads(line) for line in handle]

    return read
