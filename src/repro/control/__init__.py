"""The layered node control plane: sensors → governors → actuators.

Every managed policy runs the same sense→decide→enforce tick, built from
three replaceable layers driven by one shared loop:

* :mod:`repro.control.sensors` — a :class:`SensorSuite` wraps the perf-read
  path behind an interface. :class:`PerfectSensors` takes one exact
  windowed read per tick; composable decorators add telemetry staleness
  (sample-and-hold), Gaussian counter noise, and sample dropout for
  degraded-telemetry studies.
* :mod:`repro.control.governors` — a :class:`Governor` turns one measurement
  sample into a :class:`GovernorDecision` (actions + desired knob values).
  :class:`KelpGovernor` is Algorithm 1/2 (KP and KP-SD);
  :class:`CoreThrottleGovernor` and :class:`MbaGovernor` are the CT and MBA
  feedback loops.
* :mod:`repro.control.actuators` — the :class:`HostControlPlane` facade
  routes **every** knob write (cpuset masks, prefetcher MSRs, CAT/resctrl,
  MBA caps) through the :mod:`repro.hostif` controllers, dedupes no-op
  re-writes, records each physical write in an actuation journal, and can
  inject bounded-retry write faults (failed/deferred actuations).
* :mod:`repro.control.loop` — :class:`ControlLoop` owns the tick: sample,
  decide, actuate, record. Its history is the single
  :class:`~repro.control.records.ControlTickRecord` stream consumed by the
  figures, the obs JSONL export, and the fleet member. A policy assembles
  its loop with ``IsolationPolicy._make_loop``.

Layering: this package may import :mod:`repro.core` domain types
(measurements, actions, watermarks) and the host surfaces, but never
:mod:`repro.experiments` or :mod:`repro.fleet` (enforced by
``scripts/check_layering.py``).

Equivalence guarantee: under :class:`PerfectSensors` with faults disabled,
the experiment summaries match the committed goldens bit-for-bit
(``tests/integration/test_golden_equivalence.py``).
"""

from repro.control.actuators import ActuationFaultConfig, HostControlPlane
from repro.control.governors import (
    CoreThrottleGovernor,
    Governor,
    GovernorDecision,
    KelpGovernor,
    MbaGovernor,
)
from repro.control.loop import ControlLoop
from repro.control.records import ActuationRecord, ControlTickRecord
from repro.control.sensors import (
    DropoutSensors,
    NoisySensors,
    PerfectSensors,
    SensorConfig,
    SensorSuite,
    StaleSensors,
    build_sensor_suite,
)

__all__ = [
    "ActuationFaultConfig",
    "ActuationRecord",
    "ControlLoop",
    "ControlTickRecord",
    "CoreThrottleGovernor",
    "DropoutSensors",
    "Governor",
    "GovernorDecision",
    "HostControlPlane",
    "KelpGovernor",
    "MbaGovernor",
    "NoisySensors",
    "PerfectSensors",
    "SensorConfig",
    "SensorSuite",
    "StaleSensors",
    "build_sensor_suite",
]
