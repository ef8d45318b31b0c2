"""The reference-mode switch: one environment variable turns off every fast path.

``REPRO_REFERENCE=1`` runs the simulator on its reference paths, which
every fast path must match bit for bit:

* fleet members tick eagerly instead of parking while quiescent
  (:mod:`repro.fleet.member`);
* admission routing scans every member instead of using the incremental
  routing index (:mod:`repro.fleet.index`);
* contention solvers start with their caches off
  (:mod:`repro.hw.contention`).

The differential tests run each scenario both ways and compare outputs.
The switch is read when the affected objects are built, so set it before
building a run.
"""

from __future__ import annotations

import os

#: The environment variable that selects reference mode.
REFERENCE_ENV = "REPRO_REFERENCE"


def reference_mode() -> bool:
    """Whether ``REPRO_REFERENCE=1`` is set."""
    return os.environ.get(REFERENCE_ENV, "").strip() == "1"
