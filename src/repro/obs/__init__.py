"""repro.obs — structured observability for the Kelp reproduction.

Three export surfaces behind one no-op-when-disabled observer:

* **JSONL metrics/records** (:mod:`repro.obs.metrics`,
  :meth:`RunObserver.record`): controller tick records, solver stats,
  telemetry time-series and registry roll-ups, one JSON object per line,
  streamed to the metrics file as the run goes.
* **Chrome trace events** (:mod:`repro.obs.trace`): `chrome://tracing` /
  Perfetto-loadable JSON built from :class:`~repro.sim.tracing.TimelineTracer`
  intervals, controller knob counters and THROTTLE/BOOST markers.
* **Run manifests** (:mod:`repro.obs.manifest`): config, seeds, git
  revision and wall time written next to the results, so every figure run
  is replayable.

Wired into the CLI via ``--trace-out`` / ``--metrics-out``; see
``docs/observability.md``.
"""

from repro.obs.manifest import build_manifest, git_revision, write_manifest
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.recorder import ObsConfig, RunObserver
from repro.obs.trace import ChromeTraceBuilder

__all__ = [
    "ChromeTraceBuilder",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ObsConfig",
    "RunObserver",
    "build_manifest",
    "git_revision",
    "write_manifest",
]
