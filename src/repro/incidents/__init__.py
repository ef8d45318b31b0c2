"""``repro.incidents``: fleet-scale fault injection, detection, response.

The incident layer sits *above* the fleet: it injects scheduled faults
into a :class:`~repro.fleet.orchestrator.FleetOrchestrator` run through
the :class:`~repro.fleet.orchestrator.FleetHooks` surface, watches the
same telemetry exports a production watchdog would, localizes root causes,
optionally auto-remediates, and scores each incident's SLO damage against
clean and no-remediation counterfactual runs. See ``docs/incidents.md``.
"""

from repro.incidents.detect import (
    Alarm,
    DetectorBank,
    FleetView,
    NodeView,
)
from repro.incidents.engine import IncidentEngine
from repro.incidents.faults import (
    INCIDENT_KINDS,
    IncidentSchedule,
    IncidentSpec,
    default_schedule,
    load_scenario,
    save_scenario,
)
from repro.incidents.localize import Candidate, localize
from repro.incidents.remediate import (
    ConservativeGovernor,
    RemediationAction,
    Remediator,
)
from repro.incidents.score import IncidentScore, Scorecard, score_trial

__all__ = [
    "Alarm",
    "Candidate",
    "ConservativeGovernor",
    "DetectorBank",
    "FleetView",
    "INCIDENT_KINDS",
    "IncidentEngine",
    "IncidentSchedule",
    "IncidentScore",
    "IncidentSpec",
    "NodeView",
    "RemediationAction",
    "Remediator",
    "Scorecard",
    "default_schedule",
    "load_scenario",
    "localize",
    "save_scenario",
    "score_trial",
]
