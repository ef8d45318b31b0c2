"""Seeded fleet-level fault schedules.

An :class:`IncidentSchedule` is a timed list of :class:`IncidentSpec`
injections against orchestrator / member / control-plane state — the input
half of the AIOpsLab-style loop (the output half being detection,
localization and remediation). Five incident classes are modeled:

* ``node-death`` — a member dies *silently* at ``start_s`` and reboots at
  ``end_s``: its server black-holes traffic, its telemetry freezes, and it
  keeps reporting its pre-death load (a traffic magnet for least-loaded
  routing). Nothing announces the failure.
* ``telemetry-blackout`` — the node keeps serving but both the fleet and
  the node's own governor see a frozen sensor snapshot until ``end_s``.
  An optional batch arrival rides along (``batch_workload`` /
  ``batch_intensity`` params): interference the blind governor cannot see.
* ``stuck-actuator`` — every control-plane knob write on the node fails
  inside the window (a deterministic fault window, no RNG). The governor
  keeps deciding; nothing lands. The same optional batch arrival provides
  interference the stuck knobs cannot throttle.
* ``noisy-neighbor`` — an unaccounted intruder tenant submits pathological
  high-demand requests (MoCA's abusive-tenant scenario) from a dedicated
  seeded arrival stream; its requests hog server lanes fleet-wide without
  ever appearing in the offered-request accounting.
* ``routing-misconfig`` — the admission router is wrapped so that a
  deterministic fraction of arrivals is null-routed (counted as offered,
  never submitted) until the configuration is restored.

Schedules are pure data: deterministic given ``(seed, knobs)``, JSON
round-trippable (:func:`save_scenario` / :func:`load_scenario`), and
picklable so an experiment sweep can ship one schedule to worker processes
via the sweep context.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

import numpy as np

from repro.errors import ConfigurationError, ReproError
from repro.workloads.cpu.catalog import cpu_workload

#: The incident classes, in canonical order.
INCIDENT_KINDS = (
    "node-death",
    "telemetry-blackout",
    "stuck-actuator",
    "noisy-neighbor",
    "routing-misconfig",
)

#: Incident kinds that target one specific node.
NODE_KINDS = frozenset({"node-death", "telemetry-blackout", "stuck-actuator"})

#: Scenario-file format tag.
SCENARIO_FORMAT = "repro.incidents/1"

#: Stream tag for schedule-level jitter (independent of every fleet stream).
_STREAM_SCHEDULE = 0x1C1D


class Param(NamedTuple):
    """One incident parameter: its default and what a valid value is."""

    default: Any
    #: What a valid value is, as an error message says it.
    what: str
    #: Whether a (JSON-clean) value is valid, its type included.
    valid: Callable[[Any], bool]


def _number(value: Any) -> bool:
    """A finite int or float; a bool is not a number here."""
    return type(value) in (int, float) and math.isfinite(value)


#: The optional batch job that rides along a blackout or a stuck actuator.
#: No ``batch_workload`` means no rider.
_BATCH_RIDER = {
    "batch_workload": Param(None, "a CPU workload name", lambda v: type(v) is str),
    "batch_intensity": Param(
        8, "an integer >= 1", lambda v: type(v) is int and v >= 1
    ),
}

#: Each incident kind's params: name -> default and what a valid value is.
INCIDENT_PARAMS: dict[str, dict[str, Param]] = {
    "node-death": {},
    "telemetry-blackout": _BATCH_RIDER,
    "stuck-actuator": _BATCH_RIDER,
    "noisy-neighbor": {
        "tenant": Param(
            "intruder", "a non-empty string", lambda v: type(v) is str and v != ""
        ),
        "rate_qps": Param(2.0, "a finite number > 0", lambda v: _number(v) and v > 0),
        "demand": Param(100.0, "a finite number > 0", lambda v: _number(v) and v > 0),
    },
    "routing-misconfig": {
        "drop_fraction": Param(
            0.5, "a number in [0, 1]", lambda v: _number(v) and 0 <= v <= 1
        ),
    },
}


@dataclass(frozen=True)
class IncidentSpec:
    """One timed fault injection.

    ``params`` is a tuple of ``(key, value)`` pairs (kept as a tuple so the
    spec stays hashable/frozen), each one of the kind's
    :data:`INCIDENT_PARAMS`; :meth:`param` reads one or its default.
    """

    kind: str
    start_s: float
    duration_s: float
    #: Target node index for node-scoped kinds (``None`` otherwise).
    node: int | None = None
    params: tuple[tuple[str, float | int | str], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in INCIDENT_KINDS:
            raise ConfigurationError(
                f"unknown incident kind {self.kind!r}; expected one of "
                f"{list(INCIDENT_KINDS)}"
            )
        if not (0 <= self.start_s < math.inf and 0 < self.duration_s < math.inf):
            raise ConfigurationError(
                f"incident {self.kind!r} needs a finite start_s >= 0 and "
                f"duration_s > 0"
            )
        if self.kind in NODE_KINDS and self.node is None:
            raise ConfigurationError(
                f"incident {self.kind!r} targets a node; pass node="
            )
        if self.node is not None and self.node < 0:
            raise ConfigurationError(
                f"incident {self.kind!r} needs node >= 0, got {self.node}"
            )
        # Canonical key order so specs compare equal however they were
        # built (generator vs scenario file); the sort is stable, so
        # last-write-wins still holds for a repeated key.
        object.__setattr__(
            self, "params", tuple(sorted(self.params, key=lambda kv: kv[0]))
        )
        table = INCIDENT_PARAMS[self.kind]
        for key, value in self.params:
            if key not in table:
                raise ConfigurationError(
                    f"params.{key} is not a {self.kind} param (its params: "
                    f"{', '.join(sorted(table)) or 'none'})"
                )
            if not table[key].valid(value):
                raise ConfigurationError(
                    f"params.{key} must be {table[key].what}, got {value!r}"
                )
        if table is _BATCH_RIDER and self.param("batch_workload") is not None:
            workload = self.param("batch_workload")
            intensity = self.param("batch_intensity")
            try:
                cpu_workload(workload, intensity)
            except ReproError as exc:
                raise ConfigurationError(
                    f"params.batch_workload {workload!r} does not build with "
                    f"batch_intensity {intensity}: {exc}"
                ) from exc

    @property
    def end_s(self) -> float:
        """The instant the underlying fault clears."""
        return self.start_s + self.duration_s

    def param(self, key: str):
        """Read one ``params`` entry (last write wins), or the kind's
        default for it."""
        value = INCIDENT_PARAMS[self.kind][key].default
        for k, v in self.params:
            if k == key:
                value = v
        return value

    @property
    def target(self) -> str:
        """The ground-truth root-cause label localization must produce."""
        if self.kind in NODE_KINDS:
            return f"node:{self.node}"
        if self.kind == "noisy-neighbor":
            return f"tenant:{self.param('tenant')}"
        return "layer:routing"

    def as_dict(self) -> dict:
        """A JSON-clean rendering (scenario files, obs records)."""
        # Times are emitted at full precision: JSON round-trips Python
        # floats exactly, and a scenario reloaded from disk must replay
        # bit-identically to the schedule that generated it.
        data: dict = {
            "kind": self.kind,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "target": self.target,
        }
        if self.node is not None:
            data["node"] = self.node
        if self.params:
            data["params"] = {k: v for k, v in self.params}
        return data


@dataclass(frozen=True)
class IncidentSchedule:
    """An ordered, validated set of incident injections for one run."""

    incidents: tuple[IncidentSpec, ...] = ()
    #: Seeds the intruder arrival stream (and nothing else — every other
    #: injection is RNG-free by construction).
    seed: int = 0

    def __post_init__(self) -> None:
        starts = [i.start_s for i in self.incidents]
        if starts != sorted(starts):
            raise ConfigurationError(
                "incidents must be listed in start-time order"
            )

    def __len__(self) -> int:
        return len(self.incidents)

    @property
    def kinds(self) -> tuple[str, ...]:
        """The incident classes present, in schedule order."""
        return tuple(i.kind for i in self.incidents)

    def as_dict(self) -> dict:
        return {
            "format": SCENARIO_FORMAT,
            "seed": self.seed,
            "incidents": [i.as_dict() for i in self.incidents],
        }


def default_schedule(
    duration_s: float,
    nodes: int,
    seed: int = 0,
    classes: tuple[str, ...] = INCIDENT_KINDS,
    intruder_rate_qps: float | None = None,
    intruder_demand: float = 300.0,
    batch_workload: str = "stream",
    batch_intensity: int = 12,
    drop_fraction: float = 0.5,
) -> IncidentSchedule:
    """A seeded multi-incident scenario spread across ``duration_s``.

    Incidents are placed at evenly spaced fractions of the horizon with a
    small seeded jitter, each lasting ~9 % of it, so consecutive incidents
    never overlap and every one leaves a quiet gap for damage attribution.
    Node-scoped incidents round-robin across the fleet starting at node 0
    (whose index makes a silently dead node the least-loaded tie-break
    winner — the worst case for the routing layer).
    """
    if nodes < 1:
        raise ConfigurationError("default_schedule needs nodes >= 1")
    for kind in classes:
        if kind not in INCIDENT_KINDS:
            raise ConfigurationError(f"unknown incident class {kind!r}")
    if not classes:
        return IncidentSchedule(seed=seed)
    rng = np.random.default_rng(
        np.random.SeedSequence((seed, _STREAM_SCHEDULE))
    )
    n = len(classes)
    # Fractions of the horizon: centers spread over [0.14, 0.86].
    lo, hi = 0.14, 0.86
    step = (hi - lo) / max(n - 1, 1)
    length = min(0.09, 0.6 * step if n > 1 else 0.09) * duration_s
    incidents: list[IncidentSpec] = []
    node_cursor = 0
    for i, kind in enumerate(classes):
        center = (lo + i * step if n > 1 else 0.5) * duration_s
        jitter = float(rng.uniform(-0.01, 0.01)) * duration_s
        start = max(0.0, center + jitter - length / 2.0)
        node: int | None = None
        params: tuple[tuple[str, float | int | str], ...] = ()
        if kind in NODE_KINDS:
            node = node_cursor % nodes
            node_cursor += 1
        if kind in ("telemetry-blackout", "stuck-actuator"):
            params = (
                ("batch_workload", batch_workload),
                ("batch_intensity", batch_intensity),
            )
        elif kind == "noisy-neighbor":
            rate = (
                intruder_rate_qps
                if intruder_rate_qps is not None
                else 0.8 * nodes
            )
            params = (
                ("tenant", INCIDENT_PARAMS[kind]["tenant"].default),
                ("rate_qps", rate),
                ("demand", intruder_demand),
            )
        elif kind == "routing-misconfig":
            params = (("drop_fraction", drop_fraction),)
        incidents.append(
            IncidentSpec(
                kind=kind,
                start_s=start,
                duration_s=length,
                node=node,
                params=params,
            )
        )
    return IncidentSchedule(incidents=tuple(incidents), seed=seed)


def save_scenario(schedule: IncidentSchedule, path: str) -> None:
    """Write a schedule as a JSON scenario file, making its directory."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(schedule.as_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


#: Accepted JSON value types, by what an error message calls them. A JSON
#: boolean is none of them, although Python's ``bool`` is an ``int``.
_STRING = ("a string", (str,))
_INTEGER = ("an integer", (int,))
_NUMBER = ("a finite number", (int, float))


def _checked(value, where: str, accepted: tuple[str, tuple[type, ...]]):
    """``value`` if it has one of the ``accepted`` types and is not a NaN
    or infinite float; a ConfigurationError naming ``where`` otherwise."""
    what, types = accepted
    if type(value) not in types or (
        type(value) is float and not math.isfinite(value)
    ):
        raise ConfigurationError(f"{where} must be {what}, got {value!r}")
    return value


def load_scenario(path: str) -> IncidentSchedule:
    """Read a JSON scenario file back into an :class:`IncidentSchedule`.

    A file that cannot be read or is not a well-formed scenario raises a
    :class:`ConfigurationError` that names the path, and the incident index
    and field at fault where there is one.
    """
    if not os.path.exists(path):
        raise ConfigurationError(f"scenario file not found: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers malformed JSON and bytes that are not UTF-8.
        raise ConfigurationError(f"{path}: cannot read scenario: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigurationError(f"{path}: a scenario file must be an object")
    if data.get("format") != SCENARIO_FORMAT:
        raise ConfigurationError(
            f"{path}: not a {SCENARIO_FORMAT} scenario file "
            f"(format={data.get('format')!r})"
        )
    rows = data.get("incidents", [])
    if not isinstance(rows, list):
        raise ConfigurationError(f"{path}: incidents must be a list, got {rows!r}")
    incidents = []
    for index, row in enumerate(rows):
        at = f"{path}: incidents[{index}]"
        if not isinstance(row, dict):
            raise ConfigurationError(f"{at} must be an object, got {row!r}")
        for key in ("kind", "start_s", "duration_s"):
            if key not in row:
                raise ConfigurationError(f"{at} has no {key}")
        params = row.get("params", {})
        if not isinstance(params, dict):
            raise ConfigurationError(f"{at} params must be an object, got {params!r}")
        node = row.get("node")
        fields = {
            "kind": _checked(row["kind"], f"{at} kind", _STRING),
            "start_s": float(_checked(row["start_s"], f"{at} start_s", _NUMBER)),
            "duration_s": float(
                _checked(row["duration_s"], f"{at} duration_s", _NUMBER)
            ),
            "node": None if node is None else _checked(node, f"{at} node", _INTEGER),
            "params": tuple(params.items()),
        }
        try:
            incidents.append(IncidentSpec(**fields))
        except ConfigurationError as exc:
            raise ConfigurationError(f"{at}: {exc}") from exc
    seed = _checked(data.get("seed", 0), f"{path}: seed", _INTEGER)
    try:
        return IncidentSchedule(incidents=tuple(incidents), seed=seed)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc
