"""Versioned on-disk trace schema and the in-memory columnar trace.

A trace file is JSONL (gzipped when the path ends in ``.gz``):

* Line 1 — a header object::

      {"schema": "repro.trace/1", "duration_s": 86400.0, "requests": 1000000,
       "tenants": [{"name": "search", "slo_p99_ms": 60.0, "weight": 2.0}, ...],
       "families": [{"name": "short", "demand": 0.5, "weight": 0.6}, ...],
       "meta": {...}}

* Lines 2..N+1 — one compact array per request::

      [arrival_s, tenant_id, family_id]

  ``arrival_s`` is the absolute arrival timestamp (seconds, non-decreasing);
  ``tenant_id``/``family_id`` index the header's ``tenants``/``families``
  lists. Per-request accelerator demand is the family's ``demand`` — rows
  carry indices, not floats, so a million-request day stays compact.

The in-memory :class:`Trace` holds the columns as numpy arrays, ready for
vectorized statistics and zero-copy handoff to the replay generator.
"""

from __future__ import annotations

import gzip
import json
import math
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Any, Iterator, Mapping

import numpy as np

from repro.errors import ConfigurationError

#: Version tag written to (and required of) every trace file header.
TRACE_SCHEMA = "repro.trace/1"

#: What reading a damaged trace file raises. A file that is not gzip
#: (``BadGzipFile`` is an ``OSError``), a truncated gzip stream, a corrupt
#: deflate stream and bytes that are not UTF-8 all surface while reading,
#: not at open.
_READ_ERRORS = (OSError, EOFError, zlib.error, UnicodeDecodeError)


@dataclass(frozen=True)
class TraceTenant:
    """One tenant appearing in a trace.

    ``weight`` is the tenant's share of overall traffic (relative, not
    normalized); ``slo_p99_ms`` is its p99 latency target, carried in the
    trace so replay builds the fleet's SLO accounting from the data alone.
    """

    name: str
    slo_p99_ms: float = 60.0
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("trace tenant needs a name")
        if self.slo_p99_ms <= 0:
            raise ConfigurationError(f"tenant {self.name!r}: slo_p99_ms must be positive")
        if self.weight <= 0:
            raise ConfigurationError(f"tenant {self.name!r}: weight must be positive")


@dataclass(frozen=True)
class TraceFamily:
    """One job family: a class of requests with a shared service demand.

    ``demand`` multiplies the model's nominal per-request work (host compute,
    PCIe transfer and accelerator op alike); ``weight`` is the family's
    relative share of requests.
    """

    name: str
    demand: float = 1.0
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("trace family needs a name")
        if self.demand <= 0:
            raise ConfigurationError(f"family {self.name!r}: demand must be positive")
        if self.weight <= 0:
            raise ConfigurationError(f"family {self.name!r}: weight must be positive")


@dataclass(frozen=True)
class Trace:
    """A workload trace as parallel columns over requests.

    Columns are index-aligned: request ``i`` arrives at ``arrivals_s[i]``,
    belongs to ``tenants[tenant_ids[i]]`` and runs job family
    ``families[family_ids[i]]``.
    """

    arrivals_s: np.ndarray
    tenant_ids: np.ndarray
    family_ids: np.ndarray
    tenants: tuple[TraceTenant, ...]
    families: tuple[TraceFamily, ...]
    duration_s: float
    meta: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        arrivals = np.asarray(self.arrivals_s, dtype=np.float64)
        tenant_ids = np.ascontiguousarray(self.tenant_ids, dtype=np.int32)
        family_ids = np.ascontiguousarray(self.family_ids, dtype=np.int32)
        object.__setattr__(self, "arrivals_s", arrivals)
        object.__setattr__(self, "tenant_ids", tenant_ids)
        object.__setattr__(self, "family_ids", family_ids)
        if arrivals.ndim != 1 or tenant_ids.ndim != 1 or family_ids.ndim != 1:
            raise ConfigurationError("trace columns must be one-dimensional")
        if not (arrivals.size == tenant_ids.size == family_ids.size):
            raise ConfigurationError("trace columns must be index-aligned")
        if not self.tenants:
            raise ConfigurationError("trace needs at least one tenant")
        if not self.families:
            raise ConfigurationError("trace needs at least one family")
        if not 0 < self.duration_s < math.inf:
            raise ConfigurationError("trace duration_s must be positive and finite")
        if not isinstance(self.meta, Mapping):
            raise ConfigurationError("trace meta must be an object")
        if arrivals.size:
            if not np.isfinite(arrivals).all():
                raise ConfigurationError("trace arrivals must be finite")
            if np.any(np.diff(arrivals) < 0):
                raise ConfigurationError("trace arrivals must be non-decreasing")
            if arrivals[0] < 0 or arrivals[-1] > self.duration_s:
                raise ConfigurationError(
                    "trace arrivals must lie within [0, duration_s]"
                )
            if tenant_ids.min() < 0 or tenant_ids.max() >= len(self.tenants):
                raise ConfigurationError("tenant_ids out of range")
            if family_ids.min() < 0 or family_ids.max() >= len(self.families):
                raise ConfigurationError("family_ids out of range")

    def __len__(self) -> int:
        return int(self.arrivals_s.size)

    @property
    def demands(self) -> np.ndarray:
        """Per-request accelerator demand (the family demand, gathered)."""
        table = np.array([f.demand for f in self.families], dtype=np.float64)
        return table[self.family_ids]

    def tenant_request_counts(self) -> np.ndarray:
        """Requests per tenant (index-aligned with :attr:`tenants`)."""
        return np.bincount(self.tenant_ids, minlength=len(self.tenants))

    def header(self) -> dict[str, Any]:
        """The JSON header object for this trace."""
        return {
            "schema": TRACE_SCHEMA,
            "duration_s": self.duration_s,
            "requests": len(self),
            "tenants": [
                {"name": t.name, "slo_p99_ms": t.slo_p99_ms, "weight": t.weight}
                for t in self.tenants
            ],
            "families": [
                {"name": f.name, "demand": f.demand, "weight": f.weight}
                for f in self.families
            ],
            "meta": dict(self.meta),
        }


def _open(path: Path, mode: str) -> IO[str]:
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t", encoding="utf-8")  # type: ignore[return-value]
    return open(path, mode, encoding="utf-8")


def save_trace(trace: Trace, path: str | Path) -> None:
    """Write ``trace`` to ``path`` (gzipped when the name ends in ``.gz``)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # Python lists of native scalars: repr() of a Python float is the
    # shortest round-tripping decimal, so save→load is bit-exact.
    arrivals = trace.arrivals_s.tolist()
    tenant_ids = trace.tenant_ids.tolist()
    family_ids = trace.family_ids.tolist()
    with _open(path, "w") as fh:
        fh.write(json.dumps(trace.header(), separators=(",", ":")) + "\n")
        write = fh.write
        for arrival, tenant, family in zip(arrivals, tenant_ids, family_ids):
            write(f"[{arrival!r},{tenant},{family}]\n")


def _number(value: Any, where: str) -> float:
    """``value`` as a float, if it is a finite JSON number."""
    if type(value) in (int, float):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:
            pass
    raise ConfigurationError(f"{where} must be a finite number, got {value!r}")


def _specs(
    header: dict[str, Any], key: str, cls: type, numbers: tuple[str, ...], where: str
) -> tuple:
    """The header's ``key`` table (tenants or families) as ``cls`` specs.

    A row is an object with a string ``name``; each of its ``numbers``
    fields it omits takes the spec's default.
    """
    rows = header.get(key, [])
    if not isinstance(rows, list):
        raise ConfigurationError(f"{where} {key} must be a list, got {rows!r}")
    specs = []
    for index, row in enumerate(rows):
        at = f"{where} {key}[{index}]"
        if not isinstance(row, dict):
            raise ConfigurationError(f"{at} must be an object, got {row!r}")
        if type(row.get("name")) is not str:
            raise ConfigurationError(
                f"{at} name must be a string, got {row.get('name')!r}"
            )
        fields = {
            name: _number(row[name], f"{at} {name}")
            for name in numbers
            if name in row
        }
        try:
            specs.append(cls(name=row["name"], **fields))
        except ConfigurationError as exc:
            raise ConfigurationError(f"{at}: {exc}") from exc
    return tuple(specs)


def _parse_header(line: str, path: Path) -> dict[str, Any]:
    """The header line, checked: ``duration_s`` a float, ``requests`` an
    int or None, ``tenants`` and ``families`` tuples of specs."""
    try:
        header = json.loads(line)
    except (ValueError, RecursionError) as exc:
        raise ConfigurationError(f"{path}: malformed trace header: {exc}") from exc
    if not isinstance(header, dict):
        raise ConfigurationError(f"{path}: trace header must be an object")
    schema = header.get("schema")
    if schema != TRACE_SCHEMA:
        raise ConfigurationError(
            f"{path}: unsupported trace schema {schema!r} "
            f"(expected {TRACE_SCHEMA!r})"
        )
    where = f"{path}: trace header"
    if "duration_s" not in header:
        raise ConfigurationError(f"{where} has no duration_s")
    requests = header.get("requests")
    if requests is not None and type(requests) is not int:
        raise ConfigurationError(
            f"{where} requests must be an integer, got {requests!r}"
        )
    return {
        **header,
        "duration_s": _number(header["duration_s"], f"{where} duration_s"),
        "tenants": _specs(
            header, "tenants", TraceTenant, ("slo_p99_ms", "weight"), where
        ),
        "families": _specs(
            header, "families", TraceFamily, ("demand", "weight"), where
        ),
    }


def _iter_rows(
    fh: IO[str], path: Path, tenants: int, families: int
) -> Iterator[tuple[float, int, int]]:
    """Each request row as ``(arrival_s, tenant_id, family_id)``, checked
    against the header's ``tenants`` and ``families`` counts."""
    for lineno, line in enumerate(fh, start=2):
        line = line.strip()
        if not line:
            continue
        try:
            row = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise ConfigurationError(
                f"{path}:{lineno}: malformed trace row: {exc}"
            ) from exc
        if not isinstance(row, list) or len(row) != 3:
            raise ConfigurationError(
                f"{path}:{lineno}: trace row must be [arrival_s, tenant_id, "
                "family_id]"
            )
        arrival, tenant, family = row
        if type(arrival) is not float or not math.isfinite(arrival):
            arrival = _number(arrival, f"{path}:{lineno}: arrival_s")
        if type(tenant) is not int or not 0 <= tenant < tenants:
            raise ConfigurationError(
                f"{path}:{lineno}: tenant_id must be an integer in "
                f"[0, {tenants}), got {tenant!r}"
            )
        if type(family) is not int or not 0 <= family < families:
            raise ConfigurationError(
                f"{path}:{lineno}: family_id must be an integer in "
                f"[0, {families}), got {family!r}"
            )
        yield arrival, tenant, family


def load_trace(path: str | Path) -> Trace:
    """Load a trace file written by :func:`save_trace`.

    A file that cannot be read or is not a well-formed trace raises a
    :class:`ConfigurationError` that names the path, and the line and
    field at fault where there is one.
    """
    path = Path(path)
    try:
        fh = _open(path, "r")
    except OSError as exc:
        raise ConfigurationError(f"cannot read trace {path}: {exc}") from exc
    try:
        with fh:
            first = fh.readline()
            if not first:
                raise ConfigurationError(f"{path}: empty trace file")
            header = _parse_header(first, path)
            arrivals: list[float] = []
            tenant_ids: list[int] = []
            family_ids: list[int] = []
            rows = _iter_rows(
                fh, path, len(header["tenants"]), len(header["families"])
            )
            for arrival, tenant, family in rows:
                arrivals.append(arrival)
                tenant_ids.append(tenant)
                family_ids.append(family)
    except _READ_ERRORS as exc:
        raise ConfigurationError(f"cannot read trace {path}: {exc}") from exc
    declared = header.get("requests")
    if declared is not None and declared != len(arrivals):
        raise ConfigurationError(
            f"{path}: header declares {declared} requests, file has "
            f"{len(arrivals)}"
        )
    try:
        return Trace(
            arrivals_s=np.asarray(arrivals, dtype=np.float64),
            tenant_ids=np.asarray(tenant_ids, dtype=np.int32),
            family_ids=np.asarray(family_ids, dtype=np.int32),
            tenants=header["tenants"],
            families=header["families"],
            duration_s=header["duration_s"],
            meta=header.get("meta", {}),
        )
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc


def trace_digest(trace: Trace) -> str:
    """A stable content digest of a trace's replayable substance.

    Covers the arrival/tenant/family columns (exact bytes), the horizon,
    and the tenant/family tables — everything replay behaviour depends on;
    ``meta`` is excluded. Checkpoints store this digest so a restore can
    refuse a trace that differs from the one the run was driven by.
    """
    import hashlib

    hasher = hashlib.sha256()
    hasher.update(np.ascontiguousarray(trace.arrivals_s, dtype=np.float64))
    hasher.update(np.ascontiguousarray(trace.tenant_ids, dtype=np.int32))
    hasher.update(np.ascontiguousarray(trace.family_ids, dtype=np.int32))
    header = {
        "duration_s": trace.duration_s,
        "tenants": [
            [t.name, t.weight, t.slo_p99_ms] for t in trace.tenants
        ],
        "families": [
            [f.name, f.demand, f.weight] for f in trace.families
        ],
    }
    hasher.update(json.dumps(header, sort_keys=True).encode("utf-8"))
    return hasher.hexdigest()
