"""Configuration surface of the fleet orchestrator.

A fleet run is described declaratively: how many nodes, which per-node
isolation policy runs on them (BL/CT/KP-SD/KP — the node-level Kelp stack is
reused unchanged), how high-priority inference traffic is routed
(:mod:`repro.fleet.routing`), which tenants offer that traffic, and how many
best-effort batch jobs the cluster-level queue bin-packs onto the nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.control.actuators import ActuationFaultConfig
from repro.control.sensors import SensorConfig
from repro.errors import ConfigurationError
from repro.workloads.cpu.catalog import cpu_workload

#: Routing strategies understood by :func:`repro.fleet.routing.make_router`.
ROUTING_NAMES = ("random", "least-loaded", "interference-aware")

#: Fraction of a socket's peak bandwidth above which a node counts as
#: *bandwidth saturated* for the fleet statistic (the Fig 2 threshold).
SATURATED_BW_FRACTION = 0.70

#: Pressure quantum for interference-aware routing. Telemetry is one control
#: interval old; acting on raw float pressure would dump every arrival of an
#: interval onto the single momentarily-coolest node (a thundering herd).
#: Bucketing keeps stale near-ties from defeating live load balancing.
PRESSURE_BUCKET = 0.05


def pressure_bucket(pressure: float) -> int:
    """The routing bucket of a node's interference pressure."""
    return int(pressure / PRESSURE_BUCKET)


@dataclass(frozen=True)
class TenantSpec:
    """One latency-critical inference tenant sharing the fleet.

    ``load_fraction`` is this tenant's offered load *per node*, as a
    fraction of one clean node's standalone capacity; the orchestrator
    multiplies by the fleet size to obtain the aggregate arrival rate.
    """

    name: str
    load_fraction: float = 0.30
    #: Per-tenant p99 latency SLO, seconds.
    slo_p99_s: float = 0.060
    #: Deterministic (evenly spaced) instead of Poisson arrivals.
    deterministic: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("tenant needs a name")
        if self.load_fraction <= 0:
            raise ConfigurationError("tenant load_fraction must be positive")
        if self.slo_p99_s <= 0:
            raise ConfigurationError("tenant slo_p99_s must be positive")


@dataclass(frozen=True)
class BatchJobSpec:
    """One best-effort CPU job offered to the cluster batch queue."""

    workload: str = "stream"
    intensity: int | str = 4

    def __post_init__(self) -> None:
        if not self.workload:
            raise ConfigurationError("batch job needs a workload name")
        # Build the profile once, so a bad workload or intensity is refused
        # here rather than when the queue places the job.
        cpu_workload(self.workload, self.intensity)


def default_tenants() -> tuple[TenantSpec, ...]:
    """The two-tenant mix used by the fleet-sim experiments."""
    return (
        TenantSpec(name="search", load_fraction=0.35, slo_p99_s=0.060),
        TenantSpec(name="assist", load_fraction=0.15, slo_p99_s=0.100),
    )


@dataclass(frozen=True)
class FleetConfig:
    """One fleet run: nodes x policy x routing x tenants x batch queue."""

    nodes: int = 8
    #: Per-node isolation policy (BL / CT / KP-SD / KP / HW-QOS).
    policy: str = "KP"
    #: Admission routing strategy for high-priority traffic.
    routing: str = "interference-aware"
    #: The served inference workload (must be an inference catalog entry).
    ml: str = "rnn1"
    tenants: tuple[TenantSpec, ...] = field(default_factory=default_tenants)
    #: Best-effort jobs submitted to the batch queue at t=0.
    batch_jobs: tuple[BatchJobSpec, ...] = ()
    #: Maximum batch jobs co-resident on one node.
    max_jobs_per_node: int = 1
    #: Whether the fleet queue evicts batch jobs off nodes whose
    #: hi-subdomain watermarks trip (and backfills them elsewhere/later).
    batch_eviction: bool = True
    #: Consecutive hot samples before an eviction fires.
    eviction_patience: int = 2
    duration: float = 8.0
    warmup: float = 2.0
    #: Fleet control-loop interval (telemetry sampling, routing signals,
    #: batch-queue management), simulated seconds.
    interval: float = 0.5
    seed: int = 0
    #: Accounting window for time-of-day SLO/efficiency curves, simulated
    #: seconds (``None`` disables windowed accounting — the default for the
    #: fixed-rate fleet-sim experiments, whose summaries stay unchanged).
    window_s: float | None = None
    #: Telemetry degradation applied to every node policy's sensor suite
    #: (``None`` = perfect sensing).
    sensors: SensorConfig | None = None
    #: Actuation faults injected into every node policy's control plane
    #: (``None`` = every write lands).
    faults: ActuationFaultConfig | None = None

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ConfigurationError("fleet needs at least one node")
        if self.routing not in ROUTING_NAMES:
            raise ConfigurationError(
                f"unknown routing {self.routing!r}; expected one of "
                f"{list(ROUTING_NAMES)}"
            )
        if not self.tenants:
            raise ConfigurationError("fleet needs at least one tenant")
        if self.duration <= self.warmup:
            raise ConfigurationError("duration must exceed warmup")
        if self.interval <= 0:
            raise ConfigurationError("interval must be positive")
        if self.window_s is not None and self.window_s <= 0:
            raise ConfigurationError("window_s must be positive when set")
        if self.max_jobs_per_node < 1:
            raise ConfigurationError("max_jobs_per_node must be >= 1")
        if self.eviction_patience < 1:
            raise ConfigurationError("eviction_patience must be >= 1")

    def scaled_load(self, factor: float) -> "FleetConfig":
        """A copy with every tenant's offered load scaled by ``factor``."""
        if factor <= 0:
            raise ConfigurationError("load factor must be positive")
        return replace(
            self,
            tenants=tuple(
                replace(t, load_fraction=t.load_fraction * factor)
                for t in self.tenants
            ),
        )

    def total_load_fraction(self) -> float:
        """Aggregate per-node offered load across tenants."""
        return sum(t.load_fraction for t in self.tenants)


def uniform_batch_jobs(
    count: int, workload: str = "stream", intensity: int | str = 4
) -> tuple[BatchJobSpec, ...]:
    """``count`` identical batch jobs (the usual fleet-sim batch tier)."""
    if count < 0:
        raise ConfigurationError("batch job count must be >= 0")
    return tuple(
        BatchJobSpec(workload=workload, intensity=intensity)
        for _ in range(count)
    )
