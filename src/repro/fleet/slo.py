"""Fleet-level SLO accounting.

Per tenant the fleet tracks offered load, completions, the latency
distribution and the fraction of requests inside the tenant's p99 SLO;
fleet-wide it reports the saturated-node fraction (the Fig 2 statistic at
cluster scope) and an *efficiency* figure in the spirit of Fig 14: useful
work delivered per unit of work the cluster was asked to do, combining the
serving tier (SLO-good completions / offered requests) and the batch tier
(delivered units / nominal full-speed units) weighted by their offered
volumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.fleet.config import TenantSpec
from repro.metrics.percentile import StreamingPercentiles


@dataclass
class TenantAccount:
    """Mutable per-tenant counters while the fleet runs."""

    spec: TenantSpec
    #: Requests admitted after warmup.
    offered: int = 0
    #: Requests completed after warmup.
    completed: int = 0
    #: Completions whose latency met the tenant's p99 SLO.
    good: int = 0
    latencies: StreamingPercentiles = field(default_factory=StreamingPercentiles)

    def record(self, latency_s: float) -> None:
        """Account one post-warmup completion."""
        self.completed += 1
        self.latencies.add(latency_s)
        if latency_s <= self.spec.slo_p99_s:
            self.good += 1


@dataclass
class WindowAccount:
    """Mutable counters for one (time window, tenant) accounting bucket.

    Requests are bucketed by *admission* time, so a window's attainment is a
    property of the traffic that arrived in it — a request admitted at 13:59
    and completed at 14:01 counts against the 13:00 window.
    """

    offered: int = 0
    completed: int = 0
    good: int = 0
    latency_sum_s: float = 0.0

    def record(self, latency_s: float, slo_p99_s: float) -> None:
        """Account one completion against this bucket."""
        self.completed += 1
        self.latency_sum_s += latency_s
        if latency_s <= slo_p99_s:
            self.good += 1

    def attainment(self) -> float:
        """SLO-good completions / offered (0.0 for an empty bucket)."""
        return self.good / self.offered if self.offered else 0.0


@dataclass(frozen=True)
class TenantSlo:
    """Frozen per-tenant outcome of one fleet run."""

    name: str
    slo_p99_s: float
    offered: int
    completed: int
    #: Completions within SLO / offered requests (drops count against it).
    attainment: float
    #: SLO-good completions per post-warmup second.
    goodput_qps: float
    p50_s: float | None
    p99_s: float | None
    mean_s: float | None
    #: The binary verdict: measured p99 within the SLO.
    slo_met: bool

    def as_dict(self) -> dict[str, object]:
        """A JSON-clean row for the CLI/observability exports."""
        return {
            "tenant": self.name,
            "slo_p99_ms": round(self.slo_p99_s * 1e3, 3),
            "offered": self.offered,
            "completed": self.completed,
            "attainment": round(self.attainment, 6),
            "goodput_qps": round(self.goodput_qps, 3),
            "p50_ms": None if self.p50_s is None else round(self.p50_s * 1e3, 3),
            "p99_ms": None if self.p99_s is None else round(self.p99_s * 1e3, 3),
            "mean_ms": None if self.mean_s is None else round(self.mean_s * 1e3, 3),
            "slo_met": self.slo_met,
        }


def finalize_tenant(account: TenantAccount, window_s: float) -> TenantSlo:
    """Freeze one tenant's counters into a result row."""
    has_samples = account.latencies.count > 0
    p50 = account.latencies.percentile(50.0) if has_samples else None
    p99 = account.latencies.percentile(99.0) if has_samples else None
    mean = account.latencies.mean() if has_samples else None
    return TenantSlo(
        name=account.spec.name,
        slo_p99_s=account.spec.slo_p99_s,
        offered=account.offered,
        completed=account.completed,
        attainment=account.good / account.offered if account.offered else 0.0,
        goodput_qps=account.good / window_s if window_s > 0 else 0.0,
        p50_s=p50,
        p99_s=p99,
        mean_s=mean,
        slo_met=p99 is not None and p99 <= account.spec.slo_p99_s,
    )


def fleet_efficiency(
    slo_good: int,
    offered: int,
    batch_units: float,
    batch_nominal_units: float,
) -> float:
    """Useful work delivered / work requested, across both tiers.

    ``slo_good``/``offered`` are post-warmup request counts; the batch terms
    are post-warmup work units (delivered vs full-speed nominal). Both tiers
    contribute in their own units, so the figure is the offered-volume-
    weighted mean of serving yield and batch yield — 1.0 means every request
    met its SLO *and* every batch job ran at standalone speed.
    """
    denominator = offered + batch_nominal_units
    if denominator <= 0:
        return 0.0
    return (slo_good + batch_units) / denominator
