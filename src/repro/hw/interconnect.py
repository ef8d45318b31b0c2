"""Cross-socket interconnect (UPI/QPI) model.

Remote memory traffic — threads on socket A accessing DRAM homed on socket B —
has three effects the paper measures (Section VI-A, Figs 15–16):

1. it consumes bandwidth at the *home* controller, amplified by the
   directory/snoop coherence overhead;
2. it occupies the UPI link, whose utilization adds latency to every remote
   access;
3. coherence work injected into the home socket inflates memory latency for
   *local* requesters there too — with a platform-specific sensitivity that
   is markedly higher on Cloud TPU hosts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.hw.spec import UpiSpec
from repro.units import clamp


@dataclass(frozen=True)
class UpiLoad:
    """Resolved state of one UPI direction for the current fluid epoch."""

    demand_gbps: float
    utilization: float
    #: Grant ratio for traffic crossing the link, in (0, 1].
    grant_ratio: float
    #: Extra latency factor applied to remote accesses over this link.
    remote_latency_factor: float


class UpiModel:
    """Analytic model of the socket-to-socket link (one per direction)."""

    def __init__(self, spec: UpiSpec) -> None:
        if spec.peak_bw_gbps <= 0:
            raise ConfigurationError("UPI peak bandwidth must be positive")
        self.spec = spec

    def resolve(self, demand_gbps: float) -> UpiLoad:
        """Resolve link state for an offered cross-socket demand."""
        if demand_gbps < 0:
            raise ConfigurationError(f"negative UPI demand {demand_gbps}")
        peak = self.spec.peak_bw_gbps
        delivered = min(demand_gbps, peak)
        grant = 1.0 if demand_gbps <= peak else peak / demand_gbps
        utilization = delivered / peak
        # Remote accesses pay the hop plus queueing on the link.
        u = clamp(utilization, 0.0, 0.999)
        remote_latency = 1.25 + 0.6 * (u ** 2) / (1.0 - u)
        return UpiLoad(
            demand_gbps=demand_gbps,
            utilization=utilization,
            grant_ratio=grant,
            remote_latency_factor=min(remote_latency, 8.0),
        )

    def home_latency_injection(
        self, utilization: float, remote_sensitivity: float
    ) -> float:
        """Additive latency-factor term for the *home* socket's requesters.

        Scales with link utilization and the platform's remote sensitivity;
        this is the mechanism behind the Cloud TPU platform's outsized
        vulnerability to remote aggressors.
        """
        u = clamp(utilization, 0.0, 1.0)
        return self.spec.latency_injection * remote_sensitivity * (u ** 1.5)
