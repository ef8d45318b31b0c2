"""The evaluated runtime configurations (Section V-A plus Section VI-D)."""

from __future__ import annotations

from repro.node import Node
from repro.control.actuators import ActuationFaultConfig
from repro.control.sensors import SensorConfig
from repro.core.policies.base import (
    CpuTaskPlan,
    IsolationPolicy,
    ROLE_BACKFILL,
    ROLE_LO,
)
from repro.core.policies.baseline import BaselinePolicy
from repro.core.policies.core_throttle import CoreThrottlePolicy
from repro.core.policies.hw_prefetch import HwPrefetchPolicy
from repro.core.policies.hw_qos import HwQosPolicy
from repro.core.policies.kelp_full import KelpPolicy
from repro.core.policies.mba import MbaPolicy
from repro.core.policies.subdomain import SubdomainPolicy
from repro.core.watermarks import QosProfile, default_profile
from repro.errors import ConfigurationError

_POLICIES: dict[str, type[IsolationPolicy]] = {
    "BL": BaselinePolicy,
    "CT": CoreThrottlePolicy,
    "KP-SD": SubdomainPolicy,
    "KP": KelpPolicy,
    "HW-QOS": HwQosPolicy,
    "MBA": MbaPolicy,
    "HW-PF": HwPrefetchPolicy,
}


def available_policies() -> list[str]:
    """Names accepted by :func:`make_policy`, in the paper's order."""
    return list(_POLICIES)


def make_policy(
    name: str,
    node: Node,
    ml_cores: int,
    profile: QosProfile | None = None,
    interval: float = 1.0,
    sensors: SensorConfig | None = None,
    faults: ActuationFaultConfig | None = None,
) -> IsolationPolicy:
    """Instantiate a policy by its paper name (BL/CT/KP-SD/KP/HW-QOS).

    ``sensors`` degrades the policy's telemetry path (staleness, noise,
    dropout); ``faults`` injects actuation-write failures. Both default to
    perfect sensing and lossless writes.
    """
    try:
        cls = _POLICIES[name.upper()]
    except KeyError:
        raise ConfigurationError(
            f"unknown policy {name!r}; expected one of {available_policies()}"
        ) from None
    if profile is None:
        profile = cls.default_qos_profile(node.machine.spec, ml_cores=ml_cores)
    return cls(
        node, ml_cores, profile, interval=interval, sensors=sensors, faults=faults
    )


__all__ = [
    "BaselinePolicy",
    "MbaPolicy",
    "CoreThrottlePolicy",
    "CpuTaskPlan",
    "HwPrefetchPolicy",
    "HwQosPolicy",
    "IsolationPolicy",
    "KelpPolicy",
    "ROLE_BACKFILL",
    "ROLE_LO",
    "SubdomainPolicy",
    "available_policies",
    "make_policy",
]
