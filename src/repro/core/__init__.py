"""Kelp: the paper's runtime (Section IV).

This package is the primary contribution of the reproduction:

* :mod:`repro.core.watermarks` — per-application QoS profiles (high/low
  watermarks for bandwidth, latency and saturation).
* :mod:`repro.core.measurements` — the four runtime measurements Kelp makes
  (socket bandwidth, memory latency, memory saturation, high-priority
  subdomain bandwidth), read through the simulated perf interface.
* :mod:`repro.core.actions` — Algorithm 2: the THROTTLE/BOOST/NOP resource
  configuration procedures for each subdomain.
* :mod:`repro.core.policies` — the evaluated configurations: Baseline,
  CoreThrottle, Kelp-Subdomain, full Kelp, and the Section VI-D fine-grained
  hardware-QoS estimate. KP and KP-SD run Algorithm 1, the node-level
  resource-management loop, as a
  :class:`~repro.control.governors.KelpGovernor` in their control loop.
"""

from repro.core.actions import Action, HiPriorityPlan, LoPriorityPlan
from repro.core.measurements import KelpMeasurements
from repro.core.policies import available_policies, make_policy
from repro.core.watermarks import QosProfile, Watermark, default_profile

__all__ = [
    "Action",
    "HiPriorityPlan",
    "KelpMeasurements",
    "LoPriorityPlan",
    "QosProfile",
    "Watermark",
    "available_policies",
    "default_profile",
    "make_policy",
]
