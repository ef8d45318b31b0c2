"""Admission routing for high-priority inference traffic.

Every tenant arrival is routed to exactly one node at admission time (there
is no cross-node migration of in-flight requests). Three strategies:

* ``random`` — uniform over the fleet; the memoryless baseline.
* ``least-loaded`` — fewest in-flight + queued requests; classic join-the-
  shortest-queue, blind to memory interference.
* ``interference-aware`` — avoid nodes whose telemetry shows memory
  pressure (saturation / loaded latency), then break ties by load. This is
  the cluster-level analogue of the paper's thesis: the signal that matters
  for accelerated ML tail latency is *memory-system interference*, not CPU
  queue depth.

Routers see only :class:`~repro.fleet.member.NodeSignals`-level state, via
the members' public surface — deterministic given the same fleet state and
(for ``random``) the same RNG stream.
"""

from __future__ import annotations

import abc
from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.fleet.config import ROUTING_NAMES, pressure_bucket
from repro.fleet.member import FleetMember


class Router(abc.ABC):
    """Strategy interface: pick the node for one arriving request."""

    #: Registry name, set by subclasses.
    name: str = "abstract"

    @abc.abstractmethod
    def choose(self, members: Sequence[FleetMember]) -> FleetMember:
        """The member that admits the next request."""


class RandomRouter(Router):
    """Uniform random placement."""

    name = "random"

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng

    def choose(self, members: Sequence[FleetMember]) -> FleetMember:
        return members[int(self._rng.integers(0, len(members)))]


class LeastLoadedRouter(Router):
    """Join the shortest queue (in-flight + queued), ties by node index."""

    name = "least-loaded"

    @staticmethod
    def _key(member: FleetMember) -> tuple[int, int]:
        return (member.load, member.index)

    def choose(self, members: Sequence[FleetMember]) -> FleetMember:
        return min(members, key=self._key)


#: Effective-load inflation per pressure bucket. Pressure on a node stretches
#: its service times, so a pressured node's queue represents proportionally
#: more *work* than a clean node's; the router models that as a
#: multiplicative handicap. Being multiplicative keeps the bias capacity-
#: safe: a clean node can only ever absorb about ``1 + weight * buckets``
#: times a pressured node's load before arrivals spill back — it is biased
#: toward, never blacklisted into, absorbing the fleet. (Both an absolute
#: avoid rule and a large additive penalty were tried first; under load they
#: funnel the whole fleet's traffic onto the few clean nodes and collapse
#: them.)
PRESSURE_WEIGHT = 0.1


class InterferenceAwareRouter(Router):
    """Balance live load, biased away from memory pressure.

    The key is ``(load + 1) * (1 + PRESSURE_WEIGHT * pressure_bucket)`` —
    live queue depth inflated by the node's latest control-interval
    telemetry (:meth:`~repro.fleet.member.NodeSignals.pressure`, quantized
    to :data:`~repro.fleet.config.PRESSURE_BUCKET` so stale float jitter cannot cause
    thundering herds). Before the first telemetry tick every node reads as
    clean, so the router degrades to least-loaded — matching a production
    scheduler warming up its signals.
    """

    name = "interference-aware"

    @staticmethod
    def _key(member: FleetMember) -> tuple[float, int]:
        signals = member.last_signals
        pressure = signals.pressure() if signals is not None else 0.0
        bucket = pressure_bucket(pressure)
        effective = (member.load + 1) * (1.0 + PRESSURE_WEIGHT * bucket)
        return (effective, member.index)

    def choose(self, members: Sequence[FleetMember]) -> FleetMember:
        return min(members, key=self._key)


def make_router(name: str, rng: np.random.Generator | None = None) -> Router:
    """Instantiate a routing strategy by name.

    ``rng`` is required for ``random`` (the fleet passes a dedicated seeded
    stream so routing noise never perturbs arrival-time determinism).
    """
    key = name.lower()
    if key not in ROUTING_NAMES:
        raise ConfigurationError(
            f"unknown routing {name!r}; expected one of {list(ROUTING_NAMES)}"
        )
    if key == "random":
        if rng is None:
            raise ConfigurationError("random routing needs an RNG stream")
        return RandomRouter(rng)
    if key == "least-loaded":
        return LeastLoadedRouter()
    return InterferenceAwareRouter()
