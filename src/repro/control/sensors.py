"""Sensor suites: the measurement layer of the control plane.

Real QoS controllers live or die on imperfect signals — counters are
sampled on a cadence, reads get lost, and values carry noise. The
:class:`SensorSuite` protocol makes the sensing path a first-class,
replaceable layer: :class:`PerfectSensors` takes one exact windowed perf
read per tick, and the decorator classes compose degradations on top of any
inner suite:

* :class:`StaleSensors` — sample-and-hold: the underlying counters are only
  re-read every ``period`` simulated seconds; between refreshes the
  governor keeps deciding on the held (stale) sample.
* :class:`NoisySensors` — multiplicative Gaussian noise on every counter
  (latency noise perturbs the loaded-latency *excess* over 1.0, keeping the
  unloaded floor meaningful).
* :class:`DropoutSensors` — each fresh sample is lost with probability
  ``p``; the previous good sample is delivered instead.

All randomness is drawn from :class:`numpy.random.Generator` streams seeded
from the run seed, so degraded runs remain deterministic and process-pool
safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Protocol

import numpy as np

from repro.core.measurements import KelpMeasurements
from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.node import Node

#: Seed-stream tags (keep distinct from other subsystem tags).
_STREAM_NOISE = 0x53_4E
_STREAM_DROPOUT = 0x53_44

#: The perf reader name of a node's control loop (each node runs one).
CONTROL_READER = "control"


class SensorSuite(Protocol):
    """Anything that yields one :class:`KelpMeasurements` per control tick."""

    def sample(self) -> KelpMeasurements:
        """Produce the sample the governor will decide on."""
        ...


class PerfectSensors:
    """Zero-latency, zero-noise sensing.

    One windowed :meth:`~repro.hostif.perf.PerfCounters.read_kelp` per
    call, through the node's :data:`CONTROL_READER`: the four Algorithm 1
    measurements since the control loop's previous read.
    """

    def __init__(self, node: "Node") -> None:
        self._node = node

    def sample(self) -> KelpMeasurements:
        """One fresh windowed perf read."""
        node = self._node
        return KelpMeasurements(
            *node.perf.read_kelp(CONTROL_READER, node.accel_socket, node.hi_subdomain)
        )


class _SimClock:
    """Picklable ``now`` callable bound to a node's simulator clock."""

    __slots__ = ("_node",)

    def __init__(self, node: "Node") -> None:
        self._node = node

    def __call__(self) -> float:
        return self._node.sim.now


class StaleSensors:
    """Sample-and-hold: refresh the inner suite at most every ``period`` s.

    Between refreshes the held sample is returned unchanged and the inner
    suite is *not* consulted, so the underlying perf window naturally grows
    to cover the whole staleness period (as a slow telemetry pipeline's
    would).
    """

    def __init__(
        self,
        inner: SensorSuite,
        period: float,
        now_fn: Callable[[], float],
    ) -> None:
        if period <= 0:
            raise ConfigurationError("staleness period must be positive")
        self._inner = inner
        self._period = period
        self._now = now_fn
        self._held: KelpMeasurements | None = None
        self._held_at = 0.0

    def sample(self) -> KelpMeasurements:
        """The held sample, refreshed when the hold period has elapsed."""
        now = self._now()
        if (
            self._held is None
            or now - self._held_at >= self._period - 1e-12
        ):
            self._held = self._inner.sample()
            self._held_at = now
        return self._held


class NoisySensors:
    """Multiplicative Gaussian noise on every counter of the sample."""

    def __init__(
        self, inner: SensorSuite, sigma: float, rng: np.random.Generator
    ) -> None:
        if sigma < 0:
            raise ConfigurationError("noise sigma must be non-negative")
        self._inner = inner
        self._sigma = sigma
        self._rng = rng

    def _factor(self) -> float:
        return max(0.0, 1.0 + self._sigma * float(self._rng.standard_normal()))

    def sample(self) -> KelpMeasurements:
        """The inner sample with per-counter noise applied."""
        m = self._inner.sample()
        if self._sigma == 0.0:
            return m
        return KelpMeasurements(
            socket_bw=m.socket_bw * self._factor(),
            socket_latency=max(
                0.0, 1.0 + (m.socket_latency - 1.0) * self._factor()
            ),
            saturation=min(1.0, max(0.0, m.saturation * self._factor())),
            hipri_bw=m.hipri_bw * self._factor(),
            elapsed=m.elapsed,
        )


class DropoutSensors:
    """Lose each fresh sample with probability ``p`` (deliver the last good).

    The very first sample is never dropped — a controller that has seen
    nothing yet must see *something* — matching how a telemetry pipeline's
    first publish races no previous value.
    """

    def __init__(
        self, inner: SensorSuite, probability: float, rng: np.random.Generator
    ) -> None:
        if not 0.0 <= probability < 1.0:
            raise ConfigurationError("dropout probability must be in [0, 1)")
        self._inner = inner
        self._p = probability
        self._rng = rng
        self._held: KelpMeasurements | None = None
        #: Samples lost so far (observability).
        self.dropped = 0

    def sample(self) -> KelpMeasurements:
        """A fresh sample, or the held one when the fresh read is lost."""
        fresh = self._inner.sample()
        if self._held is not None and float(self._rng.random()) < self._p:
            self.dropped += 1
            return self._held
        self._held = fresh
        return fresh


@dataclass(frozen=True)
class SensorConfig:
    """Declarative telemetry-degradation knobs (all off by default).

    Carried on :class:`~repro.experiments.common.MixConfig` and materialized
    per node by :func:`build_sensor_suite`; the all-zero default produces a
    bare :class:`PerfectSensors` (the golden-equivalence path).
    """

    #: Sample-and-hold period, simulated seconds (0 = every tick fresh).
    staleness_period: float = 0.0
    #: Multiplicative Gaussian noise sigma on each counter (0 = exact).
    noise_sigma: float = 0.0
    #: Probability each fresh sample is lost (0 = lossless).
    dropout_prob: float = 0.0
    #: Base seed for the noise/dropout random streams.
    seed: int = 0

    def __post_init__(self) -> None:
        if self.staleness_period < 0:
            raise ConfigurationError("staleness_period must be >= 0")
        if self.noise_sigma < 0:
            raise ConfigurationError("noise_sigma must be >= 0")
        if not 0.0 <= self.dropout_prob < 1.0:
            raise ConfigurationError("dropout_prob must be in [0, 1)")

    @property
    def degraded(self) -> bool:
        """True when any degradation is enabled."""
        return (
            self.staleness_period > 0
            or self.noise_sigma > 0
            or self.dropout_prob > 0
        )


def build_sensor_suite(
    node: "Node", config: SensorConfig | None = None
) -> SensorSuite:
    """Assemble the sensor stack a policy's control loop reads through.

    Decorator order (inside out): perfect read → noise (baked in at read
    time) → staleness (held samples keep their noise) → dropout (losing the
    freshest publish). ``config=None`` or an all-zero config returns plain
    :class:`PerfectSensors`.
    """
    suite: SensorSuite = PerfectSensors(node)
    if config is None or not config.degraded:
        return suite
    if config.noise_sigma > 0:
        suite = NoisySensors(
            suite,
            config.noise_sigma,
            np.random.default_rng(
                np.random.SeedSequence((config.seed, _STREAM_NOISE))
            ),
        )
    if config.staleness_period > 0:
        suite = StaleSensors(
            suite, config.staleness_period, _SimClock(node)
        )
    if config.dropout_prob > 0:
        suite = DropoutSensors(
            suite,
            config.dropout_prob,
            np.random.default_rng(
                np.random.SeedSequence((config.seed, _STREAM_DROPOUT))
            ),
        )
    return suite
