"""Sensor-suite layer: perfect reads and composable degradations."""

from __future__ import annotations

import numpy as np
import pytest

from repro.node import Node
from repro.control.sensors import (
    DropoutSensors,
    NoisySensors,
    PerfectSensors,
    SensorConfig,
    StaleSensors,
    build_sensor_suite,
)
from repro.core.measurements import KelpMeasurements
from repro.errors import ConfigurationError


class StubSensors:
    """A scripted inner suite: returns successive canned samples."""

    def __init__(self, samples: list[KelpMeasurements]) -> None:
        self._samples = samples
        self.reads = 0

    def sample(self) -> KelpMeasurements:
        sample = self._samples[min(self.reads, len(self._samples) - 1)]
        self.reads += 1
        return sample


def _m(bw: float) -> KelpMeasurements:
    return KelpMeasurements(
        socket_bw=bw, socket_latency=1.2, saturation=0.1, hipri_bw=bw / 2,
        elapsed=1.0,
    )


class TestPerfectSensors:
    def test_matches_direct_measure_node(self, node: Node) -> None:
        suite = PerfectSensors(node, reader="t1")
        node.sim.run_until(1.0)
        direct = KelpMeasurements(
            *node.perf.read_kelp("t2", node.accel_socket, node.hi_subdomain)
        )
        via_suite = suite.sample()
        assert via_suite == direct


class TestStaleSensors:
    def test_holds_sample_for_period(self) -> None:
        clock = {"now": 0.0}
        stub = StubSensors([_m(10.0), _m(20.0), _m(30.0)])
        suite = StaleSensors(stub, period=2.0, now_fn=lambda: clock["now"])
        assert suite.sample().socket_bw == 10.0
        clock["now"] = 1.0  # inside the hold window: same sample, no read
        assert suite.sample().socket_bw == 10.0
        assert stub.reads == 1
        clock["now"] = 2.0  # hold elapsed: refresh
        assert suite.sample().socket_bw == 20.0
        assert stub.reads == 2

    def test_rejects_nonpositive_period(self) -> None:
        with pytest.raises(ConfigurationError):
            StaleSensors(StubSensors([_m(1.0)]), period=0.0, now_fn=lambda: 0.0)


class TestNoisySensors:
    def test_noise_is_deterministic_and_clamped(self) -> None:
        def build() -> KelpMeasurements:
            stub = StubSensors([_m(10.0)])
            rng = np.random.default_rng(np.random.SeedSequence(7))
            return NoisySensors(stub, sigma=0.5, rng=rng).sample()

        a, b = build(), build()
        assert a == b  # same seed, same noise
        assert a.socket_bw != 10.0  # noise actually applied
        assert 0.0 <= a.saturation <= 1.0
        assert a.socket_latency >= 0.0
        assert a.elapsed == 1.0  # the window length is not a counter

    def test_zero_sigma_is_identity(self) -> None:
        stub = StubSensors([_m(10.0)])
        rng = np.random.default_rng(0)
        assert NoisySensors(stub, sigma=0.0, rng=rng).sample() == _m(10.0)


class TestDropoutSensors:
    def test_first_sample_never_dropped(self) -> None:
        stub = StubSensors([_m(10.0), _m(20.0)])
        rng = np.random.default_rng(0)
        suite = DropoutSensors(stub, probability=0.9, rng=rng)
        assert suite.sample().socket_bw == 10.0
        assert suite.dropped == 0

    def test_dropped_samples_deliver_last_good(self) -> None:
        stub = StubSensors([_m(float(i)) for i in range(1, 40)])
        rng = np.random.default_rng(3)
        suite = DropoutSensors(stub, probability=0.5, rng=rng)
        values = [suite.sample().socket_bw for _ in range(30)]
        assert suite.dropped > 0
        # A dropped read repeats the previous delivery.
        repeats = sum(1 for a, b in zip(values, values[1:]) if a == b)
        assert repeats == suite.dropped
        # The fresh reads still advance in order.
        assert values == sorted(values)


class TestBuildSensorSuite:
    def test_none_and_zero_config_build_perfect(self, node: Node) -> None:
        assert isinstance(build_sensor_suite(node, "a", None), PerfectSensors)
        assert isinstance(
            build_sensor_suite(node, "b", SensorConfig()), PerfectSensors
        )

    def test_full_stack_order(self, node: Node) -> None:
        config = SensorConfig(
            staleness_period=2.0, noise_sigma=0.1, dropout_prob=0.1, seed=5
        )
        assert config.degraded
        suite = build_sensor_suite(node, "c", config)
        # Outside in: dropout(stale(noisy(perfect))).
        assert isinstance(suite, DropoutSensors)
        assert isinstance(suite._inner, StaleSensors)
        assert isinstance(suite._inner._inner, NoisySensors)
        assert isinstance(suite._inner._inner._inner, PerfectSensors)

    def test_config_validation(self) -> None:
        with pytest.raises(ConfigurationError):
            SensorConfig(staleness_period=-1.0)
        with pytest.raises(ConfigurationError):
            SensorConfig(noise_sigma=-0.1)
        with pytest.raises(ConfigurationError):
            SensorConfig(dropout_prob=1.0)
