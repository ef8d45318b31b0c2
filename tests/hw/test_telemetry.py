"""Tests for time-integrated telemetry."""

from __future__ import annotations

import pickle
import random
from types import SimpleNamespace

import pytest

from repro.hw.contention import TrafficSource
from repro.hw.machine import Machine
from repro.hw.telemetry import LOG_LIMIT, ROUNDING_SLACK, TelemetryAccumulator


def make_state(machine: Machine, demand: float):
    src = TrafficSource(
        source_id="s", task_id="s", demand_gbps=demand,
        mem_weights={0: 1.0}, cores=frozenset({0}), threads=1,
    )
    return machine.solver.solve([src])


class TestTelemetryAccumulator:
    def test_window_averages_constant_state(self, machine: Machine) -> None:
        acc = TelemetryAccumulator()
        acc.set_state(make_state(machine, 10.0), now=0.0)
        mark = acc.copy_snapshot()
        window = acc.window_since(mark, now=4.0)
        assert window.elapsed == pytest.approx(4.0)
        assert window.mc_bandwidth_gbps[0] == pytest.approx(13.0)  # pf inflation

    def test_window_averages_piecewise_state(self, machine: Machine) -> None:
        acc = TelemetryAccumulator()
        acc.set_state(make_state(machine, 10.0), now=0.0)
        acc.set_state(make_state(machine, 20.0), now=1.0)
        mark_zero = acc.copy_snapshot()  # at t=1
        window = acc.window_since(mark_zero, now=3.0)
        assert window.mc_bandwidth_gbps[0] == pytest.approx(26.0)

    def test_independent_readers(self, machine: Machine) -> None:
        acc = TelemetryAccumulator()
        acc.set_state(make_state(machine, 10.0), now=0.0)
        early = acc.copy_snapshot()
        acc.advance(2.0)
        late = acc.copy_snapshot()
        w_early = acc.window_since(early, now=4.0)
        w_late = acc.window_since(late, now=4.0)
        assert w_early.elapsed == pytest.approx(4.0)
        assert w_late.elapsed == pytest.approx(2.0)

    def test_helpers(self, machine: Machine) -> None:
        acc = TelemetryAccumulator()
        acc.set_state(make_state(machine, 50.0), now=0.0)
        mark = acc.copy_snapshot()
        window = acc.window_since(mark, now=1.0)
        assert window.bandwidth_of((0, 1)) >= window.bandwidth_of((0,))
        assert window.max_latency_factor((0, 1)) >= 1.0
        assert 0.0 <= window.max_saturation((0, 1)) <= 1.0

    def test_zero_width_window_reports_defaults(self, machine: Machine) -> None:
        """Regression: two reads at the same instant must not fabricate data.

        The old code floored the elapsed time at 1e-12, so the degenerate
        window divided the (zero) integral deltas by an epsilon and the
        documented defaults were unreachable. A zero-width window now
        reports elapsed 0.0 and the per-signal defaults.
        """
        acc = TelemetryAccumulator()
        acc.set_state(make_state(machine, 50.0), now=0.0)
        acc.advance(2.0)
        mark = acc.copy_snapshot()
        window = acc.window_since(mark, now=2.0)  # double read, same time
        assert window.elapsed == 0.0
        assert window.mc_bandwidth_gbps[0] == 0.0
        assert window.mc_latency_factor[0] == 1.0
        assert window.mc_saturation[0] == 0.0
        assert window.socket_throttle[0] == 1.0

    def test_window_after_degenerate_read_recovers(self, machine: Machine) -> None:
        """A zero-width read must not poison the next, real window."""
        acc = TelemetryAccumulator()
        acc.set_state(make_state(machine, 10.0), now=0.0)
        mark = acc.copy_snapshot()
        acc.window_since(mark, now=0.0)  # degenerate
        window = acc.window_since(mark, now=4.0)
        assert window.elapsed == pytest.approx(4.0)
        assert window.mc_bandwidth_gbps[0] == pytest.approx(13.0)

    def test_time_never_goes_backwards(self) -> None:
        acc = TelemetryAccumulator()
        acc.advance(5.0)
        acc.advance(3.0)  # clamped, no exception
        assert acc.snapshot.time == 5.0


def _random_state(rng: random.Random, mc_ids, socket_ids) -> SimpleNamespace:
    """A solve state (the fields the accumulator reads) with signals of
    magnitudes from 1e-9 to 1e6, and some exact zeros."""

    def signal() -> float:
        return 0.0 if rng.random() < 0.05 else 10.0 ** rng.uniform(-9.0, 6.0)

    return SimpleNamespace(
        mc_loads={
            m: SimpleNamespace(
                delivered_gbps=signal(), latency_factor=signal(), saturation=signal()
            )
            for m in mc_ids
        },
        socket_pressures={
            s: SimpleNamespace(core_throttle=signal()) for s in socket_ids
        },
    )


class _EagerTelemetry:
    """The reference: integrate every segment as it closes, ``I += v * dt``
    per signal in time order, and read the integrals as they stand."""

    def __init__(self) -> None:
        self.time = 0.0
        self.state = None
        self.integrals: tuple[dict, dict, dict, dict] = ({}, {}, {}, {})

    def set_state(self, state, now: float) -> None:
        self.advance(now)
        self.state = state
        mc_bytes, mc_latency, mc_saturation, throttle = self.integrals
        for m in state.mc_loads:
            mc_bytes.setdefault(m, 0.0)
            mc_latency.setdefault(m, 0.0)
            mc_saturation.setdefault(m, 0.0)
        for s in state.socket_pressures:
            throttle.setdefault(s, 0.0)

    def advance(self, now: float) -> None:
        dt = now - self.time
        if dt <= 0:
            return
        if self.state is not None:
            mc_bytes, mc_latency, mc_saturation, throttle = self.integrals
            for m, load in self.state.mc_loads.items():
                mc_bytes[m] += load.delivered_gbps * dt
                mc_latency[m] += load.latency_factor * dt
                mc_saturation[m] += load.saturation * dt
            for s, pressure in self.state.socket_pressures.items():
                throttle[s] += pressure.core_throttle * dt
        self.time = now

    def copy(self) -> tuple:
        return (self.time, *[list(d.items()) for d in self.integrals])

    def window(self, previous: tuple, now: float) -> tuple:
        self.advance(now)
        elapsed = max(self.time - previous[0], 0.0)
        averages = []
        for current, prev, default in zip(
            self.integrals, previous[1:], (0.0, 1.0, 0.0, 1.0)
        ):
            prev = dict(prev)
            averages.append(
                [
                    (key, (value - prev.get(key, 0.0)) / elapsed if elapsed > 0 else default)
                    for key, value in current.items()
                ]
            )
        return (elapsed, *averages)

    def error_bounds(self, mc_ids, window: float, until: float) -> tuple:
        span = max(until - self.time, 0.0)
        bounds = [0.0, 0.0, 0.0]
        for m in mc_ids:
            load = self.state.mc_loads[m]
            rates = (load.delivered_gbps, load.latency_factor, load.saturation)
            for kind, rate in enumerate(rates):
                if rate:
                    reach = abs(self.integrals[kind][m]) + abs(rate) * span
                    bounds[kind] += ROUNDING_SLACK * (abs(rate) + reach / window)
        return tuple(bounds)


def _copied(snapshot) -> tuple:
    return (
        snapshot.time,
        list(snapshot.mc_bytes.items()),
        list(snapshot.mc_latency.items()),
        list(snapshot.mc_saturation.items()),
        list(snapshot.socket_throttle.items()),
    )


def _window(window) -> tuple:
    return (
        window.elapsed,
        list(window.mc_bandwidth_gbps.items()),
        list(window.mc_latency_factor.items()),
        list(window.mc_saturation.items()),
        list(window.socket_throttle.items()),
    )


class TestIntegrationOnRead:
    """The logged, summed-on-read integrals against the eager reference:
    every integral and every window average equal with ``==``."""

    @pytest.mark.parametrize("seed,segments", [(0, 2000), (1, 2500), (2, 9000)])
    def test_matches_eager_integration(self, seed: int, segments: int) -> None:
        rng = random.Random(seed)
        # Recurring states (as the solver's interning produces), a second
        # controller layout, and a few one-off states.
        layouts = [((0, 1, 2, 3), (0, 1)), ((0, 1), (0,)), ((0, 1, 2, 3, 4), (0, 1))]
        pool = [_random_state(rng, *layouts[0]) for _ in range(8)]
        pool += [_random_state(rng, *layout) for layout in layouts[1:]]
        # Seed 2 reads rarely, so the log sums itself at its bound.
        read_odds = 0.002 if segments > 2 * LOG_LIMIT else 0.2
        acc, ref = TelemetryAccumulator(), _EagerTelemetry()
        marks: list[tuple] = []
        now = 0.0
        for step in range(segments):
            if step == segments // 2:
                acc = pickle.loads(pickle.dumps(acc))
            roll = rng.random()
            if roll < 0.05:
                pass  # zero width
            elif roll < 0.08:
                now -= 10.0 ** rng.uniform(-9.0, 1.0)  # backwards
            else:
                now += 10.0 ** rng.uniform(-9.0, 3.0)
            if rng.random() < 0.03:
                state = _random_state(rng, *rng.choice(layouts))
            else:
                state = rng.choice(pool)
            acc.set_state(state, now)
            ref.set_state(state, now)
            if rng.random() >= read_odds:
                continue
            read = rng.randrange(4)
            if read == 0:
                marks.append((acc.copy_snapshot(), ref.copy()))
                assert _copied(marks[-1][0]) == marks[-1][1]
            elif read == 1 and marks:
                mark, ref_mark = rng.choice(marks)
                read_at = now + rng.choice((0.0, -1e-3, 10.0 ** rng.uniform(-9.0, 2.0)))
                assert _window(acc.window_since(mark, read_at)) == ref.window(
                    ref_mark, read_at
                )
            elif read == 2:
                read_at = now + rng.choice((0.0, 10.0 ** rng.uniform(-9.0, 2.0)))
                acc.advance(read_at)
                ref.advance(read_at)
                assert _copied(acc.snapshot) == ref.copy()
            else:
                mc_ids = tuple(rng.sample(list(state.mc_loads), 2))
                window = 10.0 ** rng.uniform(-3.0, 1.0)
                until = now + 10.0 ** rng.uniform(-3.0, 3.0)
                assert acc.error_bounds(mc_ids, window, until) == ref.error_bounds(
                    mc_ids, window, until
                )
        assert _copied(acc.snapshot) == ref.copy()

    def test_log_never_exceeds_its_bound(self, machine: Machine) -> None:
        acc, ref = TelemetryAccumulator(), _EagerTelemetry()
        states = [make_state(machine, demand) for demand in (5.0, 10.0, 20.0)]
        most = 0
        for step in range(3 * LOG_LIMIT):
            state = states[step % 3]
            now = 0.25 * (step + 1)
            acc.set_state(state, now)
            ref.set_state(state, now)
            most = max(most, len(acc._log) // 2)
        assert most == LOG_LIMIT - 1
        assert _copied(acc.snapshot) == ref.copy()

    def test_pickle_folds_the_log_in(self, machine: Machine) -> None:
        acc = TelemetryAccumulator()
        acc.set_state(make_state(machine, 10.0), now=0.0)
        acc.set_state(make_state(machine, 20.0), now=1.0)
        acc.set_state(make_state(machine, 5.0), now=3.0)
        assert acc._log  # two segments wait to be summed
        data = pickle.dumps(acc)
        assert not acc._log and pickle.dumps(acc) == data
        copy = pickle.loads(data)
        assert _copied(copy.snapshot) == _copied(acc.snapshot)
