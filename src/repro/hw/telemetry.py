"""Time-integrated hardware telemetry.

The contention state is piecewise constant between solves; the accumulator
integrates each signal over time so that the simulated perf-counter interface
(:mod:`repro.hostif.perf`) can expose *windowed averages* exactly the way a
runtime samples real counters: read, wait, read again, divide by elapsed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.hw.contention import SolveResult

#: Rounding slack granted to one windowed average, relative to the scale of
#: the signal and its integral (see :meth:`TelemetryAccumulator.error_bounds`).
ROUNDING_SLACK = 2.0**-48


@dataclass
class TelemetrySnapshot:
    """Raw integral values at one instant (monotonically non-decreasing)."""

    time: float = 0.0
    #: Integral of delivered GB/s per controller (i.e. gigabytes moved).
    mc_bytes: dict[int, float] = field(default_factory=dict)
    #: Integral of the latency factor per controller (factor-seconds).
    mc_latency: dict[int, float] = field(default_factory=dict)
    #: Integral of saturation per controller (distress-seconds).
    mc_saturation: dict[int, float] = field(default_factory=dict)
    #: Integral of the distress throttle per socket (factor-seconds).
    socket_throttle: dict[int, float] = field(default_factory=dict)


@dataclass(frozen=True)
class TelemetryWindow:
    """Averages over the interval between two snapshots."""

    elapsed: float
    mc_bandwidth_gbps: dict[int, float]
    mc_latency_factor: dict[int, float]
    mc_saturation: dict[int, float]
    socket_throttle: dict[int, float]

    def bandwidth_of(self, subdomains: tuple[int, ...] | list[int]) -> float:
        """Summed average bandwidth over a set of controllers, GB/s."""
        return sum(self.mc_bandwidth_gbps.get(m, 0.0) for m in subdomains)

    def max_latency_factor(self, subdomains: tuple[int, ...] | list[int]) -> float:
        """Worst average latency factor over a set of controllers."""
        return max(
            (self.mc_latency_factor.get(m, 1.0) for m in subdomains), default=1.0
        )

    def max_saturation(self, subdomains: tuple[int, ...] | list[int]) -> float:
        """Worst average saturation over a set of controllers."""
        return max((self.mc_saturation.get(m, 0.0) for m in subdomains), default=0.0)


class TelemetryAccumulator:
    """Integrates solve-state signals over simulated time."""

    def __init__(self) -> None:
        self._snapshot = TelemetrySnapshot()
        self._last_time = 0.0
        self._state: SolveResult | None = None
        #: Flattened per-state signal rows so the hot :meth:`advance` loop
        #: avoids attribute walks per segment. The solver cache interns
        #: results, so the same few state objects recur; rows are memoized
        #: per object (the memo pins the state to keep ids valid). Integration
        #: stays eager and chronological on purpose: grouping spans per state
        #: would regroup floating-point sums and break the bit-equivalence
        #: between cache-on (interned states) and cache-off (fresh objects).
        self._mc_rows: list[tuple[int, float, float, float]] = []
        self._socket_rows: list[tuple[int, float]] = []
        self._rows_memo: dict[int, tuple] = {}
        #: How many distinct solve states have been installed. Together with
        #: ``Machine.solver_stats`` this shows how much work the signature
        #: short-circuit is avoiding: skipped re-solves never land here.
        self.state_changes = 0
        #: When the state in force was installed: any window starting at or
        #: after this instant integrates that one state only.
        self.state_since = 0.0
        #: While set, called at the start of every :meth:`advance`, whatever
        #: its cause; a parked fleet member hooks its replay here (and
        #: unhooks it there), so no read or state change can see integrals
        #: that skip its elided reads.
        self.on_advance: Callable[[], None] | None = None

    def __getstate__(self) -> dict:
        """Pickle without ``_rows_memo``: its ``id()`` keys would name other
        objects once unpickled, and they differ from run to run, which would
        make checkpoint bytes unrepeatable."""
        state = self.__dict__.copy()
        state["_rows_memo"] = {}
        return state

    @property
    def snapshot(self) -> TelemetrySnapshot:
        """The current integral values (advance first via :meth:`advance`)."""
        return self._snapshot

    def set_state(self, state: SolveResult, now: float) -> None:
        """Switch to a new constant state, integrating the previous one."""
        self.advance(now)
        self._state = state
        self.state_since = now
        memo = self._rows_memo.get(id(state))
        if memo is not None and memo[0] is state:
            self._mc_rows = memo[1]
            self._socket_rows = memo[2]
        else:
            self._mc_rows = [
                (mc_id, load.delivered_gbps, load.latency_factor, load.saturation)
                for mc_id, load in state.mc_loads.items()
            ]
            self._socket_rows = [
                (socket_id, pressure.core_throttle)
                for socket_id, pressure in state.socket_pressures.items()
            ]
            if len(self._rows_memo) >= 128:
                self._rows_memo.clear()
            self._rows_memo[id(state)] = (state, self._mc_rows, self._socket_rows)
            # Seed the integral dicts so :meth:`advance` can use plain
            # ``d[k] += x`` (no per-row ``dict.get`` bound-method call).
            # ``0.0 + value * dt`` is the exact expression the missing-key
            # path computed, so the integrals are bit-identical.
            snap = self._snapshot
            for mc_id, _, _, _ in self._mc_rows:
                snap.mc_bytes.setdefault(mc_id, 0.0)
                snap.mc_latency.setdefault(mc_id, 0.0)
                snap.mc_saturation.setdefault(mc_id, 0.0)
            for socket_id, _ in self._socket_rows:
                snap.socket_throttle.setdefault(socket_id, 0.0)
        self.state_changes += 1

    def advance(self, now: float) -> None:
        """Integrate the current state up to ``now``."""
        if self.on_advance is not None:
            self.on_advance()
        dt = now - self._last_time
        if dt <= 0:
            # Time did not move (or moved backwards, which integrates as
            # zero width): the integrals are already up to date.
            return
        if self._state is not None:
            snap = self._snapshot
            mc_bytes = snap.mc_bytes
            mc_latency = snap.mc_latency
            mc_saturation = snap.mc_saturation
            socket_throttle = snap.socket_throttle
            for mc_id, delivered, latency, saturation in self._mc_rows:
                mc_bytes[mc_id] += delivered * dt
                mc_latency[mc_id] += latency * dt
                mc_saturation[mc_id] += saturation * dt
            for socket_id, throttle in self._socket_rows:
                socket_throttle[socket_id] += throttle * dt
        self._last_time = now
        self._snapshot.time = now

    def error_bounds(
        self, mc_ids: tuple[int, ...], window: float, until: float
    ) -> tuple[float, float, float]:
        """Rounding bounds on windowed averages of the current state.

        Returns bounds for ``(bandwidth, latency, saturation)`` averages
        over the controllers ``mc_ids``, summed or maxed across them, read
        no later than ``until`` over windows at least ``window`` seconds
        long with at most two integration steps each. A window average is
        ``(I1 - I0) / (t1 - t0)``, where each integral ``I`` was built by
        ``I += v * dt`` steps. For one controller it differs from ``v`` by
        at most ``2u * M / window + 5u * |v|``, where ``u = 2**-53`` is the
        unit roundoff and ``M`` bounds the integral's magnitude; a sum over
        ``k <= 8`` controllers adds at most ``k * u`` per unit of value. A
        signal that is exactly zero integrates exactly and has no error.
        Each bound is ``2**-48 * (|v| + M / window)`` summed over the
        nonzero signals: at least twice what the analysis needs.
        """
        rows = {mc_id: row for mc_id, *row in self._mc_rows}
        snap = self._snapshot
        span = max(until - self._last_time, 0.0)
        bounds = [0.0, 0.0, 0.0]
        for mc_id in mc_ids:
            integrals = (snap.mc_bytes, snap.mc_latency, snap.mc_saturation)
            for kind, rate in enumerate(rows[mc_id]):
                if rate:
                    reach = abs(integrals[kind][mc_id]) + abs(rate) * span
                    bounds[kind] += ROUNDING_SLACK * (abs(rate) + reach / window)
        return bounds[0], bounds[1], bounds[2]

    def window_since(self, previous: TelemetrySnapshot, now: float) -> TelemetryWindow:
        """Averages between a previously-copied snapshot and ``now``.

        A degenerate (zero-width) window — two reads at the same simulated
        instant — has no information in it; it reports the documented
        defaults (bandwidth 0.0, latency factor 1.0, saturation 0.0,
        throttle 1.0) rather than a garbage ``delta / epsilon`` ratio.
        """
        self.advance(now)
        current = self._snapshot
        elapsed = max(current.time - previous.time, 0.0)

        def averages(
            cur: dict[int, float], prev: dict[int, float], default: float
        ) -> dict[int, float]:
            # Integral dicts only grow, so a snapshot copied earlier from
            # this accumulator satisfies ``prev.keys() <= cur.keys()`` and
            # one pass over ``cur`` suffices (``value - prev.get(...)`` is
            # the exact delta expression of the general path, so results
            # are bit-identical). Snapshots from elsewhere fall back to the
            # key-union walk.
            if prev.keys() <= cur.keys():
                prev_get = prev.get
                if elapsed > 0:
                    return {
                        key: (value - prev_get(key, 0.0)) / elapsed
                        for key, value in cur.items()
                    }
                return {key: default for key in cur}
            keys = set(cur) | set(prev)
            out = {}
            for key in keys:
                delta = cur.get(key, 0.0) - prev.get(key, 0.0)
                out[key] = delta / elapsed if elapsed > 0 else default
            return out

        return TelemetryWindow(
            elapsed=elapsed,
            mc_bandwidth_gbps=averages(current.mc_bytes, previous.mc_bytes, 0.0),
            mc_latency_factor=averages(current.mc_latency, previous.mc_latency, 1.0),
            mc_saturation=averages(
                current.mc_saturation, previous.mc_saturation, 0.0
            ),
            socket_throttle=averages(
                current.socket_throttle, previous.socket_throttle, 1.0
            ),
        )

    def copy_snapshot(self) -> TelemetrySnapshot:
        """A deep copy of the current integrals, for later windowed reads."""
        snap = self._snapshot
        return TelemetrySnapshot(
            time=snap.time,
            mc_bytes=dict(snap.mc_bytes),
            mc_latency=dict(snap.mc_latency),
            mc_saturation=dict(snap.mc_saturation),
            socket_throttle=dict(snap.socket_throttle),
        )
