"""Time-integrated hardware telemetry.

The contention state is piecewise constant between solves; the accumulator
integrates each signal over time so that the simulated perf-counter interface
(:mod:`repro.hostif.perf`) can expose *windowed averages* exactly the way a
runtime samples real counters: read, wait, read again, divide by elapsed.

Integration happens on read. A state change only logs the segment that
ends (the values in force and its width); every read first sums the log
into the integrals, segment by segment in time order, so each integral is
the same chain of ``I += v * dt`` additions an eager per-segment loop
would build, bit for bit, wherever the flushes fall. Runs that never read
a counter pay one list append per segment, and the log sums itself once
it holds :data:`LOG_LIMIT` segments, so its memory stays bounded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.hw.contention import SolveResult

#: Rounding slack granted to one windowed average, relative to the scale of
#: the signal and its integral (see :meth:`TelemetryAccumulator.error_bounds`).
ROUNDING_SLACK = 2.0**-48
#: Most segments the log holds before it sums itself into the integrals.
LOG_LIMIT = 4096


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
        #: The controllers and sockets of the state in force, and its signal
        #: values: delivered GB/s, latency factor and saturation per
        #: controller, then the throttle per socket. The solver cache interns
        #: results, so the same few state objects recur; the pair is
        #: memoized per object (the memo pins the state to keep ids valid),
        #: and a layout equal to the one in force is that same tuple.
        self._layout: tuple[tuple[int, ...], tuple[int, ...]] = ((), ())
        self._values: tuple[float, ...] = ()
        self._rows_memo: dict[int, tuple] = {}
        #: Segments closed since the integrals were last summed, in time
        #: order, as ``values, width`` pairs laid flat, all of the one
        #: layout ``_layout``. :meth:`_flush` folds them into the snapshot.
        self._log: list = []
        #: How many distinct solve states have been installed. Together with
        #: ``Machine.solver_stats`` this shows how much work the signature
        #: short-circuit is avoiding: skipped re-solves never land here.
        self.state_changes = 0
        #: When the state in force was installed: any window starting at or
        #: after this instant integrates that one state only.
        self.state_since = 0.0
        #: While set, called before any segment closes (every
        #: :meth:`set_state` and :meth:`advance`), whatever its cause; a
        #: parked fleet member hooks its replay here (and unhooks it
        #: there), so no read or state change can see integrals that skip
        #: its elided reads.
        self.on_advance: Callable[[], None] | None = None

    def __getstate__(self) -> dict:
        """Pickle with the log folded in and without ``_rows_memo``: its
        ``id()`` keys would name other objects once unpickled, and they
        differ from run to run, which would make checkpoint bytes
        unrepeatable."""
        self._flush()
        state = self.__dict__.copy()
        state["_rows_memo"] = {}
        return state

    @property
    def snapshot(self) -> TelemetrySnapshot:
        """The current integral values (advance first via :meth:`advance`)."""
        self._flush()
        return self._snapshot

    def set_state(self, state: SolveResult, now: float) -> None:
        """Switch to a new constant state, closing the previous one's segment."""
        self._close(now)
        self._state = state
        self.state_since = now
        memo = self._rows_memo.get(id(state))
        if memo is not None and memo[0] is state:
            layout = memo[1]
            values = memo[2]
        else:
            loads = state.mc_loads.values()
            pressures = state.socket_pressures
            layout = (tuple(state.mc_loads), tuple(pressures))
            if layout == self._layout:
                layout = self._layout
            values = (
                *[load.delivered_gbps for load in loads],
                *[load.latency_factor for load in loads],
                *[load.saturation for load in loads],
                *[pressure.core_throttle for pressure in pressures.values()],
            )
            if len(self._rows_memo) >= 128:
                self._rows_memo.clear()
            self._rows_memo[id(state)] = (state, layout, values)
            # Seed the integrals, so new keys enter the snapshot's dicts in
            # the order states first name them, whether or not a segment
            # of the state is ever summed.
            snap = self._snapshot
            for mc_id in layout[0]:
                snap.mc_bytes.setdefault(mc_id, 0.0)
                snap.mc_latency.setdefault(mc_id, 0.0)
                snap.mc_saturation.setdefault(mc_id, 0.0)
            for socket_id in layout[1]:
                snap.socket_throttle.setdefault(socket_id, 0.0)
        if layout is not self._layout:
            # The log holds one layout: sum it before the columns move.
            self._flush()
            self._layout = layout
        self._values = values
        self.state_changes += 1

    def advance(self, now: float) -> None:
        """Integrate the current state up to ``now``."""
        self._close(now)
        self._flush()

    def _close(self, now: float) -> None:
        """Log the state in force as a segment up to ``now``.

        Time that did not move (or moved backwards, which integrates as
        zero width) logs nothing.
        """
        if self.on_advance is not None:
            self.on_advance()
        width = now - self._last_time
        if width <= 0:
            return
        if self._state is not None:
            log = self._log
            log += (self._values, width)
            if len(log) >= 2 * LOG_LIMIT:
                self._flush()
        self._last_time = now
        self._snapshot.time = now

    def _flush(self) -> None:
        """Fold the logged segments into the integrals.

        ``np.add.accumulate`` down the rows ``[integrals; values_i *
        width_i]`` adds each segment in time order, one IEEE addition at a
        time: the very sums ``I += v * dt`` per segment, as they happened,
        would have produced. (A pairwise sum, ``np.sum`` or ``math.fsum``
        would round differently.)
        """
        log = self._log
        if not log:
            return
        mc_ids, socket_ids = self._layout
        snap = self._snapshot
        columns = (
            (snap.mc_bytes, mc_ids),
            (snap.mc_latency, mc_ids),
            (snap.mc_saturation, mc_ids),
            (snap.socket_throttle, socket_ids),
        )
        start = [integrals[key] for integrals, keys in columns for key in keys]
        rows = np.empty((len(log) // 2 + 1, len(start)))
        rows[0] = start
        np.multiply(log[0::2], np.array(log[1::2])[:, None], out=rows[1:])
        totals = iter(np.add.accumulate(rows, axis=0)[-1].tolist())
        for integrals, keys in columns:
            for key in keys:
                integrals[key] = next(totals)
        self._log = []

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
        self._flush()
        layout = self._layout[0]
        values = self._values
        count = len(layout)
        rows = {
            mc_id: values[index : 3 * count : count]
            for index, mc_id in enumerate(layout)
        }
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
        """Averages between a snapshot copied earlier from this accumulator
        (or an empty one) and ``now``.

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
            # ``previous`` is a copy this accumulator made earlier, or an
            # empty snapshot, and integral dicts only grow, so every key of
            # ``prev`` is in ``cur`` and one pass over ``cur`` covers them.
            if elapsed > 0:
                prev_get = prev.get
                return {
                    key: (value - prev_get(key, 0.0)) / elapsed
                    for key, value in cur.items()
                }
            return {key: default for key in cur}

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
        self._flush()
        snap = self._snapshot
        return TelemetrySnapshot(
            time=snap.time,
            mc_bytes=dict(snap.mc_bytes),
            mc_latency=dict(snap.mc_latency),
            mc_saturation=dict(snap.mc_saturation),
            socket_throttle=dict(snap.socket_throttle),
        )
