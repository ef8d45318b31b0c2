"""Simulated perf-counter interface.

Kelp makes four measurements every control interval (Section IV-D):

* **socket memory bandwidth** — IMC CAS counters, summed per socket;
* **memory latency** — a loaded-latency proxy (occupancy/inserts ratio);
* **memory saturation** — the ``FAST_ASSERTED`` uncore event divided by
  elapsed cycles (fraction of time the distress signal was asserted);
* **high-priority subdomain bandwidth** — CAS counters of that subdomain's
  channel group only.

Counters are windowed: each named reader keeps its own last-read snapshot, so
multiple consumers (the policy loop, experiment recorders) can sample at
different frequencies without disturbing one another.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.machine import Machine
from repro.hw.telemetry import TelemetrySnapshot


@dataclass(frozen=True)
class PerfReading:
    """One windowed sample of the Kelp measurement set."""

    #: Window length, simulated seconds.
    elapsed: float
    #: Average bandwidth per socket, GB/s.
    socket_bandwidth_gbps: dict[int, float]
    #: Worst average loaded-latency factor per socket (>= 1 unloaded).
    socket_latency_factor: dict[int, float]
    #: Worst average FAST_ASSERTED fraction per socket, [0, 1].
    socket_saturation: dict[int, float]
    #: Average bandwidth per subdomain, GB/s.
    subdomain_bandwidth_gbps: dict[int, float]
    #: Average distress core-throttle factor per socket (diagnostics).
    socket_throttle: dict[int, float]


class PerfCounters:
    """Windowed reads over the machine's telemetry integrals."""

    def __init__(self, machine: Machine) -> None:
        self._machine = machine
        self._marks: dict[str, TelemetrySnapshot] = {}
        # Topology is immutable; freeze the per-socket subdomain tuples once
        # instead of re-deriving them on every windowed read.
        topo = machine.topology
        self._socket_subdomains: tuple[tuple[int, tuple[int, ...]], ...] = tuple(
            (socket_id, topo.subdomains_of_socket(socket_id))
            for socket_id in range(topo.num_sockets)
        )

    def read(self, reader: str = "default") -> PerfReading:
        """Sample all Kelp counters since this reader's previous call.

        The first call for a reader covers the window since t=0.
        """
        telemetry = self._machine.telemetry
        now = self._machine.sim.now
        previous = self._marks.get(reader)
        if previous is None:
            previous = TelemetrySnapshot()
        window = telemetry.window_since(previous, now)
        self._marks[reader] = telemetry.copy_snapshot()

        socket_bw: dict[int, float] = {}
        socket_lat: dict[int, float] = {}
        socket_sat: dict[int, float] = {}
        for socket_id, subdomains in self._socket_subdomains:
            socket_bw[socket_id] = window.bandwidth_of(subdomains)
            socket_lat[socket_id] = window.max_latency_factor(subdomains)
            socket_sat[socket_id] = window.max_saturation(subdomains)
        # The window's dicts are freshly built per read and never aliased, so
        # they can be handed to the (frozen) reading without a copy.
        return PerfReading(
            elapsed=window.elapsed,
            socket_bandwidth_gbps=socket_bw,
            socket_latency_factor=socket_lat,
            socket_saturation=socket_sat,
            subdomain_bandwidth_gbps=window.mc_bandwidth_gbps,
            socket_throttle=window.socket_throttle,
        )

    def read_kelp(
        self, reader: str, socket: int, hi_subdomain: int, now: float | None = None
    ) -> tuple[float, float, float, float, float]:
        """The four Kelp scalars (plus elapsed) since the reader's last call.

        Returns ``(socket_bw, socket_latency, saturation, hipri_bw,
        elapsed)`` for one socket — the exact fields
        :class:`~repro.control.sensors.PerfectSensors` and the fleet member
        sampler consume every control tick. Bit-identical to deriving them
        from :meth:`read` (same per-key delta/divide expressions, same
        summation and max order over the socket's subdomain tuple), but
        skips materializing the full per-socket/per-subdomain dicts — this
        is the hottest call in a day-long fleet replay. The reader's mark is
        a full snapshot, so mixing :meth:`read` and :meth:`read_kelp` on one
        reader name stays windowed correctly.

        ``now`` defaults to the simulated clock; a parked fleet member
        replaying a read it skipped passes that read's past instant.
        """
        telemetry = self._machine.telemetry
        if now is None:
            now = self._machine.sim.now
        telemetry.advance(now)
        current = telemetry.snapshot
        previous = self._marks.get(reader)
        self._marks[reader] = telemetry.copy_snapshot()
        subdomains = self._socket_subdomains[socket][1]
        if previous is None:
            prev_time = 0.0
            prev_bytes = prev_lat = prev_sat = _EMPTY
        else:
            prev_time = previous.time
            prev_bytes = previous.mc_bytes
            prev_lat = previous.mc_latency
            prev_sat = previous.mc_saturation
        elapsed = max(current.time - prev_time, 0.0)
        if elapsed <= 0:
            # Degenerate window: the documented defaults, as in window_since.
            return 0.0, 1.0, 0.0, 0.0, elapsed
        cur_bytes = current.mc_bytes
        cur_lat = current.mc_latency
        cur_sat = current.mc_saturation
        # Explicit loops, but the same accumulation order as the dict-built
        # path: ``sum()`` over the subdomain tuple starting from int 0, and
        # ``max()`` keeping the first maximal element.
        socket_bw = 0
        socket_latency = saturation = None
        for m in subdomains:
            socket_bw += (
                (cur_bytes[m] - prev_bytes.get(m, 0.0)) / elapsed
                if m in cur_bytes
                else 0.0
            )
            lat = (
                (cur_lat[m] - prev_lat.get(m, 0.0)) / elapsed
                if m in cur_lat
                else 1.0
            )
            if socket_latency is None or lat > socket_latency:
                socket_latency = lat
            sat = (
                (cur_sat[m] - prev_sat.get(m, 0.0)) / elapsed
                if m in cur_sat
                else 0.0
            )
            if saturation is None or sat > saturation:
                saturation = sat
        hipri_bw = (
            (cur_bytes[hi_subdomain] - prev_bytes.get(hi_subdomain, 0.0))
            / elapsed
            if hi_subdomain in cur_bytes
            else 0.0
        )
        return socket_bw, socket_latency, saturation, hipri_bw, elapsed

    def steady_kelp(
        self, socket: int, hi_subdomain: int, window: float, until: float
    ) -> tuple[tuple[float, ...], tuple[float, ...]] | None:
        """The four Kelp scalars of the solve state in force, with bounds.

        Returns ``(values, errors)``: ``values`` is ``(socket_bw,
        socket_latency, saturation, hipri_bw)`` computed from the state's
        per-controller signals, combined as :meth:`read_kelp` combines
        them, and ``errors`` bounds how far any :meth:`read_kelp` window
        read inside that state until ``until``, at least ``window`` long,
        can round away from each (see ``TelemetryAccumulator.error_bounds``).
        None when the state lacks one of the controllers.
        """
        telemetry = self._machine.telemetry
        loads = self._machine.state.mc_loads
        subdomains = self._socket_subdomains[socket][1]
        if hi_subdomain not in loads or any(m not in loads for m in subdomains):
            return None
        socket_bw = 0
        socket_latency = saturation = None
        for m in subdomains:
            load = loads[m]
            socket_bw += load.delivered_gbps
            if socket_latency is None or load.latency_factor > socket_latency:
                socket_latency = load.latency_factor
            if saturation is None or load.saturation > saturation:
                saturation = load.saturation
        hipri_bw = loads[hi_subdomain].delivered_gbps
        bw_error, latency_error, saturation_error = telemetry.error_bounds(
            subdomains, window, until
        )
        hipri_error = telemetry.error_bounds((hi_subdomain,), window, until)[0]
        return (
            (socket_bw, socket_latency, saturation, hipri_bw),
            (bw_error, latency_error, saturation_error, hipri_error),
        )

    def mark_time(self, reader: str) -> float:
        """When ``reader`` last read (0.0 before its first read)."""
        mark = self._marks.get(reader)
        return 0.0 if mark is None else mark.time

    def reset(self, reader: str = "default") -> None:
        """Forget a reader's mark; its next read starts a fresh window."""
        self._marks.pop(reader, None)


#: Shared empty previous-integral mapping for first reads (never mutated).
_EMPTY: dict[int, float] = {}
