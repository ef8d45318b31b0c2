"""Online anomaly detectors over the fleet's telemetry streams.

Detection consumes exactly what a production watchdog would: the per-node
telemetry exports (:class:`~repro.fleet.member.NodeSignals`, including the
frozen snapshots dead/blind nodes keep re-exporting), the counted
offered/good request counters, and the per-node actuation-journal failure
counts. Each control interval the incident engine freezes those into one
:class:`FleetView`; the :class:`DetectorBank` runs four detectors over the
view history:

* :class:`TelemetrySilence` — a node whose exported ``signals.time`` stops
  advancing (death and blackout both present exactly this way; telling
  them apart is the remediation layer's health probe, not the detector's
  job).
* :class:`AttainmentDrop` — the SLO-good completion rate falls away from
  the offered rate over a short sliding window (black holes, null-routes,
  lane-hogging intruders).
* :class:`ActuationDivergence` — a node's control plane keeps journaling
  *failed* knob writes (the governor decides, nothing lands).
* :class:`SaturationSpike` — a node's memory-system saturation jumps far
  above its own pre-incident baseline (interference arrival).

Every detector is episodic: it fires one :class:`Alarm` when its predicate
trips and re-arms only after the predicate clears, so a persistent fault
produces one alarm, not one per tick. All state is plain arithmetic over
the views — no RNG anywhere, which is what makes alarms bit-identical
across serial and ``--jobs N`` sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class NodeView:
    """One node's fleet-visible state at one control tick."""

    index: int
    #: Timestamp of the node's exported telemetry (stale = frozen export).
    signals_time: float
    saturation: float
    latency_factor: float
    socket_bw_gbps: float
    inflight: int
    queued: int
    batch_jobs: int
    hot: bool
    #: Cumulative failed knob writes in the node's actuation journal.
    journal_failed: int
    #: Cumulative journal length (failed + deferred + ok).
    journal_total: int


@dataclass(frozen=True)
class FleetView:
    """Everything the detectors may see at one control tick."""

    time: float
    interval: float
    #: Cumulative counted request counters (admission-epoch accounting).
    offered: int
    completed: int
    good: int
    nodes: tuple[NodeView, ...]

    @property
    def total_load(self) -> int:
        """Fleet-wide in-flight + queued requests (from telemetry exports)."""
        return sum(n.inflight + n.queued for n in self.nodes)


@dataclass(frozen=True)
class Alarm:
    """One detector firing."""

    time: float
    detector: str
    #: Node the detector implicates (None for fleet-scope detectors).
    node: int | None = None
    #: JSON-clean evidence fields.
    detail: tuple[tuple[str, float | int | str], ...] = ()

    def as_dict(self) -> dict:
        data: dict = {"time": round(self.time, 6), "detector": self.detector}
        if self.node is not None:
            data["node"] = self.node
        if self.detail:
            data["detail"] = {k: v for k, v in self.detail}
        return data


# Detector thresholds: plain deterministic constants, no RNG.

#: Consecutive stale telemetry exports before silence fires.
SILENCE_TICKS = 2
#: Sliding window (ticks) for the attainment-rate comparison.
ATTAINMENT_WINDOW = 3
#: Fire when windowed good/offered falls below this...
ATTAINMENT_FLOOR = 0.8
#: ...and re-arm only after it recovers above this (hysteresis).
ATTAINMENT_CLEAR = 0.9
#: Minimum windowed offered count before the ratio is trusted.
ATTAINMENT_MIN_OFFERED = 8
#: New failed journal writes over the divergence window before firing.
DIVERGENCE_FAILURES = 3
DIVERGENCE_WINDOW = 2
#: Saturation rise above the node's own baseline before firing.
SATURATION_JUMP = 0.3
#: EWMA weight for the saturation baseline (updated while quiet).
SATURATION_ALPHA = 0.2
#: Views the bank keeps (localization looks a few ticks back).
HISTORY_LIMIT = 64


class TelemetrySilence:
    """Per-node staleness watchdog over exported ``signals.time``."""

    name = "telemetry-silence"

    def __init__(self) -> None:
        self._streak: dict[int, int] = {}
        self._fired: set[int] = set()

    def observe(self, view: FleetView) -> list[Alarm]:
        alarms: list[Alarm] = []
        for node in view.nodes:
            # A live export carries this tick's timestamp; anything older
            # than half an interval is a frozen snapshot.
            stale = view.time - node.signals_time > 0.5 * view.interval
            if not stale:
                self._streak[node.index] = 0
                self._fired.discard(node.index)
                continue
            streak = self._streak.get(node.index, 0) + 1
            self._streak[node.index] = streak
            if (
                streak >= SILENCE_TICKS
                and node.index not in self._fired
            ):
                self._fired.add(node.index)
                alarms.append(
                    Alarm(
                        time=view.time,
                        detector=self.name,
                        node=node.index,
                        detail=(
                            ("stale_ticks", streak),
                            ("last_export_s", round(node.signals_time, 6)),
                        ),
                    )
                )
        return alarms


class AttainmentDrop:
    """Windowed SLO-good rate vs offered rate, with hysteresis."""

    name = "attainment-drop"

    def __init__(self) -> None:
        self._in_episode = False

    def observe(self, view: FleetView, history: list[FleetView]) -> list[Alarm]:
        if len(history) <= ATTAINMENT_WINDOW:
            return []
        base = history[-1 - ATTAINMENT_WINDOW]
        d_offered = view.offered - base.offered
        d_good = view.good - base.good
        if d_offered < ATTAINMENT_MIN_OFFERED:
            return []
        ratio = d_good / d_offered
        if self._in_episode:
            if ratio >= ATTAINMENT_CLEAR:
                self._in_episode = False
            return []
        if ratio < ATTAINMENT_FLOOR:
            self._in_episode = True
            return [
                Alarm(
                    time=view.time,
                    detector=self.name,
                    detail=(
                        ("window_offered", d_offered),
                        ("window_good", d_good),
                        ("ratio", round(ratio, 6)),
                    ),
                )
            ]
        return []


class ActuationDivergence:
    """Per-node failed-knob-write watchdog over the actuation journal."""

    name = "actuation-divergence"

    def __init__(self) -> None:
        self._failed: dict[int, list[int]] = {}
        self._fired: set[int] = set()

    def observe(self, view: FleetView) -> list[Alarm]:
        alarms: list[Alarm] = []
        for node in view.nodes:
            series = self._failed.setdefault(node.index, [])
            series.append(node.journal_failed)
            if len(series) > DIVERGENCE_WINDOW + 1:
                del series[: len(series) - DIVERGENCE_WINDOW - 1]
            delta = series[-1] - series[0]
            if delta <= 0:
                self._fired.discard(node.index)
                continue
            if (
                delta >= DIVERGENCE_FAILURES
                and node.index not in self._fired
            ):
                self._fired.add(node.index)
                alarms.append(
                    Alarm(
                        time=view.time,
                        detector=self.name,
                        node=node.index,
                        detail=(
                            ("failed_writes", delta),
                            ("journal_failed_total", node.journal_failed),
                        ),
                    )
                )
        return alarms


class SaturationSpike:
    """Per-node saturation vs its own quiet-time EWMA baseline."""

    name = "saturation-spike"

    def __init__(self) -> None:
        self._baseline: dict[int, float] = {}
        self._fired: set[int] = set()

    def observe(self, view: FleetView) -> list[Alarm]:
        alarms: list[Alarm] = []
        for node in view.nodes:
            baseline = self._baseline.get(node.index)
            if baseline is None:
                self._baseline[node.index] = node.saturation
                continue
            jump = node.saturation - baseline
            if jump >= SATURATION_JUMP:
                if node.index not in self._fired:
                    self._fired.add(node.index)
                    alarms.append(
                        Alarm(
                            time=view.time,
                            detector=self.name,
                            node=node.index,
                            detail=(
                                ("saturation", round(node.saturation, 6)),
                                ("baseline", round(baseline, 6)),
                            ),
                        )
                    )
                # The baseline is frozen during the episode so a slow ramp
                # cannot launder itself into the quiet-time average.
                continue
            self._fired.discard(node.index)
            self._baseline[node.index] = (
                (1.0 - SATURATION_ALPHA) * baseline
                + SATURATION_ALPHA * node.saturation
            )
        return alarms


class DetectorBank:
    """Runs every detector over the view stream, keeping bounded history."""

    def __init__(self) -> None:
        self.views: list[FleetView] = []
        self._silence = TelemetrySilence()
        self._attainment = AttainmentDrop()
        self._divergence = ActuationDivergence()
        self._saturation = SaturationSpike()

    def observe(self, view: FleetView) -> list[Alarm]:
        """Ingest one tick's view; return every alarm that fired on it."""
        alarms: list[Alarm] = []
        alarms.extend(self._silence.observe(view))
        alarms.extend(self._divergence.observe(view))
        alarms.extend(self._saturation.observe(view))
        alarms.extend(self._attainment.observe(view, self.views))
        self.views.append(view)
        if len(self.views) > HISTORY_LIMIT:
            del self.views[: len(self.views) - HISTORY_LIMIT]
        return alarms
