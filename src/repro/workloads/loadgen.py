"""Request load generation for inference workloads.

The paper generates RNN1 requests "in a parallel and pipelined fashion" at a
rate chosen at the knee of the throughput-latency curve (Section V-A), and
serially for the illustrative Fig 3 trace. Both modes are provided.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.sim import Simulator
    from repro.sim.events import Event
    from repro.workloads.ml.base import InferenceServerTask


class OpenLoopGenerator:
    """Poisson (or deterministic) arrivals at a fixed rate, open loop."""

    def __init__(
        self,
        sim: "Simulator",
        rate_qps: float,
        submit: Callable[[], None],
        rng: np.random.Generator,
        deterministic: bool = False,
    ) -> None:
        if rate_qps <= 0:
            raise ConfigurationError("rate_qps must be positive")
        self.sim = sim
        self.rate_qps = rate_qps
        self.submit = submit
        self._rng = rng
        self._deterministic = deterministic
        self._stopped = True
        self._pending: "Event | None" = None
        self.generated = 0

    def start(self) -> None:
        """Begin generating arrivals from the current simulated time.

        Raises :class:`~repro.errors.ConfigurationError` when called while
        the generator is already running — a second call would schedule a
        second arrival chain and silently double the offered rate. Call
        :meth:`stop` first to restart.
        """
        if not self._stopped:
            raise ConfigurationError(
                "open-loop generator already running; stop() before "
                "restarting"
            )
        self._stopped = False
        self._schedule_next()

    def stop(self) -> None:
        """Stop generating further arrivals.

        Cancels the pending arrival event: a chain merely flagged as stopped
        would resume if the generator were restarted before the stale event
        fired, doubling the offered rate from then on.
        """
        self._stopped = True
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None

    def _schedule_next(self) -> None:
        if self._stopped:
            return
        if self._deterministic:
            gap = 1.0 / self.rate_qps
        else:
            gap = float(self._rng.exponential(1.0 / self.rate_qps))
        self._pending = self.sim.after(gap, self._fire, label="loadgen:arrival")

    def _fire(self) -> None:
        if self._stopped:
            return
        self._pending = None
        self.generated += 1
        self.submit()
        self._schedule_next()


class TraceReplayGenerator:
    """Replays a fixed arrival schedule — trace-driven open-loop load.

    ``arrivals_s`` is a non-decreasing sequence of absolute simulated
    timestamps (typically a :class:`repro.traces.Trace` arrival column);
    ``submit`` receives the *index* of each firing arrival so the caller can
    look up per-request attributes (tenant, job family, demand) in the
    trace's parallel columns.

    Arrivals are chained one event at a time — a million-request trace never
    holds more than one pending arrival event in the simulator heap.
    Arrivals earlier than the simulated clock at :meth:`start` are skipped
    (they are in the past); arrivals beyond the run horizon simply never
    fire.
    """

    def __init__(
        self,
        sim: "Simulator",
        arrivals_s: Sequence[float] | np.ndarray,
        submit: Callable[[int], None],
    ) -> None:
        self.sim = sim
        self.arrivals = np.asarray(arrivals_s, dtype=np.float64)
        if self.arrivals.ndim != 1:
            raise ConfigurationError("arrivals_s must be one-dimensional")
        if self.arrivals.size and np.any(np.diff(self.arrivals) < 0):
            raise ConfigurationError("trace arrivals must be non-decreasing")
        self.submit = submit
        self._stopped = True
        self._pending: "Event | None" = None
        self._next = 0
        self.generated = 0

    @property
    def remaining(self) -> int:
        """Arrivals not yet fired (including any the run may never reach)."""
        return int(self.arrivals.size - self._next)

    def start(self) -> None:
        """Begin replaying from the first arrival at or after ``sim.now``."""
        if not self._stopped:
            raise ConfigurationError(
                "trace replay generator already running; stop() before "
                "restarting"
            )
        self._stopped = False
        self._next = int(np.searchsorted(self.arrivals, self.sim.now, "left"))
        self._schedule_next()

    def stop(self) -> None:
        """Stop replaying (cancelling the pending arrival event)."""
        self._stopped = True
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None

    def _schedule_next(self) -> None:
        if self._stopped or self._next >= self.arrivals.size:
            return
        delay = float(self.arrivals[self._next]) - self.sim.now
        self._pending = self.sim.after(
            max(0.0, delay), self._fire, label="loadgen:trace"
        )

    def _fire(self) -> None:
        if self._stopped:
            return
        self._pending = None
        index = self._next
        self._next = index + 1
        self.generated += 1
        self.submit(index)
        self._schedule_next()

    # -------------------------------------------------------- checkpointing
    def __getstate__(self) -> dict:
        """Pickle everything *except* the arrival schedule.

        The schedule is a pure function of the trace (potentially millions
        of float64s); a checkpoint stores the replay cursor and the restorer
        re-attaches the same trace via :meth:`reattach_arrivals`. The
        pending arrival event pickles with the simulator heap — only the
        array is detached.
        """
        state = self.__dict__.copy()
        state["arrivals"] = None
        return state

    def reattach_arrivals(self, arrivals_s: np.ndarray) -> None:
        """Re-bind the arrival schedule after a checkpoint restore."""
        if self.arrivals is not None:  # pragma: no cover - defensive
            raise ConfigurationError("arrivals already attached")
        self.arrivals = np.asarray(arrivals_s, dtype=np.float64)


class ClosedLoopGenerator:
    """Fixed-concurrency pipelined load (the paper's RNN1 generation mode).

    ``concurrency`` requests are kept outstanding at all times: each
    completion immediately submits a replacement. Throughput therefore tracks
    server capacity and tail latency tracks service time — matching the
    paper's observation of modest QPS loss with modest tail growth under
    interference, rather than open-loop queue collapse.
    """

    def __init__(self, server: "InferenceServerTask", concurrency: int) -> None:
        if concurrency <= 0:
            raise ConfigurationError("concurrency must be positive")
        self.server = server
        self.concurrency = concurrency
        self._stopped = True
        self._attached = False

    def start(self) -> None:
        """Fill the pipeline (attaching the completion listener)."""
        self._stopped = False
        self._attach()
        for _ in range(self.concurrency):
            self.server.submit()

    def stop(self) -> None:
        """Stop replacing completed requests and detach from the server.

        Without the detach, every generator ever pointed at a server would
        keep a listener in ``server.completion_listeners`` forever — and a
        stale generator that was merely re-``start()``-ed elsewhere would
        re-submit on completions it no longer owns.
        """
        self._stopped = True
        self._detach()

    def _attach(self) -> None:
        if not self._attached:
            self.server.completion_listeners.append(self._on_complete)
            self._attached = True

    def _detach(self) -> None:
        if self._attached:
            try:
                self.server.completion_listeners.remove(self._on_complete)
            except ValueError:  # pragma: no cover - defensive
                pass
            self._attached = False

    def _on_complete(self, _start: float, _end: float) -> None:
        if not self._stopped:
            self.server.submit()


class SerialGenerator:
    """Closed-loop, one request at a time (the Fig 3 trace mode)."""

    def __init__(self, server: "InferenceServerTask", total_requests: int) -> None:
        if total_requests <= 0:
            raise ConfigurationError("total_requests must be positive")
        self.server = server
        self.total_requests = total_requests
        self.remaining = total_requests
        self.completed = 0
        self._attached = False

    def start(self) -> None:
        """Issue the first request (attaching the completion listener)."""
        if not self._attached:
            self.server.completion_listeners.append(self._on_complete)
            self._attached = True
        self._issue()

    def stop(self) -> None:
        """Stop issuing further requests and detach from the server."""
        self.remaining = 0
        self._detach()

    def _detach(self) -> None:
        if self._attached:
            try:
                self.server.completion_listeners.remove(self._on_complete)
            except ValueError:  # pragma: no cover - defensive
                pass
            self._attached = False

    def _issue(self) -> None:
        if self.remaining <= 0:
            return
        self.remaining -= 1
        self.server.submit()

    def _on_complete(self, _start: float, _end: float) -> None:
        self.completed += 1
        if self.remaining <= 0 and self.completed >= self.total_requests:
            # Exhausted: leave no listener behind on the server.
            self._detach()
            return
        self._issue()
