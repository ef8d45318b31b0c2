"""The long-running serving control plane over a fleet orchestrator.

:class:`FleetService` wraps :class:`~repro.fleet.orchestrator.FleetOrchestrator`
as an epoch-stepped *service*: instead of one opaque ``run()`` to
completion, the clock advances one epoch at a time and control commands —
admit/evict a tenant, swap the routing policy, grow or shrink the fleet —
apply at epoch boundaries, exactly as a production control plane applies
configuration between reconciliation loops.

Two properties the rest of the stack leans on:

* **Stepping is bit-identical to batch.** Epoch boundary times are computed
  by multiplication (``k * epoch_s``, clamped to the horizon), never by
  accumulation, and nothing between epochs syncs a meter or advances an
  RNG, so a command-free stepped run produces byte-identical results to
  ``FleetOrchestrator.run()``.
* **Checkpoint/restore is bit-identical too.** :meth:`save` pickles the
  full simulator + orchestrator + RNG state (minus the trace columns, which
  :meth:`restore` re-binds from the same trace). The simulator numbers its
  own events, so a run resumed in a fresh process dispatches in the same
  order. See ``docs/serving.md`` for the format.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from dataclasses import asdict
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError, ExperimentError
from repro.fleet.config import FleetConfig
from repro.fleet.orchestrator import FleetHooks, FleetOrchestrator, FleetResult
from repro.serve.autoscaler import Autoscaler, AutoscalerConfig
from repro.serve.snapshot import ServiceSnapshot, take_snapshot
from repro.traces.schema import trace_digest

if TYPE_CHECKING:
    from repro.obs.recorder import RunObserver
    from repro.traces.schema import Trace

#: Checkpoint container format tag; bump on any incompatible change.
CHECKPOINT_FORMAT = "repro-serve-checkpoint/v7"

#: Ends a checkpoint file, followed by the SHA-256 (hex) of the container
#: before it.
_DIGEST_MARK = f"\n{CHECKPOINT_FORMAT} sha256:".encode()

#: What unpickling a damaged container raises (a bad opcode, a truncated
#: frame, a bad string, an unknown global, an absurd length).
_DECODE_ERRORS = (
    pickle.UnpicklingError, EOFError, AttributeError, ImportError,
    TypeError, ValueError, OverflowError, MemoryError,
)


class FleetService:
    """An epoch-stepped, checkpointable fleet serving control plane."""

    def __init__(
        self,
        config: FleetConfig,
        trace: "Trace | None" = None,
        collect_telemetry: bool = True,
        hooks: FleetHooks | None = None,
        autoscaler: AutoscalerConfig | None = None,
        epoch_s: float | None = None,
        observer: "RunObserver | None" = None,
    ) -> None:
        self.orchestrator = FleetOrchestrator(
            config,
            collect_telemetry=collect_telemetry,
            trace=trace,
            hooks=hooks,
        )
        self.epoch_s = float(
            epoch_s if epoch_s is not None else config.interval
        )
        if self.epoch_s <= 0:
            raise ConfigurationError("epoch_s must be positive")
        self.epoch = 0
        self.autoscaler = (
            Autoscaler(autoscaler) if autoscaler is not None else None
        )
        #: Content digest of the driving trace (None for open-loop runs);
        #: restores refuse a different trace.
        self.trace_digest = trace_digest(trace) if trace is not None else None
        #: Epoch-boundary snapshots, in order (epoch 1 first).
        self.snapshots: list[ServiceSnapshot] = []
        #: ``(epoch, command)`` audit log of every applied control command.
        self.commands: list[tuple[int, str]] = []
        self.observer = observer
        self._started = False
        self._finished = False
        self._prev_offered = 0
        self._prev_completed = 0

    # ------------------------------------------------------------ lifecycle
    @property
    def config(self) -> FleetConfig:
        return self.orchestrator.config

    @property
    def time_s(self) -> float:
        """Current simulated time (0.0 before :meth:`start`)."""
        sim = self.orchestrator._sim
        return sim.now if sim is not None else 0.0

    @property
    def done(self) -> bool:
        """True once the clock has reached the configured horizon."""
        return self._started and self.time_s >= self.config.duration

    def start(self) -> None:
        """Assemble the fleet and start serving at t=0."""
        if self._started:
            raise ExperimentError("service already started")
        self._started = True
        self.orchestrator.setup()
        if self.observer is not None:
            self.observer.note_config(
                serve_epoch_s=self.epoch_s,
                serve_autoscaler=self.autoscaler is not None,
            )

    def step(self) -> ServiceSnapshot:
        """Advance one epoch; returns the boundary snapshot.

        The boundary time is ``min(duration, (epoch + 1) * epoch_s)`` — a
        pure function of the epoch index, so a stop/restore cycle lands on
        exactly the same float boundaries as an uninterrupted run. The
        autoscaler (when configured) observes the boundary counters and may
        grow or shrink the fleet by one node before the next epoch.
        """
        self._require_live()
        until = min(self.config.duration, (self.epoch + 1) * self.epoch_s)
        self.orchestrator.advance(until)
        self.epoch += 1
        if self.autoscaler is not None:
            self._autoscale(until)
        snapshot = take_snapshot(
            self.orchestrator,
            self.epoch,
            until,
            self._prev_offered,
            self._prev_completed,
        )
        self._prev_offered = snapshot.offered
        self._prev_completed = snapshot.completed
        self.snapshots.append(snapshot)
        if self.observer is not None:
            self.observer.record("serve_epoch", **snapshot.as_dict())
        return snapshot

    def run_to_end(self) -> None:
        """Step epochs until the horizon."""
        self._require_live()
        while not self.done:
            self.step()

    def finish(self) -> FleetResult:
        """Close the books; the service cannot be stepped afterwards."""
        self._require_live()
        if not self.done:
            raise ExperimentError(
                f"service at t={self.time_s} has not reached the horizon "
                f"{self.config.duration}; step() to the end first"
            )
        self._finished = True
        return self.orchestrator.finish()

    def _require_live(self) -> None:
        if not self._started:
            raise ExperimentError("service not started; call start()")
        if self._finished:
            raise ExperimentError("service already finished")

    # ------------------------------------------------------------- commands
    def _tenant_index(self, tenant: str) -> int:
        for index, spec in enumerate(self.config.tenants):
            if spec.name == tenant:
                return index
        raise ConfigurationError(
            f"unknown tenant {tenant!r}; have "
            f"{[t.name for t in self.config.tenants]}"
        )

    def _log_command(self, command: str) -> None:
        self.commands.append((self.epoch, command))
        if self.observer is not None:
            self.observer.record(
                "serve_command", epoch=self.epoch, command=command
            )

    def evict_tenant(self, tenant: str) -> None:
        """Refuse service to a tenant from the next arrival on.

        The tenant's traffic keeps arriving and stays *offered* — every
        arrival while evicted is dropped, i.e. an SLO miss.
        """
        self._require_live()
        self.orchestrator.evicted_tenants.add(self._tenant_index(tenant))
        self._log_command(f"evict:{tenant}")

    def admit_tenant(self, tenant: str) -> None:
        """Re-admit a previously evicted tenant."""
        self._require_live()
        self.orchestrator.evicted_tenants.discard(self._tenant_index(tenant))
        self._log_command(f"admit:{tenant}")

    def swap_routing(self, routing: str) -> None:
        """Swap the admission routing policy on the live fleet.

        The replacement router's RNG stream is derived from the current
        epoch, so the swap is deterministic in *when* it happens and
        independent of how much entropy the old router consumed.
        """
        self._require_live()
        self.orchestrator.swap_router(routing, seed=self.epoch)
        self._log_command(f"routing:{routing}")

    def grow(self) -> int:
        """Add one node to the live fleet; returns its index."""
        self._require_live()
        index = self.orchestrator.add_member()
        self._log_command(f"grow:{index}")
        return index

    def shrink(self) -> int:
        """Drain the highest-indexed active node out of the fleet.

        Returns the retired node's index. In-flight requests on the node
        complete; its batch jobs are requeued.
        """
        self._require_live()
        orchestrator = self.orchestrator
        active = [
            m.index
            for m in orchestrator.members
            if m.index not in orchestrator._retired
        ]
        if len(active) <= 1:
            raise ExperimentError("cannot shrink below one node")
        index = max(active)
        orchestrator.retire_member(index)
        self._log_command(f"shrink:{index}")
        return index

    def _autoscale(self, now: float) -> None:
        assert self.autoscaler is not None
        offered, _, _ = self.orchestrator.counters()
        delta = self.autoscaler.observe(
            self.epoch,
            offered,
            self.epoch_s,
            self.orchestrator.active_members,
            self.orchestrator._capacity,
        )
        if delta > 0:
            index = self.orchestrator.add_member()
            self._log_command(f"autoscale-grow:{index}")
        elif delta < 0 and self.orchestrator.active_members > 1:
            active = [
                m.index
                for m in self.orchestrator.members
                if m.index not in self.orchestrator._retired
            ]
            index = max(active)
            self.orchestrator.retire_member(index)
            self._log_command(f"autoscale-shrink:{index}")

    # ------------------------------------------------------- checkpointing
    def __getstate__(self) -> dict:
        """Drop the observer: it holds open file handles and is re-bound
        (or left off) by :meth:`restore`."""
        state = self.__dict__.copy()
        state["observer"] = None
        return state

    def save(self, path: str) -> dict:
        """Checkpoint the live service to ``path``; returns the metadata.

        The file is a pickled container: a small metadata dict (format
        tag, epoch, simulated time, trace digest, and the plan the service
        runs: fleet shape, horizon, seed, epoch length and autoscaler
        bounds)
        plus the pickled service graph as an opaque payload, so a restorer
        can validate compatibility before deserializing simulator state. A
        SHA-256 of the container follows it, so a damaged file is refused
        before any of it is unpickled.
        """
        self._require_live()
        config = self.config
        trace = self.orchestrator._trace
        meta = {
            "format": CHECKPOINT_FORMAT,
            "epoch": self.epoch,
            "time_s": self.time_s,
            "trace_digest": self.trace_digest,
            "plan": {
                "nodes": config.nodes,
                "policy": config.policy,
                "routing": config.routing,
                "ml": config.ml,
                "duration": config.duration,
                "warmup": config.warmup,
                "interval": config.interval,
                "window_s": config.window_s,
                "seed": config.seed,
                "epoch_s": self.epoch_s,
                "autoscaler": (
                    None if self.autoscaler is None
                    else asdict(self.autoscaler.config)
                ),
                "trace_s": None if trace is None else trace.duration_s,
            },
        }
        blob = dict(meta)
        blob["payload"] = pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)
        container = pickle.dumps(blob, protocol=pickle.HIGHEST_PROTOCOL)
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "wb") as handle:
            handle.write(container)
            handle.write(_DIGEST_MARK)
            handle.write(hashlib.sha256(container).hexdigest().encode())
        if self.observer is not None:
            self.observer.record("serve_checkpoint", **meta)
        return meta

    @classmethod
    def restore(
        cls,
        path: str,
        trace: "Trace | None" = None,
        observer: "RunObserver | None" = None,
    ) -> "FleetService":
        """Resume a checkpointed service, bit-identically.

        A trace-driven checkpoint requires the *same* trace (validated by
        content digest) — the checkpoint stores the replay cursor, not the
        trace columns, and the trace is re-bound after unpickling. The
        restored simulator carries its own event counter, so events created
        after the restore order exactly as in the uninterrupted run.
        """
        blob = _read_checkpoint(path)
        if blob["trace_digest"] is not None:
            if trace is None:
                raise ConfigurationError(
                    "checkpoint is trace-driven; pass the driving trace"
                )
            if trace_digest(trace) != blob["trace_digest"]:
                raise ConfigurationError(
                    "trace does not match the checkpointed run "
                    "(content digest mismatch)"
                )
        elif trace is not None:
            raise ConfigurationError(
                "checkpoint is open-loop but a trace was passed"
            )
        service: FleetService = pickle.loads(blob["payload"])
        if trace is not None:
            service.orchestrator.reattach_trace(trace)
        service.observer = observer
        return service


def checkpoint_meta(path: str) -> dict:
    """Read a checkpoint's metadata without deserializing simulator state."""
    blob = _read_checkpoint(path)
    return {key: blob[key] for key in blob if key != "payload"}


def _read_checkpoint(path: str) -> dict:
    """The checkpoint container at ``path``, its digest checked before
    anything is unpickled: a ConfigurationError for an unreadable, foreign,
    stale or damaged file."""
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise ConfigurationError(
            f"cannot read checkpoint {path}: {exc}"
        ) from exc
    mark = len(raw) - 64 - len(_DIGEST_MARK)
    if mark < 0 or raw[mark:-64] != _DIGEST_MARK:
        raise ConfigurationError(f"{path}: not a {CHECKPOINT_FORMAT} checkpoint")
    container = raw[:mark]
    if hashlib.sha256(container).hexdigest().encode() != raw[-64:]:
        raise ConfigurationError(f"{path}: checkpoint digest mismatch (corrupt file)")
    try:
        blob = pickle.loads(container)
    except _DECODE_ERRORS as exc:
        # Intact but undecodable: written by something else.
        raise ConfigurationError(
            f"{path}: not a {CHECKPOINT_FORMAT} checkpoint ({type(exc).__name__})"
        ) from exc
    if not isinstance(blob, dict) or blob.get("format") != CHECKPOINT_FORMAT:
        raise ConfigurationError(f"{path}: not a {CHECKPOINT_FORMAT} checkpoint")
    return blob
