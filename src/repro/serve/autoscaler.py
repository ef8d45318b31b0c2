"""Demand-driven fleet autoscaling with hysteresis.

The autoscaler watches the *counted offered-request rate* — a pure integer
counter stream, kept live by the orchestrator in both arrival modes, so
decisions are bit-identical across process parallelism and across
checkpoint/restore. It deliberately does not read
node telemetry: sampling a member's meters between control ticks would
perturb their float accumulation order and break replay bit-identity.

Scaling logic is the classic three-guard shape production autoscalers use:

* **target band** — per-node offered load (requests/s divided by the
  workload's standalone capacity) must leave ``[low, high]`` before
  anything happens;
* **consecutive-epoch hysteresis** — the breach must persist for
  ``epochs_up`` (or ``epochs_down``) consecutive epochs, so a one-epoch
  burst doesn't flap the fleet;
* **cooldown** — after any action the autoscaler holds for
  ``cooldown_epochs`` epochs, giving the routing layer time to re-balance
  before the next decision.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class AutoscalerConfig:
    """Knobs for :class:`Autoscaler`."""

    #: Fleet size bounds, inclusive.
    min_nodes: int = 1
    max_nodes: int = 16
    #: Per-node offered utilization (offered rate / node capacity) above
    #: which the fleet is under-provisioned.
    high_utilization: float = 0.85
    #: Utilization below which the fleet is over-provisioned.
    low_utilization: float = 0.40
    #: Consecutive epochs above ``high_utilization`` before growing.
    epochs_up: int = 2
    #: Consecutive epochs below ``low_utilization`` before shrinking.
    epochs_down: int = 4
    #: Epochs to hold after any scaling action.
    cooldown_epochs: int = 2

    def __post_init__(self) -> None:
        if self.min_nodes < 1:
            raise ConfigurationError("min_nodes must be >= 1")
        if self.max_nodes < self.min_nodes:
            raise ConfigurationError("max_nodes must be >= min_nodes")
        if not 0.0 <= self.low_utilization < self.high_utilization:
            raise ConfigurationError(
                "need 0 <= low_utilization < high_utilization"
            )
        if min(self.epochs_up, self.epochs_down) < 1:
            raise ConfigurationError("hysteresis epochs must be >= 1")
        if self.cooldown_epochs < 0:
            raise ConfigurationError("cooldown_epochs must be >= 0")


class Autoscaler:
    """Pure decision state; the service applies the decisions it returns."""

    def __init__(self, config: AutoscalerConfig) -> None:
        self.config = config
        self._above = 0
        self._below = 0
        self._cooldown = 0
        #: Offered counter at the previous epoch boundary.
        self._last_offered = 0
        #: (epoch, action, nodes_after) rows for diagnostics/snapshots.
        self.actions: list[tuple[int, str, int]] = []

    def observe(
        self,
        epoch: int,
        offered: int,
        epoch_s: float,
        active_nodes: int,
        node_capacity_qps: float,
    ) -> int:
        """Ingest one epoch's counters; return the node delta to apply.

        ``offered`` is the cumulative counted offered total at the epoch
        boundary; the rate is its delta over the epoch. Returns +1, -1 or 0
        — the service grows/shrinks by at most one node per epoch (the
        hysteresis counters reset on action, so a sustained surge still
        grows one node per ``epochs_up`` epochs).
        """
        config = self.config
        delta_offered = offered - self._last_offered
        self._last_offered = offered
        rate = delta_offered / epoch_s if epoch_s > 0 else 0.0
        capacity = node_capacity_qps * active_nodes
        utilization = rate / capacity if capacity > 0 else 0.0

        if self._cooldown > 0:
            self._cooldown -= 1
            self._above = 0
            self._below = 0
            return 0
        if utilization > config.high_utilization:
            self._above += 1
            self._below = 0
        elif utilization < config.low_utilization:
            self._below += 1
            self._above = 0
        else:
            self._above = 0
            self._below = 0

        if self._above >= config.epochs_up and active_nodes < config.max_nodes:
            self._above = 0
            self._cooldown = config.cooldown_epochs
            self.actions.append((epoch, "grow", active_nodes + 1))
            return 1
        if self._below >= config.epochs_down and active_nodes > config.min_nodes:
            self._below = 0
            self._cooldown = config.cooldown_epochs
            self.actions.append((epoch, "shrink", active_nodes - 1))
            return -1
        return 0
