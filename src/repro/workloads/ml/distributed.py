"""Distributed-training substrate: the shard update model and the step barrier.

CNN3 trains with the distributed-TensorFlow architecture of Fig 1: workers
compute gradients on accelerators, push them to parameter-server shards, and
wait for updated variables. Training steps are processed in lock-step, so
the *slowest* shard bounds service-level throughput — the "tail at scale"
amplification the paper cites. This module models the shard fan-out and the
barrier; the local shard's latency comes from the contention simulation
while remote shards are drawn from calibrated distributions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError


class LockStepBarrier:
    """The per-step barrier across parameter-server shards.

    One shard is *local* — its update latency is produced by the contention
    simulation. The remaining ``shards - 1`` are remote: their latencies are
    drawn from a Gamma distribution around the nominal standalone update time
    (shape set by the coefficient of variation). The barrier releases when
    the slowest shard finishes, so the step pays
    ``max(local_latency, max(remote draws))`` — amplifying any local
    interference across the whole service (Dean & Barroso's tail-at-scale
    effect, Section II-D).
    """

    def __init__(
        self,
        shards: int,
        nominal_latency: float,
        latency_cv: float = 0.12,
        rng: np.random.Generator | None = None,
    ) -> None:
        if shards < 1:
            raise ConfigurationError("need at least one shard")
        if nominal_latency <= 0:
            raise ConfigurationError("nominal_latency must be positive")
        if latency_cv < 0:
            raise ConfigurationError("latency_cv must be >= 0")
        self.shards = shards
        self.nominal_latency = nominal_latency
        self.latency_cv = latency_cv
        self._rng = rng if rng is not None else np.random.default_rng(0)

    def remote_max(self) -> float:
        """Draw the slowest remote shard's latency for one step."""
        remote = self.shards - 1
        if remote == 0:
            return 0.0
        if self.latency_cv == 0:
            return self.nominal_latency
        cv2 = self.latency_cv ** 2
        shape = 1.0 / cv2
        scale = self.nominal_latency * cv2
        draws = self._rng.gamma(shape, scale, size=remote)
        return float(np.max(draws))

    def barrier_wait(self, local_latency: float) -> float:
        """Extra time the step waits *after* the local shard finished.

        Returns ``max(0, slowest_remote - local_latency)``.
        """
        if local_latency < 0:
            raise ConfigurationError("local_latency must be >= 0")
        return max(0.0, self.remote_max() - local_latency)


@dataclass(frozen=True)
class PsUpdateModel:
    """Analytic cost model for one parameter-server shard's per-step update.

    A shard aggregates gradients and applies the optimizer update — a
    memory-bandwidth-intensive scan over the variable partition (Section I,
    step 3 of Fig 1). The update cost scales with the parameter bytes owned
    by the shard and the optimizer's bytes-per-parameter footprint.
    """

    #: Parameter bytes owned by this shard, GB.
    shard_params_gb: float
    #: Optimizer traffic multiplier: bytes moved per parameter byte per step
    #: (read params + read grads + write params; Adam adds moment reads).
    optimizer_traffic_factor: float = 4.0
    #: Effective per-shard memory bandwidth at standalone, GB/s.
    standalone_bw_gbps: float = 18.0

    def __post_init__(self) -> None:
        if self.shard_params_gb <= 0:
            raise ConfigurationError("shard_params_gb must be positive")
        if self.optimizer_traffic_factor <= 0:
            raise ConfigurationError("optimizer_traffic_factor must be positive")
        if self.standalone_bw_gbps <= 0:
            raise ConfigurationError("standalone_bw_gbps must be positive")

    @property
    def bytes_per_step_gb(self) -> float:
        """Memory traffic of one update, GB."""
        return self.shard_params_gb * self.optimizer_traffic_factor

    @property
    def standalone_update_time(self) -> float:
        """Update latency at standalone bandwidth, seconds."""
        return self.bytes_per_step_gb / self.standalone_bw_gbps
