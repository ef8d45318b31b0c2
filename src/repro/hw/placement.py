"""Task placement: CPU affinity, memory-routing weights, and CAT class.

A :class:`Placement` is the full description of *where* a task runs and where
its memory traffic goes. The host-interface layer (``repro.hostif``) mutates
placements the way the real runtime would via cgroup cpusets, numactl and
resctrl; the contention solver consumes them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import ConfigurationError


def normalized_weights(weights: dict[int, float]) -> dict[int, float]:
    """Normalize routing weights to sum to 1; reject empty/negative input."""
    if not weights:
        raise ConfigurationError("memory weights must be non-empty")
    total = float(sum(weights.values()))
    if total <= 0:
        raise ConfigurationError("memory weights must sum to a positive value")
    if any(w < 0 for w in weights.values()):
        raise ConfigurationError("memory weights must be non-negative")
    return {node: w / total for node, w in weights.items() if w > 0}


@dataclass(frozen=True)
class Placement:
    """Where a task runs.

    Attributes:
        cores: global core ids the task's threads may run on.
        mem_weights: fraction of the task's memory traffic routed to each
            subdomain's controller (normalized at construction).
        clos: resctrl class-of-service id, selecting a CAT way-mask (and,
            under the hardware-QoS policy, an MBA throttle level).
    """

    cores: frozenset[int]
    mem_weights: dict[int, float] = field(default_factory=dict)
    clos: int = 0

    def __post_init__(self) -> None:
        if not self.cores:
            raise ConfigurationError("placement needs at least one core")
        object.__setattr__(self, "cores", frozenset(self.cores))
        object.__setattr__(
            self, "mem_weights", normalized_weights(dict(self.mem_weights))
        )
        if self.clos < 0:
            raise ConfigurationError("clos must be non-negative")

    @property
    def num_cores(self) -> int:
        """Number of cores the task may use."""
        return len(self.cores)

    def with_cores(self, cores: frozenset[int] | set[int] | tuple[int, ...]) -> "Placement":
        """Return a copy with a different CPU mask."""
        return replace(self, cores=frozenset(cores))

    def with_mem_weights(self, mem_weights: dict[int, float]) -> "Placement":
        """Return a copy with different memory-routing weights."""
        return replace(self, mem_weights=dict(mem_weights))

    def overlaps_cores(self, other: "Placement") -> bool:
        """True if the two placements share any core (SMT colocation)."""
        return bool(self.cores & other.cores)
