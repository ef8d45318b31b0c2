"""Serial accelerator engine with a roofline cost model."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable

from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.sim import Simulator


@dataclass(frozen=True)
class AcceleratorSpec:
    """Static device characteristics."""

    name: str
    #: Peak compute throughput, TFLOPS.
    peak_tflops: float
    #: Device-local memory bandwidth, GB/s.
    local_bw_gbps: float
    #: Device-local memory capacity, GB.
    local_capacity_gb: float

    def __post_init__(self) -> None:
        if min(self.peak_tflops, self.local_bw_gbps, self.local_capacity_gb) <= 0:
            raise ConfigurationError("accelerator spec values must be positive")


@dataclass(frozen=True)
class OpCost:
    """The resource footprint of one offloaded operation."""

    #: Floating-point work, GFLOP.
    gflops: float = 0.0
    #: Device-memory traffic, GB.
    local_bytes_gb: float = 0.0

    def duration_on(self, spec: AcceleratorSpec) -> float:
        """Roofline service time on ``spec``, seconds.

        The op is bound by whichever of compute and local-memory traffic
        takes longer — the paper (citing the TPU roofline analysis) notes
        production workloads are almost always local-memory-bandwidth bound.
        """
        compute_s = self.gflops / (spec.peak_tflops * 1e3)
        memory_s = self.local_bytes_gb / spec.local_bw_gbps
        return max(compute_s, memory_s)


class AcceleratorDevice:
    """A FIFO, non-preemptive execution engine (Baymax's usage assumption
    inverted: the paper assumes one application owns the device, so the queue
    only ever holds ops from a single workload)."""

    def __init__(self, spec: AcceleratorSpec, sim: "Simulator") -> None:
        self.spec = spec
        self.sim = sim
        self._queue: deque[tuple[float, Callable[[], None]]] = deque()
        self._busy = False
        self.busy_time = 0.0
        self.ops_completed = 0
        self._op_label = f"{spec.name}:op"

    @property
    def queue_depth(self) -> int:
        """Ops waiting behind the one in flight."""
        return len(self._queue)

    @property
    def busy(self) -> bool:
        """Whether an op is currently executing."""
        return self._busy

    def submit(self, cost: OpCost, on_complete: Callable[[], None]) -> None:
        """Enqueue an op; ``on_complete`` fires when it finishes executing."""
        duration = cost.duration_on(self.spec)
        self._queue.append((duration, on_complete))
        if not self._busy:
            self._dispatch_next()

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` the engine spent executing."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)

    # ------------------------------------------------------------ internal
    def _dispatch_next(self) -> None:
        if not self._queue:
            self._busy = False
            return
        self._busy = True
        duration, on_complete = self._queue.popleft()
        self.sim.after(
            duration,
            partial(self._finish, duration, on_complete),
            label=self._op_label,
        )

    def _finish(self, duration: float, on_complete: Callable[[], None]) -> None:
        self.busy_time += duration
        self.ops_completed += 1
        on_complete()
        self._dispatch_next()
