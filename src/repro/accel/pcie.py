"""Host-device PCIe link: a fluid shared channel per direction.

Fig 3 shows CPU-accelerator communication is insensitive to the DRAM
aggressor, so the link is modeled independently of host memory contention:
concurrent transfers in one direction share the link's bandwidth equally.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Callable

from repro.errors import ConfigurationError
from repro.hw.spec import PcieSpec
from repro.sim.work import FluidWork

if TYPE_CHECKING:
    from repro.sim import Simulator
    from repro.sim.events import Event


class _Transfer:
    __slots__ = ("work", "on_complete", "handle", "finisher")

    def __init__(self, work: FluidWork, on_complete: Callable[[], None]) -> None:
        self.work = work
        self.on_complete = on_complete
        self.handle: "Event | None" = None
        #: Completion callback, built once so rebalances don't allocate a
        #: fresh closure for every in-flight transfer they reschedule.
        self.finisher: Callable[[], None] | None = None


class PcieLink:
    """One direction of a PCIe link, shared equally by in-flight transfers."""

    def __init__(self, spec: PcieSpec, sim: "Simulator", name: str = "pcie") -> None:
        if spec.peak_bw_gbps <= 0:
            raise ConfigurationError("PCIe bandwidth must be positive")
        self.spec = spec
        self.sim = sim
        self.name = name
        self._active: list[_Transfer] = []
        self._xfer_label = f"{name}:xfer"
        self.bytes_moved_gb = 0.0

    @property
    def active_transfers(self) -> int:
        """Transfers currently sharing the link."""
        return len(self._active)

    def transfer(self, size_gb: float, on_complete: Callable[[], None]) -> None:
        """Move ``size_gb`` across the link; callback on completion."""
        if size_gb < 0:
            raise ConfigurationError(f"negative transfer size {size_gb}")
        if size_gb == 0:
            on_complete()
            return
        entry = _Transfer(FluidWork(size_gb, now=self.sim.now), on_complete)
        entry.finisher = partial(self._finish, entry)
        self._active.append(entry)
        self._rebalance()

    # ------------------------------------------------------------ internal
    def _rebalance(self) -> None:
        """Share the link equally among the (non-empty) active transfers."""
        now = self.sim.now
        share = self.spec.peak_bw_gbps / len(self._active)
        label = self._xfer_label
        for entry in self._active:
            due = entry.work.retime(share, now)
            if entry.handle is not None:
                entry.handle.cancel()
            entry.handle = self.sim.at(due, entry.finisher, label=label)

    def _finish(self, entry: _Transfer) -> None:
        now = self.sim.now
        entry.work.sync(now)
        if not entry.work.done and not entry.work.retire_residue(now=now):
            return  # stale event; a newer handle owns completion
        if entry in self._active:
            self._active.remove(entry)
            self.bytes_moved_gb += entry.work.total
            entry.on_complete()
            if self._active:
                self._rebalance()
