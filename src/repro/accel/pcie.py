"""Host-device PCIe link: a fluid shared channel per direction.

Fig 3 shows CPU-accelerator communication is insensitive to the DRAM
aggressor, so the link is modeled independently of host memory contention:
concurrent transfers in one direction share the link's bandwidth equally.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.errors import ConfigurationError
from repro.hw.spec import PcieSpec
from repro.sim.work import FluidPool, FluidWork

if TYPE_CHECKING:
    from repro.sim import Simulator


class PcieLink:
    """One direction of a PCIe link, shared equally by in-flight transfers."""

    def __init__(self, spec: PcieSpec, sim: "Simulator", name: str = "pcie") -> None:
        if spec.peak_bw_gbps <= 0:
            raise ConfigurationError("PCIe bandwidth must be positive")
        self.spec = spec
        self.sim = sim
        self.name = name
        #: In-flight transfers; each work's owner is its completion callback.
        self._transfers = FluidPool(sim, f"{name}:xfer", self._finish)
        self.bytes_moved_gb = 0.0

    @property
    def active_transfers(self) -> int:
        """Transfers currently sharing the link."""
        return len(self._transfers.works)

    def transfer(self, size_gb: float, on_complete: Callable[[], None]) -> None:
        """Move ``size_gb`` across the link; callback on completion."""
        if size_gb < 0:
            raise ConfigurationError(f"negative transfer size {size_gb}")
        if size_gb == 0:
            on_complete()
            return
        self._transfers.add(size_gb, on_complete)
        self._rebalance()

    # ------------------------------------------------------------ internal
    def _rebalance(self) -> None:
        """Share the link equally among the (non-empty) active transfers."""
        works = self._transfers.works
        self._transfers.set_rate(self.spec.peak_bw_gbps / len(works), self.sim.now)

    def _finish(self, work: FluidWork, on_complete: Callable[[], None]) -> None:
        self.bytes_moved_gb += work.total
        on_complete()
        if self._transfers.works:
            self._rebalance()
