"""Immutable hardware specifications and the three host-platform presets.

The paper evaluates on three accelerated platforms (Table I): a TPUv1 host,
a Cloud TPU host and a GPU host. All are dual-socket Xeon-class servers; the
Cloud TPU host carries a markedly higher sensitivity to cross-socket
(remote) memory traffic (Section VI-A attributes this to coherence-protocol
implementation choices), which we expose as ``remote_sensitivity``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class MemoryControllerSpec:
    """One channel group (one NUMA subdomain's worth of DRAM channels)."""

    #: Peak deliverable bandwidth of this channel group, GB/s.
    peak_bw_gbps: float = 38.4
    #: Unloaded access latency, ns (used only for reporting; the solver works
    #: in dimensionless latency factors over this baseline).
    base_latency_ns: float = 85.0
    #: Queueing-curve coefficient: ``lat = 1 + a * u^b / (1 - u)``. The
    #: curve starts climbing from ~50 % utilization, as measured DDR4 loaded
    #: latency does — this is what makes shared-channel runtimes (CT) pay a
    #: latency tax at any useful throughput.
    latency_curve_a: float = 0.18
    #: Queueing-curve exponent.
    latency_curve_b: float = 2.0
    #: Cap on the loaded-latency factor (DDR4 loaded latency tops out around
    #: 4x unloaded before the controller simply runs out of bandwidth).
    latency_factor_cap: float = 4.0
    #: Demand/peak ratio at which the distress signal starts asserting.
    distress_start: float = 0.92
    #: Demand/peak span over which distress saturates to 100 % of cycles.
    distress_span: float = 0.80

    def __post_init__(self) -> None:
        if self.peak_bw_gbps <= 0:
            raise ConfigurationError("peak_bw_gbps must be positive")
        if not 0.0 < self.distress_start:
            raise ConfigurationError("distress_start must be positive")
        if self.distress_span <= 0:
            raise ConfigurationError("distress_span must be positive")


@dataclass(frozen=True)
class LlcSpec:
    """Socket-level last-level cache, way-partitionable via CAT."""

    #: Total capacity, MB.
    capacity_mb: float = 32.0
    #: Number of allocation ways (CAT granularity).
    ways: int = 16

    def __post_init__(self) -> None:
        if self.capacity_mb <= 0 or self.ways <= 0:
            raise ConfigurationError("LLC capacity and ways must be positive")

    @property
    def mb_per_way(self) -> float:
        """Capacity of a single allocation way, MB."""
        return self.capacity_mb / self.ways


@dataclass(frozen=True)
class UpiSpec:
    """Cross-socket interconnect (UPI/QPI) characteristics."""

    #: Effective per-direction bandwidth, GB/s.
    peak_bw_gbps: float = 31.0
    #: Extra demand injected at the home memory controller per byte of
    #: remote traffic (directory/snoop amplification).
    coherence_overhead: float = 0.15
    #: How strongly UPI utilization inflates memory latency on the home
    #: socket; multiplied by the platform's ``remote_sensitivity`` — the
    #: dominant term behind the Cloud TPU platform's Fig 15/16 behaviour.
    latency_injection: float = 0.7


@dataclass(frozen=True)
class PcieSpec:
    """Host-to-accelerator PCIe link."""

    #: Effective bandwidth per direction, GB/s.
    peak_bw_gbps: float = 12.0


@dataclass(frozen=True)
class SocketSpec:
    """One processor package."""

    cores: int = 16
    smt: int = 2
    llc: LlcSpec = field(default_factory=LlcSpec)
    #: One spec per channel group; SNC exposes each as a NUMA subdomain.
    memory_controllers: tuple[MemoryControllerSpec, ...] = field(
        default_factory=lambda: (MemoryControllerSpec(), MemoryControllerSpec())
    )
    #: Fractional core slowdown at 100 % distress (socket-wide throttling
    #: broadcast by a saturated memory controller; Section IV-B).
    backpressure_strength: float = 0.52

    def __post_init__(self) -> None:
        if self.cores <= 0:
            raise ConfigurationError("socket must have cores")
        if not self.memory_controllers:
            raise ConfigurationError(
                "the subdomain model requires at least one channel group "
                "per socket"
            )
        if self.cores < len(self.memory_controllers):
            raise ConfigurationError(
                "socket needs at least one core per channel group "
                f"(cores={self.cores}, channel groups="
                f"{len(self.memory_controllers)})"
            )
        if not 0.0 <= self.backpressure_strength < 1.0:
            raise ConfigurationError("backpressure_strength must be in [0,1)")

    @property
    def peak_bw_gbps(self) -> float:
        """Aggregate socket memory bandwidth, GB/s."""
        return sum(mc.peak_bw_gbps for mc in self.memory_controllers)


@dataclass(frozen=True)
class MachineSpec:
    """A complete dual-socket host."""

    name: str = "generic-host"
    sockets: tuple[SocketSpec, ...] = field(
        default_factory=lambda: (SocketSpec(), SocketSpec())
    )
    upi: UpiSpec = field(default_factory=UpiSpec)
    pcie: PcieSpec = field(default_factory=PcieSpec)
    #: Multiplier on how much cross-socket coherence traffic degrades the
    #: home socket's memory latency (Cloud TPU hosts are notably high).
    remote_sensitivity: float = 1.0
    #: Local-access latency benefit when SNC is enabled: accesses confined to
    #: the local subdomain are this factor faster (paper: "slightly better
    #: than standalone" for CNN1/CNN2 under light pressure).
    snc_local_latency_bonus: float = 0.06
    #: Residual cross-subdomain coupling under SNC: the on-chip mesh and LLC
    #: coherence engine are still shared, so a busy sibling subdomain adds
    #: this much latency factor per unit of its utilization. This is why
    #: subdomains are "almost", not perfectly, isolating even below the
    #: distress threshold.
    mesh_coupling: float = 0.28

    def __post_init__(self) -> None:
        if not self.sockets:
            raise ConfigurationError("machine needs at least one socket")
        if self.remote_sensitivity < 0:
            raise ConfigurationError("remote_sensitivity must be >= 0")

    @property
    def total_cores(self) -> int:
        """Total physical core count across sockets."""
        return sum(s.cores for s in self.sockets)


def tpu_host_spec() -> MachineSpec:
    """Host platform for the first-generation TPU (runs RNN1 inference)."""
    return MachineSpec(name="tpu-host", remote_sensitivity=0.7)


def cloud_tpu_host_spec() -> MachineSpec:
    """Host platform for Cloud TPU (runs CNN1/CNN2 training).

    This platform is the one the paper singles out as unusually sensitive to
    remote memory traffic crossing socket boundaries (Fig 15/16).
    """
    return MachineSpec(name="cloud-tpu-host", remote_sensitivity=2.6)


def gpu_host_spec() -> MachineSpec:
    """Host platform for the GPU trainer (runs CNN3 with parameter servers)."""
    return MachineSpec(name="gpu-host", remote_sensitivity=0.8)
