"""A managed node: machine + host control interfaces + task bookkeeping.

The :class:`Node` is what an isolation policy manipulates — it bundles the
hardware model with the simulated kernel surfaces (perf, MSR, cpuset,
resctrl, numactl) and tracks which tasks play which role (the high-priority
ML task, low-priority CPU tasks, and any backfilled CPU tasks in the
high-priority subdomain).

Which socket hosts the accelerator — and which of that socket's subdomains
is dedicated to the high-priority task — are per-node fields, so a
heterogeneous fleet can mix nodes whose accelerators hang off either socket.
The module-level constants below remain as the defaults (socket 0, its first
subdomain high, its second low), which is what every single-node experiment
uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.hostif.cpuset import CpusetController, PlaceableTask
from repro.hostif.msr import MsrInterface
from repro.hostif.numactl import NumaPolicy
from repro.hostif.perf import PerfCounters
from repro.hostif.resctrl import ResctrlFs
from repro.hw.machine import Machine
from repro.hw.spec import MachineSpec
from repro.sim import Simulator

#: Default socket hosting the accelerator and therefore the experiments.
ACCEL_SOCKET = 0
#: Default subdomain Kelp dedicates to the high-priority ML task.
HI_SUBDOMAIN = 0
#: Default subdomain Kelp assigns to low-priority CPU tasks.
LO_SUBDOMAIN = 1


@dataclass
class Node:
    """One accelerated server under runtime management."""

    machine: Machine
    msr: MsrInterface
    cpuset: CpusetController
    resctrl: ResctrlFs
    numa: NumaPolicy
    perf: PerfCounters
    #: Low-priority tasks living in the low-priority subdomain (or anywhere,
    #: for policies without subdomains).
    lo_tasks: list[PlaceableTask] = field(default_factory=list)
    #: Low-priority tasks backfilled into the high-priority subdomain.
    backfill_tasks: list[PlaceableTask] = field(default_factory=list)
    #: The socket hosting this node's accelerator.
    accel_socket: int = ACCEL_SOCKET
    #: The subdomain dedicated to the high-priority ML task.
    hi_subdomain: int = HI_SUBDOMAIN
    #: The subdomain assigned to low-priority CPU tasks.
    lo_subdomain: int = LO_SUBDOMAIN

    @classmethod
    def create(
        cls,
        spec: MachineSpec,
        sim: Simulator,
        accel_socket: int = ACCEL_SOCKET,
    ) -> "Node":
        """Assemble a node with all host interfaces over a fresh machine.

        ``accel_socket`` selects which socket hosts the accelerator; the
        high- and low-priority subdomains are that socket's first and last.
        """
        machine = Machine(spec, sim)
        topo = machine.topology
        if not 0 <= accel_socket < topo.num_sockets:
            raise ConfigurationError(
                f"accel_socket {accel_socket} out of range "
                f"(machine has {topo.num_sockets} sockets)"
            )
        subdomains = topo.subdomains_of_socket(accel_socket)
        return cls(
            machine=machine,
            msr=MsrInterface(machine),
            cpuset=CpusetController(machine),
            resctrl=ResctrlFs(machine),
            numa=NumaPolicy(machine),
            perf=PerfCounters(machine),
            accel_socket=accel_socket,
            hi_subdomain=subdomains[0],
            lo_subdomain=subdomains[-1],
        )

    @property
    def sim(self) -> Simulator:
        """The simulator this node lives in."""
        return self.machine.sim

    # ------------------------------------------------------------ topology
    def accel_socket_cores(self) -> tuple[int, ...]:
        """All cores of the accelerator-local socket."""
        return self.machine.topology.cores_of_socket(self.accel_socket)

    def hi_subdomain_cores(self) -> tuple[int, ...]:
        """Cores of the high-priority subdomain."""
        return self.machine.topology.cores_of_subdomain(self.hi_subdomain)

    def lo_subdomain_cores(self) -> tuple[int, ...]:
        """Cores of the low-priority subdomain."""
        return self.machine.topology.cores_of_subdomain(self.lo_subdomain)

    # -------------------------------------------------------- prefetchers
    def lo_prefetchers_enabled(self) -> int:
        """Cores among the low-priority subdomain with prefetching on.

        Read-only: *writing* prefetcher state goes through the journaled
        :class:`~repro.control.actuators.HostControlPlane` facade (the old
        ``set_lo_prefetchers_enabled`` convenience bypass was removed with
        the control-plane refactor).
        """
        return sum(
            1
            for core in self.lo_subdomain_cores()
            if self.machine.prefetchers.is_enabled(core)
        )
