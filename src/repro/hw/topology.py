"""Core / socket / NUMA-subdomain topology queries.

Numbering conventions used throughout the library:

* **Cores** are numbered globally in socket order: socket ``s`` owns the
  contiguous id range starting after the preceding sockets' cores.
* **Subdomains** (== channel groups == memory controllers) are numbered
  globally in socket order: socket ``s`` owns the contiguous id range
  starting at the sum of the preceding sockets' channel-group counts. With
  the standard dual-socket / two-channel-group presets this reduces to the
  familiar ``{2s, 2s + 1}``. These ids double as NUMA node ids when SNC is
  enabled.
* When SNC is **off**, the OS-visible NUMA nodes are the sockets, and memory
  bound to a socket interleaves across all of its subdomain controllers.
  The library always routes traffic in terms of subdomain ids; binding to a
  socket simply means equal weights across its subdomains.

All subdomain/controller indexing in the library flows through this class —
nothing else is allowed to hard-code the ``2s + local`` arithmetic, so hosts
with one, two, or more channel groups per socket index consistently.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import TopologyError
from repro.hw.spec import MachineSpec


@dataclass(frozen=True)
class Topology:
    """Derived topology facts for a :class:`~repro.hw.spec.MachineSpec`.

    The spec is immutable, so every mapping below is precomputed once in
    ``__post_init__`` and each query is a table lookup. This matters: the
    per-tick measurement path (perf reads on every node of a fleet, every
    control interval) goes through these queries millions of times in a
    day-long 256-node replay.
    """

    spec: MachineSpec

    def __post_init__(self) -> None:
        sockets = self.spec.sockets
        first_core, first_sub = [], []
        core_base = sub_base = 0
        for socket in sockets:
            first_core.append(core_base)
            first_sub.append(sub_base)
            core_base += socket.cores
            sub_base += len(socket.memory_controllers)
        subs_of_socket = tuple(
            tuple(
                range(first_sub[s], first_sub[s] + len(sockets[s].memory_controllers))
            )
            for s in range(len(sockets))
        )
        cores_of_socket = tuple(
            tuple(range(first_core[s], first_core[s] + sockets[s].cores))
            for s in range(len(sockets))
        )
        socket_of_sub, cores_of_sub = [], []
        for s, socket in enumerate(sockets):
            cores = cores_of_socket[s]
            groups = len(socket.memory_controllers)
            for local in range(groups):
                socket_of_sub.append(s)
                lo = (local * len(cores)) // groups
                hi = ((local + 1) * len(cores)) // groups
                cores_of_sub.append(cores[lo:hi])
        socket_of_core = [
            s for s in range(len(sockets)) for _ in range(sockets[s].cores)
        ]
        sub_of_core = [
            sub for sub, cores in enumerate(cores_of_sub) for _ in cores
        ]
        # ``object.__setattr__``: the dataclass is frozen, the caches are not.
        set_ = object.__setattr__
        set_(self, "_first_core", tuple(first_core))
        set_(self, "_first_subdomain", tuple(first_sub))
        set_(self, "_subdomains_of_socket", subs_of_socket)
        set_(self, "_cores_of_socket", cores_of_socket)
        set_(self, "_socket_of_subdomain", tuple(socket_of_sub))
        set_(self, "_cores_of_subdomain", tuple(cores_of_sub))
        set_(self, "_socket_of_core", tuple(socket_of_core))
        set_(self, "_subdomain_of_core", tuple(sub_of_core))
        set_(self, "_num_sockets", len(sockets))
        set_(self, "_num_subdomains", sub_base)

    # ----------------------------------------------------------- sockets
    @property
    def num_sockets(self) -> int:
        """Number of processor packages."""
        return self._num_sockets

    @property
    def num_subdomains(self) -> int:
        """Total channel groups across all sockets."""
        return self._num_subdomains

    # -------------------------------------------------------------- cores
    def socket_of_core(self, core: int) -> int:
        """Socket owning global core id ``core``."""
        if not 0 <= core < len(self._socket_of_core):
            raise TopologyError(f"core {core} out of range")
        return self._socket_of_core[core]

    def subdomain_of_core(self, core: int) -> int:
        """Subdomain owning ``core``.

        A socket's cores are split into contiguous, near-equal chunks, one
        per channel group, in subdomain-id order (for the two-group presets:
        lower half of a socket's cores belong to its even subdomain, upper
        half to the odd one).
        """
        if not 0 <= core < len(self._subdomain_of_core):
            raise TopologyError(f"core {core} out of range")
        return self._subdomain_of_core[core]

    def first_core(self, socket: int) -> int:
        """Global id of the first core on ``socket``."""
        self._check_socket(socket)
        return self._first_core[socket]

    def cores_of_socket(self, socket: int) -> tuple[int, ...]:
        """All global core ids on ``socket``."""
        self._check_socket(socket)
        return self._cores_of_socket[socket]

    def cores_of_subdomain(self, subdomain: int) -> tuple[int, ...]:
        """All global core ids in ``subdomain``."""
        self._check_subdomain(subdomain)
        return self._cores_of_subdomain[subdomain]

    # --------------------------------------------------------- subdomains
    def socket_of_subdomain(self, subdomain: int) -> int:
        """Socket owning ``subdomain``."""
        self._check_subdomain(subdomain)
        return self._socket_of_subdomain[subdomain]

    def subdomains_of_socket(self, socket: int) -> tuple[int, ...]:
        """The subdomain ids of ``socket`` (ascending)."""
        self._check_socket(socket)
        return self._subdomains_of_socket[socket]

    def sibling_subdomains(self, subdomain: int) -> tuple[int, ...]:
        """The other subdomains sharing ``subdomain``'s socket.

        These share the on-chip mesh and LLC coherence engine, which is what
        the residual ``mesh_coupling`` term in the solver models.
        """
        socket = self.socket_of_subdomain(subdomain)
        return tuple(
            s for s in self._subdomains_of_socket[socket] if s != subdomain
        )

    def mc_ids(self) -> tuple[int, ...]:
        """All global memory-controller (subdomain) ids, ascending."""
        return tuple(range(self._num_subdomains))

    def mc_spec_of_subdomain(self, subdomain: int):
        """The :class:`~repro.hw.spec.MemoryControllerSpec` of ``subdomain``."""
        socket = self.socket_of_subdomain(subdomain)
        local = subdomain - self._first_subdomain[socket]
        return self.spec.sockets[socket].memory_controllers[local]

    def socket_memory_weights(self, socket: int) -> dict[int, float]:
        """Interleaved routing weights for memory bound to a whole socket."""
        subdomains = self.subdomains_of_socket(socket)
        weight = 1.0 / len(subdomains)
        return {s: weight for s in subdomains}

    # ------------------------------------------------------------ helpers
    def _check_socket(self, socket: int) -> None:
        if not 0 <= socket < self._num_sockets:
            raise TopologyError(f"socket {socket} out of range")

    def _check_subdomain(self, subdomain: int) -> None:
        if not 0 <= subdomain < self._num_subdomains:
            raise TopologyError(f"subdomain {subdomain} out of range")
