"""resctrl filesystem: CAT way masks and MBA throttling per class of service.

Kelp dedicates an LLC partition to the accelerated task through Intel Cache
Allocation Technology; the Section VI-D hardware-QoS estimate additionally
uses Memory Bandwidth Allocation-style request throttling. Both are exposed
the way resctrl does: per-CLOS ``L3`` bitmasks and ``MB`` percentages.
"""

from __future__ import annotations

from repro.errors import HostInterfaceError
from repro.hostif.cpuset import PlaceableTask
from repro.hw.llc import full_mask
from repro.hw.machine import Machine


class ResctrlFs:
    """Per-machine resctrl state: CLOS groups with L3 masks and MB caps."""

    def __init__(self, machine: Machine) -> None:
        self._machine = machine
        self._groups: set[int] = {0}

    @property
    def groups(self) -> set[int]:
        """Currently-defined classes of service."""
        return set(self._groups)

    def create_group(self, clos: int) -> None:
        """Define a new class of service (idempotent)."""
        if clos < 0:
            raise HostInterfaceError("clos must be non-negative")
        self._groups.add(clos)

    def set_l3_mask(self, clos: int, mask: int, socket: int | None = None) -> None:
        """Set the CAT way mask for ``clos`` (all sockets unless specified)."""
        self._require_group(clos)
        sockets = (
            [socket]
            if socket is not None
            else list(range(self._machine.topology.num_sockets))
        )
        for socket_id in sockets:
            self._machine.llcs[socket_id].set_clos_mask(clos, mask)
        self._machine.notify_change()

    def l3_mask(self, clos: int, socket: int = 0) -> int:
        """Read the way mask of ``clos`` on ``socket``."""
        self._require_group(clos)
        return self._machine.llcs[socket].clos_mask(clos)

    def mb_percent(self, clos: int) -> int | None:
        """Read back the MB% cap of ``clos`` (``None`` when uncapped)."""
        self._require_group(clos)
        cap = self._machine.solver.mba_caps.get(clos)
        return None if cap is None else round(cap * 100)

    def set_mb_percent(self, clos: int, percent: int) -> None:
        """Set MBA throttling: cap the CLOS's offered demand at ``percent``.

        Real MBA exposes coarse steps (10–100 %); we validate the same range.
        """
        self._require_group(clos)
        if not 10 <= percent <= 100:
            raise HostInterfaceError("MB percent must be within [10, 100]")
        self._machine.solver.set_mba_cap(clos, percent / 100.0)
        self._machine.notify_change()

    def assign(self, task: PlaceableTask, clos: int) -> None:
        """Move a task into a class of service."""
        self._require_group(clos)
        if task.placement.clos != clos:
            task.set_placement(task.placement.with_clos(clos))

    def dedicate_ways(self, clos: int, ways: int, socket: int | None = None) -> None:
        """Give ``clos`` an exclusive partition of the lowest ``ways`` ways
        and shrink CLOS 0 (the default group) to the remainder.

        This is the CAT setup the paper uses: the ML task gets a dedicated
        partition; everything else shares what is left.
        """
        self._require_group(clos)
        spec = self._machine.spec.sockets[0].llc
        if not 0 < ways < spec.ways:
            raise HostInterfaceError(
                f"dedicated ways must be within (0, {spec.ways})"
            )
        exclusive = (1 << ways) - 1
        rest = full_mask(spec) & ~exclusive
        self.set_l3_mask(clos, exclusive, socket)
        self.set_l3_mask(0, rest, socket)

    def reset(self) -> None:
        """Return every socket's LLC to the default single-group state."""
        for llc in self._machine.llcs.values():
            llc.reset()
        solver = self._machine.solver
        for clos in list(solver.mba_caps):
            solver.set_mba_cap(clos, None)
        self._groups = {0}
        self._machine.notify_change()

    def _require_group(self, clos: int) -> None:
        if clos not in self._groups:
            raise HostInterfaceError(f"clos {clos} does not exist; create it first")
