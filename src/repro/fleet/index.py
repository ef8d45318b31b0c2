"""Incremental routing indexes: argmin-over-members without the O(N) scan.

``LeastLoadedRouter`` and ``InterferenceAwareRouter`` are pure argmin
selectors: ``min(members, key=...)`` with a key that changes only at
discrete, observable member events (a request admitted or completed, a
fresh telemetry sample, a death/restart, a rotation flip). At 4 nodes the
scan is cheap; at 256 nodes it is the dominant per-arrival cost of a
day-long trace replay. :class:`RoutingIndex` replaces the scan with a
versioned lazy-discard heap that is *provably choice-identical*:

* **Entries** are ``(key(member), member.index, version)``. The key tuple
  already ends in ``member.index``, so entries are totally ordered and the
  heap minimum is exactly the member the scan's ``min`` would return —
  including ties, which both break on the lowest index.
* **Dirty marking** (:meth:`mark_dirty`) bumps the member's version and
  eagerly pushes a fresh entry; stale entries stay behind and are discarded
  lazily when they surface at the top of the heap. Every event that can
  change a member's key must mark it dirty — :class:`~repro.fleet.member.
  FleetMember` routes all such events through its ``on_state_change``
  callback (admission, completion, sample, death, restart, blackout, and
  rotation flips via the ``in_rotation`` property), so even traffic that
  bypasses the fleet router (the incident engine's intruder tenant submits
  straight to the member) keeps the index coherent.
* **Rotation** is checked live at :meth:`choose` time: out-of-rotation
  members are skipped *and dropped* from the heap; flipping
  ``member.in_rotation`` back on marks the member dirty, which re-inserts
  it. A silently *dead* member is deliberately not skipped — it stays in
  rotation with its load frozen at the death instant, which is precisely
  what makes it a traffic magnet under least-loaded routing (the scan
  behaves identically).
* **Compaction**: the heap is rebuilt from live state whenever discarded
  garbage would otherwise dominate, bounding memory at O(members).

The index is an internal accelerator for the orchestrator's admission
path; the ``Router`` objects themselves are unchanged, and the orchestrator
falls back to the scan whenever ``orchestrator.router`` is no longer the
exact router the index was built for (e.g. the incident engine wrapping it
in a null-routing misconfiguration). Reference mode (``REPRO_REFERENCE=1``,
see :mod:`repro.reference`) builds no index and forces the reference scan.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Callable, Sequence

from repro.fleet.routing import (
    InterferenceAwareRouter,
    LeastLoadedRouter,
    Router,
)
from repro.reference import reference_mode

if TYPE_CHECKING:
    from repro.fleet.member import FleetMember


class RoutingIndex:
    """A versioned eager-push / lazy-discard heap over fleet members."""

    def __init__(
        self,
        members: Sequence["FleetMember"],
        key: Callable[["FleetMember"], tuple],
        load_only: bool,
    ) -> None:
        self._members = members
        self._key = key
        #: Keys that ignore telemetry can skip per-sample dirty marks.
        self._load_only = load_only
        self._version = [0] * len(members)
        self._heap: list[tuple[tuple, int, int]] = [
            (key(member), member.index, 0) for member in members
        ]
        heapq.heapify(self._heap)
        self._compact_at = 4 * len(members) + 64

    def mark_dirty(self, member: "FleetMember") -> None:
        """Re-key one member after an event that may have changed its key."""
        version = self._version[member.index] + 1
        self._version[member.index] = version
        heapq.heappush(self._heap, (self._key(member), member.index, version))
        if len(self._heap) > self._compact_at:
            self._compact()

    def on_member_event(self, member: "FleetMember", kind: str) -> None:
        """The :attr:`FleetMember.on_state_change` entry point.

        ``kind`` is ``"load"`` (admission/completion/lifecycle),
        ``"signals"`` (a fresh telemetry sample) or ``"rotation"``. A
        load-only key is invariant under telemetry samples, so those marks
        are skipped — at fleet scale that is one heap push per member-tick
        saved.
        """
        if kind == "signals" and self._load_only:
            return
        self.mark_dirty(member)

    def choose(self) -> "FleetMember | None":
        """The in-rotation member with the minimal current key, or None.

        Identical to ``min((m for m in members if m.in_rotation),
        key=self._key)`` (ties to the lowest index) — the golden- and
        property-equivalence tests pin this against the reference scan.
        """
        heap = self._heap
        version = self._version
        members = self._members
        while heap:
            _, index, entry_version = heap[0]
            if entry_version != version[index]:
                heapq.heappop(heap)  # superseded by a dirtier entry
                continue
            member = members[index]
            if not member.in_rotation:
                # Dropped from the heap; the in_rotation setter marks the
                # member dirty when it rejoins, re-inserting it.
                heapq.heappop(heap)
                continue
            return member
        return None

    def _compact(self) -> None:
        """Rebuild the heap from live state, discarding stale garbage."""
        version = self._version
        self._heap = [
            (self._key(member), member.index, version[member.index])
            for member in self._members
            if member.in_rotation
        ]
        heapq.heapify(self._heap)


def make_routing_index(
    router: Router, members: Sequence["FleetMember"]
) -> RoutingIndex | None:
    """An index matching ``router``'s key, or None for unindexable routers.

    Only the two deterministic argmin strategies are indexable; the random
    router draws from its RNG stream and keeps the reference path, as does
    every router in reference mode.
    """
    if reference_mode():
        return None
    if isinstance(router, LeastLoadedRouter):
        return RoutingIndex(members, router._key, load_only=True)
    if isinstance(router, InterferenceAwareRouter):
        return RoutingIndex(members, router._key, load_only=False)
    return None
