"""Governors: the decision layer of the control plane.

A :class:`Governor` turns one sensor sample into a
:class:`GovernorDecision` — the actions it chose plus the concrete knob
values the :class:`~repro.control.loop.ControlLoop` should enforce:

* :class:`KelpGovernor` — Algorithm 1 (the THROTTLE/BOOST/NOP comparisons
  per subdomain) plus the Algorithm 2 plan updates. With
  ``manage_cores=False`` (KP-SD) it moves the low-priority prefetchers only:
  a plan update that would change the core count is reverted wholesale
  (the prefetcher move rides along only when cores did not change), and
  the backfill plan never moves.
* :class:`CoreThrottleGovernor` — the CT one-core-at-a-time feedback loop.
  It stays dormant (``decide`` returns ``None``) until :meth:`engage` is
  called with the initial grant, and emits a cpuset mask only on a
  non-NOP tick.
* :class:`MbaGovernor` — the MB%-step feedback loop of the Section VI-D
  MBA configuration; the throttle value is surfaced both as the
  ``lo_prefetchers`` knob slot (the Fig 11/12 encoding) and as an
  ``("mb_percent", …)`` extra.

Governors never touch the machine: every physical write goes through the
:class:`~repro.control.actuators.HostControlPlane` in the loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol

from repro.core.actions import (
    Action,
    HiPriorityPlan,
    LoPriorityPlan,
    config_hi_priority,
    config_lo_priority,
)
from repro.core.measurements import KelpMeasurements
from repro.core.watermarks import QosProfile

if TYPE_CHECKING:
    from repro.node import Node


@dataclass(frozen=True)
class GovernorDecision:
    """One tick's decision: actions taken plus knob values to enforce.

    ``None`` in a knob field means *leave that knob alone this tick* (the
    loop performs no write for it); a non-``None`` value is the desired
    state, which the actuator facade dedupes against what is already in
    effect.
    """

    #: High-priority-subdomain (backfill) decision.
    action_hi: Action
    #: Low-priority-subdomain decision.
    action_lo: Action
    #: Cores granted to low-priority tasks (reported knob value).
    lo_cores: int
    #: Prefetcher-enabled low cores (MBA reuses the slot for its MB%).
    lo_prefetchers: int
    #: Cores granted to backfilled tasks (plan value; the loop records 0
    #: when no backfill tasks are resident).
    backfill_cores: int
    #: Desired cpuset for every low-priority task (``None`` = no write).
    lo_task_mask: frozenset[int] | None = None
    #: Desired cpuset for every backfilled task (``None`` = no write).
    backfill_mask: frozenset[int] | None = None
    #: Desired number of prefetcher-enabled low cores (``None`` = no write).
    prefetcher_count: int | None = None
    #: Desired ``(clos, percent)`` MBA throttle (``None`` = no write).
    mb_percent: tuple[int, int] | None = None
    #: Policy-specific knob values copied onto the tick record.
    extra: tuple[tuple[str, float], ...] = ()


class Governor(Protocol):
    """Anything that can turn a measurement sample into a decision."""

    def decide(self, m: KelpMeasurements) -> GovernorDecision | None:
        """Decide on one sample; ``None`` = not engaged, skip this tick."""
        ...


class KelpGovernor:
    """Algorithm 1/2: the Kelp decision kernel for one node.

    Holds the two resource plans (:class:`HiPriorityPlan` for backfill,
    :class:`LoPriorityPlan` for the low subdomain) and updates them via the
    Algorithm 2 procedures each tick, comparing every sample against
    ``profile``. ``manage_cores`` selects full Kelp (cores, backfill and
    prefetchers) or KP-SD (prefetchers only). To retarget a running loop,
    swap in a new governor through
    :attr:`~repro.control.loop.ControlLoop.governor`.
    """

    def __init__(
        self, node: "Node", profile: QosProfile, manage_cores: bool = True
    ) -> None:
        self._node = node
        self.profile = profile
        self.manage_cores = manage_cores
        lo_cores = len(node.lo_subdomain_cores())
        self._hi_plan = HiPriorityPlan(
            core_num=profile.max_backfill_cores,
            min_core_num=profile.min_backfill_cores,
            max_core_num=profile.max_backfill_cores,
        )
        self._lo_plan = LoPriorityPlan(
            core_num=lo_cores,
            prefetcher_num=lo_cores,
            min_core_num=profile.min_lo_cores,
            max_core_num=lo_cores,
        )

    # ------------------------------------------------------------ access
    @property
    def hi_plan(self) -> HiPriorityPlan:
        """Current backfill resource plan."""
        return self._hi_plan

    @property
    def lo_plan(self) -> LoPriorityPlan:
        """Current low-priority resource plan."""
        return self._lo_plan

    # ------------------------------------------------------------ decide
    def decide(self, m: KelpMeasurements) -> GovernorDecision:
        """One pass of Algorithm 1: decide actions, update plans."""
        action_hi, action_lo = self._actions(m)
        self._hi_plan, self._lo_plan = self._next_plans(action_hi, action_lo)

        lo_task_mask: frozenset[int] | None = None
        backfill_mask: frozenset[int] | None = None
        if self.manage_cores:
            lo_task_mask = frozenset(
                self._node.lo_subdomain_cores()[: self._lo_plan.core_num]
            )
            if self._node.backfill_tasks:
                # Backfill occupies the *highest* hi-subdomain core ids so
                # the ML task keeps the lowest ones; a plan throttled to zero
                # cores must yield an *empty* cpuset (parked tasks), not a
                # lingering one-core mask stealing hi-subdomain bandwidth.
                spare = list(self._node.hi_subdomain_cores())
                count = self._hi_plan.core_num
                backfill_mask = (
                    frozenset(spare[-count:]) if count > 0 else frozenset()
                )

        return GovernorDecision(
            action_hi=action_hi,
            action_lo=action_lo,
            lo_cores=self._lo_plan.core_num,
            lo_prefetchers=self._lo_plan.prefetcher_num,
            backfill_cores=self._hi_plan.core_num,
            lo_task_mask=lo_task_mask,
            backfill_mask=backfill_mask,
            prefetcher_count=self._lo_plan.prefetcher_num,
        )

    def steady(
        self, m: KelpMeasurements, error: KelpMeasurements
    ) -> GovernorDecision | None:
        """The decision every sample near ``m`` would repeat.

        A sample is near ``m`` when each field is within the matching
        field of ``error``. Returns the actions and knob values
        :meth:`decide` would report for such a sample, without changing
        any state, when no watermark is that near and both plans come back
        as the same objects. Otherwise None: a sample near ``m`` could
        change a plan.
        """
        profile = self.profile
        if not (
            profile.hipri_bw.clears(m.hipri_bw, error.hipri_bw)
            and profile.socket_latency.clears(m.socket_latency, error.socket_latency)
            and profile.socket_bw.clears(m.socket_bw, error.socket_bw)
            and profile.saturation.clears(m.saturation, error.saturation)
        ):
            return None
        action_hi, action_lo = self._actions(m)
        hi_plan, lo_plan = self._next_plans(action_hi, action_lo)
        if hi_plan is not self._hi_plan or lo_plan is not self._lo_plan:
            return None
        return GovernorDecision(
            action_hi=action_hi,
            action_lo=action_lo,
            lo_cores=lo_plan.core_num,
            lo_prefetchers=lo_plan.prefetcher_num,
            backfill_cores=hi_plan.core_num,
        )

    def _actions(self, m: KelpMeasurements) -> tuple[Action, Action]:
        """Algorithm 1's comparisons: the (hi, lo) subdomain actions."""
        profile = self.profile

        # Lines 4-9: high-priority-subdomain (backfill) decision.
        if profile.hipri_bw.above(m.hipri_bw) or profile.socket_latency.above(
            m.socket_latency
        ):
            action_hi = Action.THROTTLE
        elif profile.hipri_bw.below(m.hipri_bw) and profile.socket_latency.below(
            m.socket_latency
        ):
            action_hi = Action.BOOST
        else:
            action_hi = Action.NOP

        # Lines 10-15: low-priority-subdomain decision.
        if (
            profile.socket_bw.above(m.socket_bw)
            or profile.socket_latency.above(m.socket_latency)
            or profile.saturation.above(m.saturation)
        ):
            action_lo = Action.THROTTLE
        elif (
            profile.socket_bw.below(m.socket_bw)
            and profile.socket_latency.below(m.socket_latency)
            and profile.saturation.below(m.saturation)
        ):
            action_lo = Action.BOOST
        else:
            action_lo = Action.NOP
        return action_hi, action_lo

    def _next_plans(
        self, action_hi: Action, action_lo: Action
    ) -> tuple[HiPriorityPlan, LoPriorityPlan]:
        """Lines 16-18: Algorithm 2 plan updates, gated by ``manage_cores``."""
        new_lo = config_lo_priority(self._lo_plan, action_lo)
        if self.manage_cores:
            return config_hi_priority(self._hi_plan, action_hi), new_lo
        if new_lo.core_num != self._lo_plan.core_num:
            new_lo = self._lo_plan  # cores frozen; prefetcher move only
        return self._hi_plan, new_lo


class CoreThrottleGovernor:
    """CT: reactive one-core-at-a-time throttling of the low tasks.

    Dormant until :meth:`engage` supplies the initial core grant (the CT
    policy engages it from ``plan_cpu``); while dormant the loop still
    samples, so the perf window keeps the tick cadence, but records nothing.
    """

    def __init__(self, node: "Node", profile: QosProfile, ml_cores: int) -> None:
        self._node = node
        self.profile = profile
        self._ml_cores = ml_cores
        self._lo_cores: int | None = None

    def engage(self, cores: int) -> None:
        """Arm the controller with the current low-task core grant."""
        self._lo_cores = cores

    @property
    def lo_cores(self) -> int | None:
        """The current grant (``None`` while dormant)."""
        return self._lo_cores

    def _spare(self) -> tuple[int, ...]:
        return self._node.accel_socket_cores()[self._ml_cores:]

    def decide(self, m: KelpMeasurements) -> GovernorDecision | None:
        """One CT feedback step; ``None`` until engaged."""
        if self._lo_cores is None:
            return None
        profile = self.profile
        spare = self._spare()
        if profile.socket_bw.above(m.socket_bw) or profile.socket_latency.above(
            m.socket_latency
        ):
            action = Action.THROTTLE
            self._lo_cores = max(1, self._lo_cores - 1)
        elif profile.socket_bw.below(m.socket_bw) and profile.socket_latency.below(
            m.socket_latency
        ):
            action = Action.BOOST
            self._lo_cores = min(len(spare), self._lo_cores + 1)
        else:
            action = Action.NOP
        mask: frozenset[int] | None = None
        if action is not Action.NOP:
            mask = frozenset(spare[: self._lo_cores])
        return GovernorDecision(
            action_hi=Action.NOP,
            action_lo=action,
            lo_cores=self._lo_cores,
            lo_prefetchers=self._lo_cores,
            backfill_cores=0,
            lo_task_mask=mask,
        )


#: resctrl class of service holding the MBA-throttled low-priority tasks.
LO_CLOS = 2
#: MBA exposes coarse steps; we use 10 % granularity like real hardware.
MBA_STEP = 10
MBA_MIN = 10
MBA_MAX = 100


class MbaGovernor:
    """MBA: feedback control over the ``LO_CLOS`` memory-bandwidth throttle.

    Steps the MB% cap down by ``MBA_STEP`` under bandwidth/latency pressure
    and back up when both clear, within ``[MBA_MIN, MBA_MAX]``. The cap is
    emitted as a knob write only on a non-NOP tick; the
    actuator facade's read-back dedup additionally drops re-writes of a
    value already in effect at the clamp bounds.
    """

    def __init__(self, node: "Node", profile: QosProfile, ml_cores: int) -> None:
        self._node = node
        self.profile = profile
        self._ml_cores = ml_cores
        self.mb_percent = MBA_MAX

    def decide(self, m: KelpMeasurements) -> GovernorDecision:
        """One MBA feedback step."""
        profile = self.profile
        if profile.socket_bw.above(m.socket_bw) or profile.socket_latency.above(
            m.socket_latency
        ):
            action = Action.THROTTLE
            self.mb_percent = max(MBA_MIN, self.mb_percent - MBA_STEP)
        elif profile.socket_bw.below(m.socket_bw) and profile.socket_latency.below(
            m.socket_latency
        ):
            action = Action.BOOST
            self.mb_percent = min(MBA_MAX, self.mb_percent + MBA_STEP)
        else:
            action = Action.NOP
        spare = len(self._node.accel_socket_cores()[self._ml_cores:])
        return GovernorDecision(
            action_hi=Action.NOP,
            action_lo=action,
            lo_cores=spare,
            # Report the throttle as the raw knob in the prefetcher slot's
            # units (the Fig 11/12 encoding), and by name too.
            lo_prefetchers=self.mb_percent,
            backfill_cores=0,
            mb_percent=(
                (LO_CLOS, self.mb_percent)
                if action is not Action.NOP
                else None
            ),
            extra=(("mb_percent", float(self.mb_percent)),),
        )
