"""Synthetic fleet memory-bandwidth survey (Fig 2).

Figure 2 plots, for one server generation over one day, the CDF of each
machine's 99 %-ile memory-bandwidth utilization; 16 % of machines exceed
70 % of peak — the motivation that bandwidth saturation is widespread. We
regenerate the curve from a generative model: each machine draws a base
utilization from the fleet mix, rides a diurnal swing, and suffers random
load bursts; the 99 %-ile of its day of samples lands on the CDF.

The survey is organized in fixed *blocks* of machines, each seeded from
``SeedSequence((survey.seed, block_index))``. Block boundaries do not move
with the worker count, so the survey produces bit-identical results whether
it runs serially or fanned out over a process pool (``jobs`` > 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.parallel import run_points

#: Machines per independently seeded block (fixed: results must not depend
#: on the worker count).
FLEET_BLOCK_MACHINES = 256


@dataclass(frozen=True)
class FleetSurvey:
    """Parameters of the fleet generative model."""

    machines: int = 1000
    #: Samples per machine over the profiled day (one per ~86 s).
    samples_per_machine: int = 1000
    #: Beta-distribution shape of per-machine mean utilization.
    base_alpha: float = 2.0
    base_beta: float = 4.0
    #: Amplitude of the diurnal swing (fraction of peak).
    diurnal_amplitude: float = 0.10
    #: Probability a sample is a burst, and the burst magnitude scale.
    burst_probability: float = 0.02
    burst_scale: float = 0.18
    seed: int = 42

    def __post_init__(self) -> None:
        if self.machines <= 0 or self.samples_per_machine <= 0:
            raise ConfigurationError("machines and samples must be positive")

    def num_blocks(self) -> int:
        """How many fixed-size machine blocks the survey spans."""
        return -(-self.machines // FLEET_BLOCK_MACHINES)

    def machine_p99(self, jobs: int = 1) -> np.ndarray:
        """Per-machine 99 %-ile utilization for the whole fleet, in [0, 1].

        ``jobs`` > 1 evaluates the seed-blocks on a process pool; the block
        seeding makes the result independent of the worker count.
        """
        points = [(self, block) for block in range(self.num_blocks())]
        parts = run_points(_block_p99, points, jobs=jobs, base_seed=self.seed)
        return np.concatenate(parts) if parts else np.empty(0)


def _block_p99(point: tuple[FleetSurvey, int]) -> np.ndarray:
    """The p99 vector of one machine block (runs inside pool workers)."""
    survey, block = point
    lo = block * FLEET_BLOCK_MACHINES
    count = min(FLEET_BLOCK_MACHINES, survey.machines - lo)
    rng = np.random.default_rng(np.random.SeedSequence((survey.seed, block)))
    base = rng.beta(survey.base_alpha, survey.base_beta, size=count)
    phase = rng.uniform(0, 2 * np.pi, size=count)
    t = np.linspace(0, 2 * np.pi, survey.samples_per_machine)
    # machines x samples utilization matrix
    diurnal = survey.diurnal_amplitude * np.sin(t[None, :] + phase[:, None])
    noise = rng.normal(0.0, 0.03, size=(count, survey.samples_per_machine))
    bursts = rng.random((count, survey.samples_per_machine))
    burst_term = np.where(
        bursts < survey.burst_probability,
        rng.exponential(
            survey.burst_scale, size=(count, survey.samples_per_machine)
        ),
        0.0,
    )
    usage = np.clip(base[:, None] + diurnal + noise + burst_term, 0.0, 1.0)
    return np.percentile(usage, 99, axis=1)


@dataclass(frozen=True)
class FleetCdf:
    """The Fig 2 curve: fraction of machines at or below each utilization."""

    utilization: np.ndarray
    fraction_of_machines: np.ndarray
    #: The paper's headline statistic: share of machines whose 99 %-ile
    #: bandwidth exceeds 70 % of peak.
    fraction_above_70pct: float = field(default=0.0)


def fleet_bandwidth_cdf(
    survey: FleetSurvey | None = None, jobs: int = 1
) -> FleetCdf:
    """Regenerate the Fig 2 CDF from the fleet model."""
    survey = survey if survey is not None else FleetSurvey()
    p99 = np.sort(survey.machine_p99(jobs=jobs))
    fraction = np.arange(1, len(p99) + 1) / len(p99)
    above = float(np.mean(p99 > 0.70))
    return FleetCdf(
        utilization=p99, fraction_of_machines=fraction, fraction_above_70pct=above
    )
