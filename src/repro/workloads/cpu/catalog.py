"""Registry of low-priority CPU workloads by name.

Experiments refer to CPU workloads by the names the paper uses; the catalog
maps a name plus an intensity knob (instances / threads / level) to a
:class:`~repro.workloads.cpu.base.BatchProfile`.
"""

from __future__ import annotations

from repro.errors import WorkloadError
from repro.workloads.cpu.aggressors import (
    dram_aggressor_profile,
    llc_aggressor_profile,
    remote_dram_profile,
)
from repro.workloads.cpu.base import BatchProfile
from repro.workloads.cpu.cpuml import cpuml_profile
from repro.workloads.cpu.stitch import stitch_profile
from repro.workloads.cpu.stream import stream_profile


#: Workloads whose intensity is a count: Stream threads, Stitch instances,
#: CPUML threads.
_COUNTED = {
    "stream": stream_profile,
    "stitch": stitch_profile,
    "cpuml": cpuml_profile,
}


def cpu_workload_names() -> list[str]:
    """Names accepted by :func:`cpu_workload`."""
    return ["stream", "stitch", "cpuml", "llc", "dram", "remote-dram"]


def cpu_workload(name: str, intensity: int | str = 1) -> BatchProfile:
    """Build a CPU workload profile.

    ``intensity`` means: Stream — thread count; Stitch — instance count;
    CPUML — thread count (each an ``int >= 1``); the DRAM aggressors — the
    level string ("L"/"M"/"H"); the LLC aggressor takes none.
    """
    key = name.lower()
    counted = _COUNTED.get(key)
    if counted is not None:
        # ``type() is int`` keeps a bool from passing as a count.
        if type(intensity) is not int or intensity < 1:
            raise WorkloadError(
                f"CPU workload {name!r} needs an integer intensity >= 1, "
                f"got {intensity!r}"
            )
        return counted(intensity)
    if key == "llc":
        return llc_aggressor_profile()
    if key == "dram":
        return dram_aggressor_profile(str(intensity))
    if key == "remote-dram":
        return remote_dram_profile(str(intensity))
    raise WorkloadError(
        f"unknown CPU workload {name!r}; expected one of {cpu_workload_names()}"
    )
