"""repro — a full reproduction of *Kelp: QoS for Accelerated Machine
Learning Systems* (HPCA 2019) on a simulated substrate.

The library layers, bottom to top:

* :mod:`repro.sim` — fluid discrete-event engine.
* :mod:`repro.hw` — the dual-socket host model: memory controllers, NUMA
  subdomains (SNC/CoD), LLC + CAT, prefetchers, distress backpressure, UPI.
* :mod:`repro.accel` — TPU / Cloud TPU / GPU device models and PCIe.
* :mod:`repro.hostif` — simulated Linux control surfaces (perf, MSR,
  cpusets, resctrl, numactl).
* :mod:`repro.workloads` — the four accelerated workloads (RNN1, CNN1,
  CNN2, CNN3) and the CPU workloads/antagonists (Stream, Stitch, CPUML,
  LLC/DRAM/Remote-DRAM).
* :mod:`repro.core` — **Kelp itself**: Algorithm 2, watermark profiles,
  and the evaluated policies (BL, CT, KP-SD, KP, HW-QOS, MBA, HW-PF).
* :mod:`repro.control` — the node control loop every adaptive policy runs:
  sensors, the governors (Algorithm 1 is ``KelpGovernor``) and actuators.
* :mod:`repro.experiments` — one driver per paper figure/table.

Quickstart::

    from repro import MixConfig, run_colocation

    result = run_colocation(
        MixConfig(ml="cnn1", policy="KP", cpu="stitch", intensity=4)
    )
    print(result.ml_perf_norm, result.cpu_throughput)
"""

from repro.core import available_policies, make_policy
from repro.core.watermarks import QosProfile, Watermark, default_profile
from repro.node import Node
from repro.errors import ReproError
from repro.experiments.common import (
    ColocationResult,
    MixConfig,
    run_colocation,
    standalone_performance,
)
from repro.experiments.registry import experiment_ids, run_experiment
from repro.hw import Machine, Placement
from repro.obs import ObsConfig, RunObserver
from repro.hw.spec import (
    MachineSpec,
    cloud_tpu_host_spec,
    gpu_host_spec,
    tpu_host_spec,
)
from repro.sim import Simulator
from repro.version import __version__
from repro.workloads import (
    cpu_workload,
    cpu_workload_names,
    ml_workload,
    ml_workload_names,
)

__all__ = [
    "ColocationResult",
    "Machine",
    "MachineSpec",
    "MixConfig",
    "Node",
    "ObsConfig",
    "Placement",
    "QosProfile",
    "ReproError",
    "RunObserver",
    "Simulator",
    "Watermark",
    "__version__",
    "available_policies",
    "cloud_tpu_host_spec",
    "cpu_workload",
    "cpu_workload_names",
    "default_profile",
    "experiment_ids",
    "gpu_host_spec",
    "make_policy",
    "ml_workload",
    "ml_workload_names",
    "run_colocation",
    "run_experiment",
    "standalone_performance",
    "tpu_host_spec",
]
