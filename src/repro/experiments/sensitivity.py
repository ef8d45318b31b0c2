"""Raw sensitivity runs (Figs 5 and 15): no policy, explicit placements.

The Section III-B / VI-A studies colocate a synthetic antagonist directly
with the accelerated task: the LLC antagonist shares the ML task's cores
through SMT (it attacks in-pipeline resources and private caches), the DRAM
antagonist runs on the remaining cores of the same socket, and the
Remote-DRAM antagonist splits its threads and dataset across sockets.
"""

from __future__ import annotations

from repro.node import ACCEL_SOCKET, Node
from repro.errors import ExperimentError
from repro.hw.placement import Placement
from repro.sim import Simulator
from repro.workloads.cpu.base import BatchTask
from repro.workloads.cpu.catalog import cpu_workload
from repro.workloads.ml.catalog import ml_workload

#: Default horizons, matching :mod:`repro.experiments.common`.
DURATION = 40.0
WARMUP = 6.0


def run_sensitivity(
    ml: str,
    antagonist: str | None,
    level: str = "H",
    remote_data_fraction: float = 0.0,
    remote_thread_fraction: float = 0.0,
    duration: float = DURATION,
    warmup: float = WARMUP,
) -> float:
    """Raw ML performance under one antagonist placement, steps/s or QPS.

    ``remote_*`` fractions configure the Remote-DRAM sweep: the fraction of
    the antagonist's dataset homed on the ML task's socket and the fraction
    of its threads running there. (Note Fig 16's axes: the *antagonist* is
    based on the remote socket; data on the ML-local socket crosses the
    inter-socket link.)
    """
    if duration <= warmup:
        raise ExperimentError("duration must exceed warmup")
    factory = ml_workload(ml)
    sim = Simulator()
    node = Node.create(factory.host_spec(), sim)
    topo = node.machine.topology

    ml_cores = factory.default_cores()
    ml_placement = Placement(
        cores=frozenset(node.accel_socket_cores()[:ml_cores]),
        mem_weights=topo.socket_memory_weights(ACCEL_SOCKET),
    )
    instance = factory.build(node.machine, ml_placement, warmup_until=warmup)
    instance.start()

    if antagonist is not None:
        profile = cpu_workload(antagonist, level)
        if antagonist == "llc":
            # SMT colocation: the antagonist shares every core on the socket,
            # including the ML task's.
            cores = frozenset(node.accel_socket_cores())
            mem = topo.socket_memory_weights(ACCEL_SOCKET)
        elif antagonist == "remote-dram":
            if not 0.0 <= remote_data_fraction <= 1.0:
                raise ExperimentError("remote_data_fraction must be in [0, 1]")
            if not 0.0 <= remote_thread_fraction <= 1.0:
                raise ExperimentError("remote_thread_fraction must be in [0, 1]")
            for task in _remote_tasks(
                node, profile, remote_thread_fraction, remote_data_fraction,
                ml_cores, warmup,
            ):
                task.start()
            sim.run_until(duration)
            return instance.performance(duration)
        else:
            cores = frozenset(node.accel_socket_cores()[ml_cores:])
            mem = topo.socket_memory_weights(ACCEL_SOCKET)
        task = BatchTask(
            task_id=f"antagonist-{antagonist}",
            machine=node.machine,
            placement=Placement(cores=cores, mem_weights=mem),
            profile=profile,
            warmup_until=warmup,
        )
        task.start()

    sim.run_until(duration)
    return instance.performance(duration)


def _remote_tasks(
    node: Node,
    profile,
    local_thread_fraction: float,
    local_data_fraction: float,
    ml_cores: int,
    warmup: float,
) -> list[BatchTask]:
    """Build the Remote-DRAM antagonist as up to two tasks.

    A traffic source lives on one socket, so the thread split becomes two
    tasks — one per socket — each carrying its share of the threads. Both
    route their traffic by the same data split (``local_data_fraction`` of
    the dataset homed on the ML task's socket), so the traffic crossing the
    inter-socket link is exactly what the Fig 16 axes prescribe.
    """
    topo = node.machine.topology
    remote_socket = 1 - ACCEL_SOCKET
    threads = profile.phase.threads
    local_threads = round(local_thread_fraction * threads)
    remote_threads = threads - local_threads

    local_weights = topo.socket_memory_weights(ACCEL_SOCKET)
    remote_weights = topo.socket_memory_weights(remote_socket)
    mem: dict[int, float] = {}
    for node_id, weight in local_weights.items():
        mem[node_id] = weight * local_data_fraction
    for node_id, weight in remote_weights.items():
        mem[node_id] = mem.get(node_id, 0.0) + weight * (1.0 - local_data_fraction)

    tasks: list[BatchTask] = []
    if local_threads > 0:
        tasks.append(
            BatchTask(
                task_id="antagonist-remote-dram-local",
                machine=node.machine,
                placement=Placement(
                    cores=frozenset(topo.cores_of_socket(ACCEL_SOCKET)[ml_cores:]),
                    mem_weights=mem,
                ),
                profile=profile.scaled_to_threads(local_threads),
                warmup_until=warmup,
            )
        )
    if remote_threads > 0:
        tasks.append(
            BatchTask(
                task_id="antagonist-remote-dram-remote",
                machine=node.machine,
                placement=Placement(
                    cores=frozenset(topo.cores_of_socket(remote_socket)),
                    mem_weights=mem,
                ),
                profile=profile.scaled_to_threads(remote_threads),
                warmup_until=warmup,
            )
        )
    return tasks
