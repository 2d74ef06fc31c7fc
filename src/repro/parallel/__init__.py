"""Cluster execution layer.

``node``
    :func:`~repro.parallel.node.extract_node` — the one rank-local pass
    (query → triangulate → account) every node and the façade run.
``cluster``
    :class:`SimulatedCluster` — p nodes with striped local disks,
    communication-free extraction, sort-last compositing.
``perfmodel``
    Calibrated stage-time models (disk, CPU, GPU, interconnect).
``metrics``
    :class:`NodeMetrics`, load-balance statistics, speedup helpers.
``scheduler``
    Host-dispatch and static scheduling models for baseline ablations.
``mp_backend``
    Real ``multiprocessing`` execution of per-node work.
"""

from repro.parallel.cluster import ClusterResult, ExtractRequest, SimulatedCluster
from repro.parallel.metrics import LoadBalance, NodeMetrics, efficiency, speedup
from repro.parallel.mp_backend import WorkerOutput, extract_parallel_mp
from repro.parallel.perfmodel import (
    PAPER_CLUSTER,
    CPUModel,
    GPUModel,
    InterconnectModel,
    PerformanceModel,
)
from repro.parallel.scheduler import (
    HostDispatchModel,
    ScheduleResult,
    host_dispatch,
    round_robin,
    static_blocks,
)

__all__ = [
    "SimulatedCluster",
    "ClusterResult",
    "ExtractRequest",
    "NodeMetrics",
    "LoadBalance",
    "speedup",
    "efficiency",
    "PerformanceModel",
    "PAPER_CLUSTER",
    "CPUModel",
    "GPUModel",
    "InterconnectModel",
    "HostDispatchModel",
    "ScheduleResult",
    "host_dispatch",
    "round_robin",
    "static_blocks",
    "extract_parallel_mp",
    "WorkerOutput",
]
