"""The node stage: query → triangulate → account (paper Sections 5-6).

Every node of the paper's cluster runs the same local pass and nothing
is exchanged until the sort-last composite.  :func:`extract_node` is
that pass, written once: :class:`repro.pipeline.IsosurfacePipeline` is
its p=1 instantiation, and :class:`repro.parallel.cluster.SimulatedCluster`
runs it per stripe, wrapping only the mesh-tier result cache around it.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.builder import IndexedDataset
from repro.core.query import QueryOptions, QueryResult, execute_query
from repro.mc.backends import triangulate_records
from repro.mc.geometry import TriangleMesh
from repro.parallel.metrics import NodeMetrics
from repro.parallel.perfmodel import PAPER_CLUSTER, PerformanceModel


def extract_node(
    dataset: IndexedDataset,
    lam: float,
    options: QueryOptions = QueryOptions(),
    *,
    perf: PerformanceModel = PAPER_CLUSTER,
    with_normals: bool = False,
) -> "tuple[NodeMetrics, TriangleMesh, np.ndarray | None, QueryResult]":
    """Query + triangulate ``dataset`` at ``lam`` and fill in the node's
    accounting — everything a node can compute without the global
    volume.

    ``options`` configures both stages (read-ahead, deadline budget,
    tracing, result-cache view; ``backend`` / ``batch_chunk`` for the
    kernel).  Stage times are modeled from the counted work through
    ``perf``; ``render_time`` is left to the caller, which knows how
    many buffers of what size the node rasterizes.  A ``time_budget``
    that cuts the query short shows as ``deadline_expired``, the
    span-space bricks left unread, and ``coverage`` < 1 (delivered /
    predicted active metacells).
    """
    t0 = time.perf_counter()
    qr = execute_query(dataset, lam, options)
    mesh, normals = triangulate_records(
        dataset, qr.records, lam,
        backend=options.backend, batch_chunk=options.batch_chunk,
        with_normals=with_normals,
    )
    metrics = NodeMetrics(node_rank=dataset.node_rank)
    metrics.n_active_metacells = qr.n_active
    metrics.n_cells_examined = qr.n_active * int(
        np.prod([m - 1 for m in dataset.codec.metacell_shape])
    )
    metrics.n_triangles = mesh.n_triangles
    metrics.io_stats = qr.io_stats
    metrics.io_time = perf.io_time(qr.io_stats)
    metrics.triangulation_time = perf.cpu.triangulation_time(
        metrics.n_cells_examined, metrics.n_triangles
    )
    if qr.deadline_expired:
        metrics.deadline_expired = True
        metrics.skipped_bricks = qr.skipped_bricks
        expected = dataset.tree.query_count(lam)
        if expected:
            metrics.coverage = qr.n_active / expected
        else:
            # The tree predicted zero actives, but the budget still
            # cut reads short: we cannot *know* the prediction held
            # for the unread records, so don't report full coverage.
            metrics.coverage = 0.0 if qr.n_records_skipped else 1.0
    metrics.measured_seconds = time.perf_counter() - t0
    return metrics, mesh, normals, qr
