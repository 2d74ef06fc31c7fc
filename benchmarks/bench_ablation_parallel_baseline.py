"""Ablation — parallel execution models: striping vs host dispatch.

Paper Section 2, on the BBIO-based parallel systems [10, 17]: "A
significant bottleneck with this scheme is the host overhead in
coordinating and dispatching jobs, and the access pattern to the
available disks is quite unpredictable."

This bench pits three ways of parallelizing the *same* per-isovalue
workload (the actual active-metacell jobs of the bench dataset, costed
with the calibrated CPU model) against each other:

* striping (ours): jobs pre-placed round-robin; makespan = max node sum,
  zero host time;
* host dispatch: a master hands each job to the next free worker,
  paying serial dispatch overhead per job;
* static blocks: contiguous pre-partition, no host — but balance at the
  mercy of the workload's spatial skew.
"""

from __future__ import annotations

import numpy as np

from repro.bench.harness import emit, get_cluster
from repro.bench.tables import format_table
from repro.core.query import execute_query
from repro.parallel.scheduler import host_dispatch, round_robin
from repro.parallel.perfmodel import PAPER_CLUSTER


def test_ablation_parallel_baseline(benchmark, cfg):
    p = 8
    cluster = get_cluster(cfg, 1)
    ds = cluster.datasets[0]
    cells = int(np.prod([m - 1 for m in ds.codec.metacell_shape]))
    cpu = PAPER_CLUSTER.cpu

    benchmark.pedantic(
        lambda: execute_query(ds, float(cfg.isovalues[3])), rounds=3, iterations=1
    )

    from repro.mc.tables import CORNERS, N_TRI

    def per_record_triangles(values: np.ndarray, lam: float) -> np.ndarray:
        """Exact triangle count each metacell will emit."""
        v = values.astype(np.float64)
        pos = v > lam
        b, nx, ny, nz = v.shape
        case = np.zeros((b, nx - 1, ny - 1, nz - 1), dtype=np.uint16)
        for bit, (dx, dy, dz) in enumerate(CORNERS.astype(int)):
            case |= (
                pos[:, dx : nx - 1 + dx, dy : ny - 1 + dy, dz : nz - 1 + dz]
                .astype(np.uint16) << bit
            )
        return N_TRI[case].reshape(b, -1).sum(axis=1)

    rows = []
    worst = {"striping": 0.0, "host dispatch": 0.0, "z-slab blocks": 0.0}
    for lam in cfg.isovalues:
        res = execute_query(ds, float(lam))
        if res.n_active < 50:
            continue
        values = ds.codec.values_grid(res.records)
        tris = per_record_triangles(values, float(lam))
        job_costs = np.array(
            [cpu.triangulation_time(cells, int(t)) for t in tris]
        )
        # Striping / host dispatch see jobs in layout (brick) order.
        stripe = round_robin(job_costs, p)
        dispatch = host_dispatch(job_costs, p)
        # The naive pre-partition assigns each worker a contiguous z-slab
        # of the *volume*; active jobs fall to whoever owns their slab.
        ijk = ds.meta.id_to_ijk(res.records.ids)
        gz = ds.meta.grid_shape[2]
        owner = np.minimum(ijk[:, 2] * p // gz, p - 1)
        slab_times = np.bincount(owner, weights=job_costs, minlength=p)
        from repro.parallel.scheduler import ScheduleResult

        blocks = ScheduleResult(worker_times=slab_times, host_time=0.0)
        ideal = job_costs.sum() / p
        rows.append([
            int(lam), res.n_active,
            f"{stripe.makespan / ideal:.3f}",
            f"{dispatch.makespan / ideal:.3f}",
            f"{blocks.makespan / ideal:.3f}",
        ])
        worst["striping"] = max(worst["striping"], stripe.makespan / ideal)
        worst["host dispatch"] = max(worst["host dispatch"], dispatch.makespan / ideal)
        worst["z-slab blocks"] = max(worst["z-slab blocks"], blocks.makespan / ideal)

    table = format_table(
        ["isovalue", "jobs", "striping / ideal", "host dispatch / ideal",
         "z-slab blocks / ideal"],
        rows,
        title=(
            f"Ablation — parallel execution models on {p} workers "
            "(makespan relative to perfect balance; paper: host dispatch is "
            "'a significant bottleneck', spatial pre-partition is unbalanced)"
        ),
    )
    emit("ablation_parallel_baseline.txt", table)

    assert worst["striping"] < 1.2
    # The host's serial dispatch adds real overhead on top of ideal.
    assert worst["host dispatch"] > worst["striping"]
    # Spatial pre-partitioning concentrates the mixing band on few workers.
    assert worst["z-slab blocks"] > 1.5
