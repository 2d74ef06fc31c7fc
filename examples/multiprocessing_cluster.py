#!/usr/bin/env python3
"""Real OS processes as cluster nodes.

The algorithm needs no communication between nodes until the final
composite, so each node's query+triangulation can run in a separate
``multiprocessing`` worker with nothing shared.  The parent receives
only each node's mesh and counters — the analogue of shipping frame
buffers — and verifies the union against the in-process serial result.
The stripes are built straight to per-node directories (each node owns
the bricks on its local disk), so workers are handed a *path* and
reopen their own store; nothing but the path is pickled.

Run:  python examples/multiprocessing_cluster.py
"""

from __future__ import annotations

import tempfile
import time

from repro import build_indexed_dataset, build_persistent_striped, rm_timestep
from repro.mc.geometry import TriangleMesh
from repro.parallel.mp_backend import extract_parallel_mp
from repro.pipeline import IsosurfacePipeline


def main() -> None:
    p = 4
    iso = 128.0
    volume = rm_timestep(220, shape=(65, 65, 57))

    with tempfile.TemporaryDirectory(prefix="mp_cluster_") as root:
        print(f"striping across {p} node directories under {root} ...")
        datasets = build_persistent_striped(volume, root, p, (9, 9, 9))
        for ds in datasets:
            ds.device.close()

        print(f"running {p} node extractions in separate OS processes ...")
        t0 = time.perf_counter()
        outputs = extract_parallel_mp(datasets, iso, processes=p)
        elapsed = time.perf_counter() - t0

    for out in outputs:
        print(
            f"  node {out.node_rank}: {out.n_active_metacells:4d} active metacells, "
            f"{out.n_triangles:6d} triangles, {out.blocks_read} blocks read"
        )
    union = TriangleMesh.concat([o.mesh() for o in outputs])
    print(f"  union: {union.n_triangles} triangles in {elapsed:.2f}s wall")

    print("verifying against the serial in-process pipeline ...")
    serial = IsosurfacePipeline(build_indexed_dataset(volume, (9, 9, 9))).extract(iso)
    assert union.n_triangles == serial.n_triangles, "parallel != serial!"
    assert abs(union.area() - serial.mesh.area()) < 1e-6 * max(serial.mesh.area(), 1)
    print(f"OK: {serial.n_triangles} triangles either way; "
          "surfaces identical (area matches to machine precision)")


if __name__ == "__main__":
    main()
