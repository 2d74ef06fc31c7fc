"""The oracles behind ``ok_share``.

Each workload's ``observe`` reduces an op's output to a small dict of
*facts* (counts and CRC32 digests).  An op is ``ok`` when

* its facts contain everything the workload's reference path predicted
  for it (the functions below — each computes the expectation without
  the code under test: a full scan, an in-core Marching Cubes run, a
  one-node extraction, an uncached cluster), and
* they equal the facts the same op produced on the first timed pass
  (digests are stable across passes).

References are computed once per run, outside every timed region and
outside ``setup_s``.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.baselines.naive_scan import full_scan_query
from repro.core.validation import verify_dataset
from repro.grid.metacell import partition_metacells
from repro.mc.marching_cubes import marching_cubes
from repro.parallel.cluster import SimulatedCluster

#: How many ops per pass get the expensive reference (a full scan of the
#: store, a whole-volume Marching Cubes run); the rest get the cheap one.
N_DEEP = 3


def crc(*arrays) -> int:
    """CRC32 chained over the raw bytes of the given arrays."""
    value = 0
    for a in arrays:
        value = zlib.crc32(np.ascontiguousarray(a), value)
    return value


def ids_fact(ids) -> "dict[str, int]":
    ids = np.sort(np.asarray(ids, dtype=np.int64))
    return {"n_active": int(len(ids)), "ids_crc": crc(ids)}


def retrieve_expected(volume, dataset, lams) -> "list[dict]":
    """Active metacell ids per isovalue: from the metacell extrema for
    every op, and from ``full_scan_query`` (the naive baseline, reading
    the whole store) for ``N_DEEP`` of them — the two must agree."""
    part = partition_metacells(volume, dataset.meta.metacell_shape)
    stored = part.vmin != part.vmax
    expected = []
    for i, lam in enumerate(lams):
        ids = part.ids[stored & (part.vmin <= lam) & (lam <= part.vmax)]
        fact = ids_fact(ids)
        if i < N_DEEP:
            scan = ids_fact(full_scan_query(dataset, lam).records.ids)
            if scan != fact:
                raise AssertionError(
                    f"reference paths disagree at isovalue {lam}: "
                    f"full scan {scan} vs metacell extrema {fact}"
                )
        expected.append(fact)
    return expected


def mesh_fact(mesh) -> "dict[str, int]":
    return {
        "n_triangles": int(mesh.n_triangles),
        "mesh_crc": crc(mesh.vertices, mesh.faces),
    }


def mesh_expected(volume, lams) -> "list[dict]":
    """Triangle counts from in-core Marching Cubes over the whole volume
    for ``N_DEEP`` isovalues; the other ops rely on digest stability."""
    return [
        {"n_triangles": int(marching_cubes(volume.data, lam).n_triangles)}
        if i < N_DEEP else {}
        for i, lam in enumerate(lams)
    ]


def frame_fact(result) -> "dict[str, int]":
    return {
        "n_triangles": int(result.n_triangles),
        "frame_crc": crc(result.image.color, result.image.depth),
    }


def frame_ok(result) -> bool:
    return result.coverage == 1.0 and not result.degraded


def frame_expected(volume, metacell_shape, lams) -> "list[dict]":
    """Triangle totals of the same extraction on a one-node cluster."""
    single = SimulatedCluster(volume, 1, metacell_shape=metacell_shape)
    return [
        {"n_triangles": int(single.extract(float(lam)).n_triangles)}
        for lam in lams
    ]


def file_crc(path) -> int:
    with open(path, "rb") as fh:
        return zlib.crc32(fh.read())


def build_verified(dataset) -> None:
    report = verify_dataset(dataset, deep=True)
    if not report.ok:
        raise AssertionError(f"reference build fails fsck: {report.summary()}")


def serve_reference(volume, p, metacell_shape, lams) -> "dict[float, int]":
    """Triangles per isovalue from an uncached, unreplicated cluster that
    no server ever touched."""
    static = SimulatedCluster(volume, p, metacell_shape=metacell_shape)
    return {lam: int(static.extract(lam).n_triangles) for lam in lams}


def serve_bad_requests(report, trace, reference) -> int:
    """Requests of one served segment that are not ``ok``: the report
    must hold exactly one terminal record per request of the trace, in
    state ``ok``, carrying the reference triangle count for its
    isovalue.  Shed, degraded, failed, missing or duplicated all count."""
    by_id: "dict[int, list]" = {}
    for r in report.records:
        by_id.setdefault(r.request_id, []).append(r)
    bad = 0
    for q in trace.requests:
        rows = by_id.pop(q.request_id, [])
        good = (
            len(rows) == 1
            and rows[0].state == "ok"
            and rows[0].triangles == reference[q.lam]
        )
        bad += not good
    return bad + sum(len(rows) for rows in by_id.values())


def serve_fact(report) -> "dict[str, int]":
    return {
        "n_requests": report.n_requests,
        "triangles_crc": crc(
            np.asarray([r.triangles for r in report.records], dtype=np.int64)
        ),
    }
