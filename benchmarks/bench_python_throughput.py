"""Honesty bench — raw Python throughput of this implementation.

Every other bench reports *modeled* time (see docs/PERFMODEL.md).  This
one reports what the pure-Python/numpy implementation actually sustains
on the machine running the suite, so readers can calibrate expectations:
the reproduction is built for fidelity and measurement, not speed —
the paper's C/GPU pipeline did ~4M triangles/s in 2006; numpy Marching
Cubes manages a respectable fraction of that, while the simulated disk
is orders of magnitude faster than a real one.

Both extraction backends are timed — the exact ``mc-batch`` kernel and
the ``surface-nets`` dual kernel the renderer defaults to — as raw
triangulation rate and as end-to-end ``extract()`` throughput.  The
software rasterizer is timed on the exact mesh into a 256 x 256 frame,
flat and Gouraud, under the same best-of-N protocol.

The query row times a stratified isovalue sweep on a persisted,
file-backed store and reports planned runs executed per second — the
executor's own cost per run, on top of its reads and CRCs.

Alongside the stage table it micro-benchmarks the three checksum-verify
strategies the I/O layer grew (per-record ``zlib.crc32`` loop, the
table-driven vectorized kernel, and one-call span verification against
the cumulative table); each speedup is quoted against the loop baseline
*at the record size where that strategy deploys* (span at 734 B,
vectorized at 16 B).  The headline numbers land in
``BENCH_throughput.json`` (schema ``repro-bench/1``) for CI's
perf-smoke and kernel-soak jobs.
"""

from __future__ import annotations

import tempfile
import time
import zlib

import numpy as np

from repro.bench.harness import emit, emit_bench_json, rm_bench_volume
from repro.bench.tables import format_table
from repro.core.builder import build_indexed_dataset
from repro.core.persistence import build_persistent_dataset, load_dataset
from repro.core.query import QueryOptions, execute_query
from repro.io.layout import _vectorized_record_crcs, compute_crc_tables
from repro.mc.marching_cubes import marching_cubes_batch
from repro.mc.surface_nets import surface_nets_batch
from repro.pipeline import IsosurfacePipeline
from repro.render.camera import Camera
from repro.render.rasterizer import Framebuffer, render_mesh, render_mesh_smooth

#: Full-extract throughput (Mtri/s) this bench measured on the reference
#: container *before* the zero-copy streaming work (scalar CRC loop,
#: per-record buffer concatenation, temporary-heavy Marching Cubes).
#: Kept as the denominator so the speedup the rework bought stays
#: visible in every BENCH_throughput.json.
PRE_REWORK_FULL_EXTRACT_MTRI_S = 1.48


def _timed(fn, repeats=3):
    best = float("inf")
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return out, best


def _crc_verify_bench(record_size: int = 734, n_records: int = 4096,
                      small_record_size: int = 16):
    """Wall cost of the three verify strategies, each where it deploys.

    The hot read path verifies *spans* of ``record_size``-byte metacell
    records against the cumulative table (one ``zlib.crc32`` C call);
    the per-record loop is its pre-rework baseline on the same blob.
    The vectorized column-wise kernel targets narrow records (it beats
    the loop below :data:`repro.io.layout.VECTOR_CRC_MAX_RECORD_SIZE`
    bytes), so it is measured against the loop at ``small_record_size``.
    """
    rng = np.random.default_rng(7)
    blob = rng.integers(0, 256, size=record_size * n_records, dtype=np.uint8).tobytes()
    mb = len(blob) / 1e6

    def loop():
        return [
            zlib.crc32(blob[p * record_size : (p + 1) * record_size])
            for p in range(n_records)
        ]

    _, cum = compute_crc_tables(blob, record_size)

    def span():
        return zlib.crc32(blob, int(cum[0])) == int(cum[n_records])

    n_small = len(blob) // small_record_size
    small = np.frombuffer(blob, dtype=np.uint8, count=n_small * small_record_size)
    small = small.reshape(n_small, small_record_size)

    def small_loop():
        return [
            zlib.crc32(blob[p * small_record_size : (p + 1) * small_record_size])
            for p in range(n_small)
        ]

    def vectorized():
        return _vectorized_record_crcs(small, small_record_size)

    ref, t_loop = _timed(loop)
    ok, t_span = _timed(span)
    small_ref, t_small_loop = _timed(small_loop)
    vec, t_vec = _timed(vectorized)
    # All strategies agree before we time-trust them.
    assert ok and list(vec) == small_ref
    assert int(cum[1]) == ref[0]
    return {
        "loop_mb_s": mb / t_loop,
        "span_mb_s": mb / t_span,
        "span_speedup": t_loop / t_span,
        "small_loop_mb_s": mb / t_small_loop,
        "vectorized_mb_s": mb / t_vec,
        "vectorized_speedup": t_small_loop / t_vec,
    }


def _query_sweep_bench(volume, metacell_shape, n_queries: int = 64, seed: int = 12):
    """Planned runs executed per wall second over a stratified sweep.

    The store is persisted and reopened, so every read goes through the
    file-backed device.  One isovalue is drawn from each of
    ``n_queries`` equal slices of the endpoint range, and the whole sweep
    (plan + execute per isovalue) is timed best-of-3.  Small queries of
    a few dozen runs each: the rate is what the executor's per-run work
    costs on top of the reads and CRCs.
    """
    with tempfile.TemporaryDirectory() as tmp:
        build_persistent_dataset(volume, tmp, metacell_shape).device.close()
        ds = load_dataset(tmp)
        try:
            ends = ds.tree.endpoints.astype(np.float64)
            rng = np.random.default_rng(seed)
            u = (np.arange(n_queries) + rng.random(n_queries)) / n_queries
            lams = [float(x) for x in ends[0] + (ends[-1] - ends[0]) * u]
            runs = sum(len(ds.tree.plan_query(lam).runs) for lam in lams)
            _, t = _timed(lambda: [execute_query(ds, lam) for lam in lams])
        finally:
            ds.device.close()
    return runs / t, runs / n_queries


def test_python_throughput(benchmark, cfg):
    volume = rm_bench_volume(cfg)
    lam = float(cfg.isovalues[len(cfg.isovalues) // 2])

    ds, t_build = _timed(lambda: build_indexed_dataset(volume, cfg.metacell_shape), 2)
    qr, t_query = _timed(lambda: execute_query(ds, lam))
    values = ds.codec.values_grid(qr.records)
    origins = ds.meta.vertex_origins(qr.records.ids)
    mesh, t_tri = _timed(lambda: marching_cubes_batch(values, lam, origins), 10)
    sn_mesh, t_sn = _timed(lambda: surface_nets_batch(values, lam, origins), 10)

    pipe = IsosurfacePipeline(ds)
    sn_opts = QueryOptions(backend="surface-nets")
    # The headline full-extract number runs the SurfaceNets backend; the
    # exact MC path is timed alongside it.  Both are best-of-N wall
    # clock, the same protocol as every other stage row (the in-result
    # ``measured_seconds`` includes per-stage metric bookkeeping and
    # reads ~10% high).
    benchmark.pedantic(
        lambda: pipe.extract(lam, options=sn_opts), rounds=3, iterations=1
    )
    res, t_full = _timed(lambda: pipe.extract(lam, options=sn_opts), 10)
    res_mc, t_full_mc = _timed(lambda: pipe.extract(lam), 10)

    crc = _crc_verify_bench(ds.codec.record_size)
    runs_per_s, runs_per_query = _query_sweep_bench(volume, cfg.metacell_shape)

    # The rasterizer rows: one fixed mesh (the exact kernel's), one
    # auto-framed camera, one reused 256^2 frame (its 0.07 ms clear is
    # inside the clock: every frame pays it).
    camera, fb = Camera.fit_mesh(mesh), Framebuffer(256, 256)
    vertex_normals = mesh.vertex_normals()

    def flat():
        fb.clear()
        return render_mesh(fb, mesh, camera)

    def smooth():
        fb.clear()
        return render_mesh_smooth(fb, mesh, camera, vertex_normals)

    n_flat, t_flat = _timed(flat, 10)
    n_smooth, t_smooth = _timed(smooth, 10)
    flat_mtri_s = n_flat / max(t_flat, 1e-9) / 1e6
    smooth_mtri_s = n_smooth / max(t_smooth, 1e-9) / 1e6

    rows = [
        ["preprocess (scan+index+layout)",
         f"{volume.nbytes / t_build / 1e6:.1f} MB/s of volume",
         f"{t_build * 1e3:.0f} ms"],
        ["out-of-core query (simulated disk)",
         f"{qr.io_stats.bytes_read / max(t_query, 1e-9) / 1e6:.1f} MB/s retrieved",
         f"{t_query * 1e3:.1f} ms"],
        ["query sweep (file-backed, stratified isovalues)",
         f"{runs_per_s:,.0f} planned runs/s",
         f"{runs_per_query:.0f} runs/query"],
        ["marching cubes (numpy, batched)",
         f"{mesh.n_triangles / max(t_tri, 1e-9) / 1e6:.2f} Mtri/s",
         f"{t_tri * 1e3:.1f} ms"],
        ["surface nets (numpy, batched)",
         f"{sn_mesh.n_triangles / max(t_sn, 1e-9) / 1e6:.2f} Mtri/s",
         f"{t_sn * 1e3:.1f} ms"],
        ["full extract(), mc-batch backend",
         f"{res_mc.n_triangles / max(t_full_mc, 1e-9) / 1e6:.2f} Mtri/s",
         f"{t_full_mc * 1e3:.1f} ms"],
        ["full extract(), surface-nets backend",
         f"{res.n_triangles / max(t_full, 1e-9) / 1e6:.2f} Mtri/s",
         f"{t_full * 1e3:.1f} ms"],
        ["rasterize 256x256, flat (numpy, fragment-batched)",
         f"{flat_mtri_s:.2f} Mtri/s",
         f"{t_flat * 1e3:.1f} ms"],
        ["rasterize 256x256, Gouraud",
         f"{smooth_mtri_s:.2f} Mtri/s",
         f"{t_smooth * 1e3:.1f} ms"],
        ["crc verify: per-record loop (734 B records)",
         f"{crc['loop_mb_s']:.0f} MB/s", "-"],
        ["crc verify: cumulative span (hot read path)",
         f"{crc['span_mb_s']:.0f} MB/s "
         f"({crc['span_speedup']:.1f}x 734 B loop)", "-"],
        ["crc verify: per-record loop (16 B records)",
         f"{crc['small_loop_mb_s']:.0f} MB/s", "-"],
        ["crc verify: vectorized (16 B records)",
         f"{crc['vectorized_mb_s']:.0f} MB/s "
         f"({crc['vectorized_speedup']:.1f}x 16 B loop)", "-"],
    ]
    table = format_table(
        ["stage", "measured Python throughput", "wall time"],
        rows,
        title=(
            "Python wall-clock throughput on this machine "
            f"(volume {('x'.join(map(str, volume.shape)))}, isovalue {int(lam)}; "
            "modeled times elsewhere use docs/PERFMODEL.md)"
        ),
    )
    emit("python_throughput.txt", table)

    full_mtri_s = res.n_triangles / max(t_full, 1e-9) / 1e6
    full_mc_mtri_s = res_mc.n_triangles / max(t_full_mc, 1e-9) / 1e6
    # Emitted under the fixed name "throughput" (not the module-derived
    # one) because CI's perf-smoke job and the acceptance record point
    # at BENCH_throughput.json.
    emit_bench_json("throughput", {
        "preprocess_mb_s": volume.nbytes / t_build / 1e6,
        "query_mb_s": qr.io_stats.bytes_read / max(t_query, 1e-9) / 1e6,
        "query_sweep_runs_per_s": runs_per_s,
        "mc_batch_mtri_s": mesh.n_triangles / max(t_tri, 1e-9) / 1e6,
        "surface_nets_mtri_s": sn_mesh.n_triangles / max(t_sn, 1e-9) / 1e6,
        "full_extract_mtri_s": full_mtri_s,
        "full_extract_mc_mtri_s": full_mc_mtri_s,
        "full_extract_ms": t_full * 1e3,
        "full_extract_baseline_mtri_s": PRE_REWORK_FULL_EXTRACT_MTRI_S,
        "full_extract_speedup_vs_baseline":
            full_mtri_s / PRE_REWORK_FULL_EXTRACT_MTRI_S,
        "rasterize_flat_mtri_s": flat_mtri_s,
        "rasterize_smooth_mtri_s": smooth_mtri_s,
        "crc_verify_loop_mb_s": crc["loop_mb_s"],
        "crc_verify_span_mb_s": crc["span_mb_s"],
        "crc_verify_span_speedup": crc["span_speedup"],
        "crc_verify_small_loop_mb_s": crc["small_loop_mb_s"],
        "crc_verify_vectorized_mb_s": crc["vectorized_mb_s"],
        "crc_verify_vectorized_speedup": crc["vectorized_speedup"],
    }, scale=cfg.scale)

    assert mesh.n_triangles == res_mc.n_triangles
    assert sn_mesh.n_triangles == res.n_triangles
    assert mesh.n_triangles / max(t_tri, 1e-9) > 1e5  # >0.1 Mtri/s in numpy
    assert n_flat == n_smooth > 0 and fb.coverage() > 0.0
    # Each verify strategy must beat the loop baseline where it deploys.
    assert crc["span_speedup"] > 1.0
    assert crc["vectorized_speedup"] > 1.0
    if cfg.scale == 1:
        # The zero-copy rework's acceptance bar on the reference scale,
        # held by both backends (which of the two is faster depends on
        # the batch: they read within a few percent of each other here).
        assert full_mc_mtri_s >= 2.0 * PRE_REWORK_FULL_EXTRACT_MTRI_S
        assert full_mtri_s >= 2.0 * PRE_REWORK_FULL_EXTRACT_MTRI_S
