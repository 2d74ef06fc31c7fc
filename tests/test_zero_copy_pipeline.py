"""Zero-copy streaming pipeline invariants.

The rework this file guards (coalesced reads, cumulative-CRC span
verification, the shared-memory triangulation pipeline) is only
acceptable because it is *invisible* on every axis except wall time:

* serial, coalesced, and pipelined extraction must produce byte-identical
  records, meshes, and normals;
* the metered I/O bill — blocks, seeks, read ops — must match the
  uncoalesced execution exactly, including where a time budget cuts;
* every CRC strategy (per-record loop, vectorized kernel, cumulative
  span table) must agree bit-for-bit with ``zlib.crc32``.
"""

from __future__ import annotations

import zlib

import numpy as np
import pytest

from repro.core.builder import build_indexed_dataset, build_striped_datasets
from repro.core.query import QueryOptions, execute_query
from repro.grid.datasets import pressure_like, sphere_field
from repro.io.faults import FaultInjectingDevice, FaultPlan
from repro.io.layout import (
    VECTOR_CRC_MAX_RECORD_SIZE,
    VECTOR_CRC_MIN_RECORDS,
    _vectorized_record_crcs,
    compute_crc_tables,
    compute_record_crcs,
)
from repro.mc.marching_cubes import marching_cubes_batch
from repro.parallel import ExtractRequest, SimulatedCluster
from repro.parallel.mp_backend import extract_parallel_mp, node_task
from repro.parallel.pipeline import PipelineOptions, pipelined_marching_cubes
from repro.pipeline import IsosurfacePipeline


def _stats_dict(stats):
    return dict(vars(stats))


def _assert_same_result(a, b):
    assert np.array_equal(a.records.ids, b.records.ids)
    assert np.array_equal(a.records.vmins, b.records.vmins)
    assert a.records.values.tobytes() == b.records.values.tobytes()
    assert _stats_dict(a.io_stats) == _stats_dict(b.io_stats)
    assert a.deadline_expired == b.deadline_expired
    assert a.n_records_skipped == b.n_records_skipped


# ---------------------------------------------------------------------------
# Coalesced reads: bit-identical payloads and I/O charges
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("gap", [1, 4, 64])
def test_coalesced_query_identical_to_serial(seed, gap):
    vol = pressure_like((36, 36, 36), seed=seed)
    ds = build_indexed_dataset(vol, (5, 5, 5))
    lo, hi = float(ds.tree.endpoints[0]), float(ds.tree.endpoints[-1])
    for lam in np.linspace(lo, hi, 5)[1:-1]:
        serial = execute_query(ds, lam)
        coalesced = execute_query(
            ds, lam, QueryOptions(coalesce_gap_blocks=gap)
        )
        _assert_same_result(serial, coalesced)


@pytest.mark.parametrize("budget_frac", [0.15, 0.4, 0.8])
def test_coalesced_respects_time_budget_cut_points(budget_frac):
    vol = sphere_field((44, 44, 44))
    lam = 0.5
    full = execute_query(build_indexed_dataset(vol, (5, 5, 5)), lam)
    ds_a = build_indexed_dataset(vol, (5, 5, 5))
    budget = budget_frac * full.io_stats.read_time(ds_a.device.cost_model)
    serial = execute_query(ds_a, lam, QueryOptions(time_budget=budget))
    ds_b = build_indexed_dataset(vol, (5, 5, 5))
    coalesced = execute_query(
        ds_b, lam, QueryOptions(time_budget=budget, coalesce_gap_blocks=16)
    )
    _assert_same_result(serial, coalesced)
    assert serial.skipped_bricks == coalesced.skipped_bricks


@pytest.mark.parametrize("seed", [3, 11])
def test_coalesced_on_faulty_device_matches_serial(seed):
    """Fault wrappers lack ``peek``; coalescing must degrade to the plain
    per-run path so the fault plan's RNG sees the same read sequence."""
    vol = sphere_field((33, 33, 33))
    plan = FaultPlan(seed=seed, transient_error_rate=0.1, corruption_rate=0.05)

    def faulty_dataset():
        ds = build_indexed_dataset(vol, (5, 5, 5))
        ds.device = FaultInjectingDevice(ds.device, plan)
        return ds

    a = execute_query(faulty_dataset(), 0.5)
    b = execute_query(faulty_dataset(), 0.5, QueryOptions(coalesce_gap_blocks=8))
    _assert_same_result(a, b)
    assert b.io_stats.retries == a.io_stats.retries
    assert b.io_stats.checksum_failures == a.io_stats.checksum_failures


def test_coalesced_gap_zero_is_disabled(sphere_dataset):
    res = execute_query(sphere_dataset, 0.5, QueryOptions(coalesce_gap_blocks=0))
    assert res.n_active > 0
    with pytest.raises(ValueError):
        QueryOptions(coalesce_gap_blocks=-1)


# ---------------------------------------------------------------------------
# CRC strategies agree with zlib bit-for-bit
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("record_size", [4, 8, 9, 16, 64, 101, 734])
@pytest.mark.parametrize("n", [0, 1, 5, 300, VECTOR_CRC_MIN_RECORDS + 1])
def test_record_crcs_match_zlib(record_size, n):
    rng = np.random.default_rng(record_size * 1000 + n)
    blob = rng.integers(0, 256, size=record_size * n, dtype=np.uint8).tobytes()
    got = compute_record_crcs(blob, record_size)
    ref = [
        zlib.crc32(blob[p * record_size : (p + 1) * record_size])
        for p in range(n)
    ]
    assert list(got) == ref
    if n and record_size >= 4:
        view = np.frombuffer(blob, dtype=np.uint8).reshape(n, record_size)
        assert list(_vectorized_record_crcs(view, record_size)) == ref


def test_vector_dispatch_bounds():
    """The hybrid only vectorizes where measurement says it wins."""
    assert 4 <= VECTOR_CRC_MAX_RECORD_SIZE < 734
    assert VECTOR_CRC_MIN_RECORDS > 1


def test_cum_crcs_chain_and_verify_span():
    rec, n = 9, 200
    rng = np.random.default_rng(42)
    blob = rng.integers(0, 256, size=rec * n, dtype=np.uint8).tobytes()
    _, cum = compute_crc_tables(blob, rec)
    assert cum[0] == 0 and len(cum) == n + 1
    # Chained build from two halves equals the one-shot table.
    half = (n // 2) * rec
    _, c2 = compute_crc_tables(blob[half:], rec, initial=int(cum[n // 2]))
    assert np.array_equal(cum[n // 2 :], c2)
    # Span [a, b) verifies with one zlib call.
    for a, b in [(0, n), (3, 17), (n - 1, n), (5, 5)]:
        span = blob[a * rec : b * rec]
        assert zlib.crc32(span, int(cum[a])) == int(cum[b])


def test_dataset_verify_span_detects_corruption(sphere_dataset):
    checks = sphere_dataset.checksums
    rec = sphere_dataset.codec.record_size
    base = sphere_dataset.base_offset
    good = sphere_dataset.device.read(base, 10 * rec)
    assert checks.verify_span(0, good, rec) is True
    bad = bytearray(good)
    bad[3 * rec + 5] ^= 0xFF
    assert checks.verify_span(0, bytes(bad), rec) is False
    # Without the cumulative table the answer is "unknown", not "ok".
    checks_v1 = type(checks)(
        record_crcs=checks.record_crcs, brick_crcs=checks.brick_crcs
    )
    assert checks_v1.verify_span(0, good, rec) is None


# ---------------------------------------------------------------------------
# Shared-memory pipeline: bit-identical meshes
# ---------------------------------------------------------------------------


def _mc_inputs(shape=(72, 72, 72), metacell=(5, 5, 5), lam=0.5):
    vol = sphere_field(shape)
    ds = build_indexed_dataset(vol, metacell)
    qr = execute_query(ds, lam)
    values = ds.codec.values_grid(qr.records)
    origins = ds.meta.vertex_origins(qr.records.ids)
    return ds, values, origins


@pytest.mark.parametrize("opts", [
    PipelineOptions(workers=1, batch_chunks=1),
    PipelineOptions(workers=2, batch_chunks=1),
    PipelineOptions(workers=3, batch_chunks=2),
])
def test_pipelined_mc_bit_identical(opts):
    ds, values, origins = _mc_inputs()
    lam = 0.5
    ref_mesh, ref_normals = marching_cubes_batch(
        values, lam, origins, spacing=ds.meta.spacing,
        world_origin=ds.meta.origin, with_normals=True,
    )
    mesh, normals = pipelined_marching_cubes(
        values, lam, origins, spacing=ds.meta.spacing,
        world_origin=ds.meta.origin, with_normals=True, options=opts,
    )
    assert np.array_equal(ref_mesh.vertices, mesh.vertices)
    assert np.array_equal(ref_mesh.faces, mesh.faces)
    assert np.array_equal(ref_normals, normals)


def test_pipelined_mc_small_batch_falls_back_inline():
    ds, values, origins = _mc_inputs(shape=(24, 24, 24))
    assert len(values) <= PipelineOptions().job_metacells
    ref = marching_cubes_batch(
        values, 0.5, origins, spacing=ds.meta.spacing, world_origin=ds.meta.origin
    )
    got = pipelined_marching_cubes(
        values, 0.5, origins, spacing=ds.meta.spacing, world_origin=ds.meta.origin
    )
    assert np.array_equal(ref.vertices, got.vertices)
    assert np.array_equal(ref.faces, got.faces)


def test_pipeline_options_validate():
    with pytest.raises(ValueError):
        PipelineOptions(workers=0)
    with pytest.raises(ValueError):
        PipelineOptions(batch_chunks=0)


# ---------------------------------------------------------------------------
# The headline property: three execution modes, one result
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("fault_spec", [None, "transient=0.05,seed=5"])
def test_extraction_three_ways_identical(seed, fault_spec):
    """Serial, coalesced, and shm-pipelined extraction: byte-identical
    meshes and identical modeled block charges, healthy or faulty."""
    vol = pressure_like((32, 32, 32), seed=seed)

    def fresh_pipeline():
        ds = build_indexed_dataset(vol, (5, 5, 5))
        if fault_spec:
            ds.device = FaultInjectingDevice(
                ds.device, FaultPlan.from_spec(fault_spec)
            )
        return IsosurfacePipeline(ds)

    lam = 0.5 * float(fresh_pipeline().dataset.tree.endpoints[-1])
    runs = {
        "serial": fresh_pipeline().extract(lam),
        "coalesced": fresh_pipeline().extract(
            lam, options=QueryOptions(coalesce_gap_blocks=8)
        ),
        "pipelined": fresh_pipeline().extract(
            lam,
            options=QueryOptions(
                coalesce_gap_blocks=8,
                pipeline=PipelineOptions(workers=2, batch_chunks=1),
            ),
        ),
    }
    ref = runs["serial"]
    for name, res in runs.items():
        assert np.array_equal(ref.mesh.vertices, res.mesh.vertices), name
        assert np.array_equal(ref.mesh.faces, res.mesh.faces), name
        assert _stats_dict(ref.query.io_stats) == _stats_dict(res.query.io_stats), name


def test_cluster_request_with_coalesce_and_pipeline():
    vol = sphere_field((40, 40, 40))
    base_cl = SimulatedCluster(vol, p=3, replication=2)
    tuned_cl = SimulatedCluster(vol, p=3, replication=2)
    base = base_cl.extract(0.5, ExtractRequest(keep_meshes=True))
    tuned = tuned_cl.extract(0.5, ExtractRequest(
        keep_meshes=True, coalesce_gap_blocks=4,
        pipeline=PipelineOptions(workers=2),
    ))
    for a, b in zip(base.meshes, tuned.meshes):
        assert np.array_equal(a.vertices, b.vertices)
        assert np.array_equal(a.faces, b.faces)
    for ma, mb in zip(base.nodes, tuned.nodes):
        assert ma.io_stats.blocks_read == mb.io_stats.blocks_read
        assert ma.io_stats.seeks == mb.io_stats.seeks


# ---------------------------------------------------------------------------
# mp backend: path shipping
# ---------------------------------------------------------------------------


def test_node_task_accepts_path_and_legacy_tuple(tmp_path, sphere_volume):
    from repro.core.persistence import build_persistent_dataset

    ds = build_persistent_dataset(sphere_volume, tmp_path, (5, 5, 5))
    assert ds.source_dir == str(tmp_path)
    by_obj = node_task((ds, 0.5))
    by_path = node_task((str(tmp_path), 0.5, None))
    assert by_obj.n_triangles == by_path.n_triangles
    assert np.array_equal(by_obj.vertices, by_path.vertices)
    assert by_obj.blocks_read == by_path.blocks_read


def test_extract_parallel_mp_ships_paths(tmp_path, sphere_volume):
    from repro.core.persistence import build_persistent_dataset, load_dataset

    build_persistent_dataset(sphere_volume, tmp_path, (5, 5, 5))
    dss = [load_dataset(tmp_path), load_dataset(tmp_path)]
    inline = extract_parallel_mp(dss, 0.5, processes=1)
    pooled = extract_parallel_mp(dss, 0.5, processes=2)
    for a, b in zip(inline, pooled):
        assert np.array_equal(a.vertices, b.vertices)
        assert np.array_equal(a.faces, b.faces)


def test_extract_parallel_mp_striped_in_memory(sphere_volume):
    dss = build_striped_datasets(sphere_volume, 3, (5, 5, 5))
    inline = extract_parallel_mp(dss, 0.5, processes=1)
    pooled = extract_parallel_mp(
        dss, 0.5, processes=3, pipeline=PipelineOptions(workers=2)
    )
    assert [o.node_rank for o in pooled] == [0, 1, 2]
    for a, b in zip(inline, pooled):
        assert np.array_equal(a.vertices, b.vertices)
        assert np.array_equal(a.faces, b.faces)
