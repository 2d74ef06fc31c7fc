"""Zero-copy read-path invariants and mp path shipping.

* every CRC strategy (per-record loop, vectorized kernel, cumulative
  span table) must agree bit-for-bit with ``zlib.crc32``;
* persisted datasets travel to worker processes as directory paths and
  the workers' meshes equal the inline ones.
"""

from __future__ import annotations

import zlib

import numpy as np
import pytest

from repro.core.builder import build_striped_datasets
from repro.io.layout import (
    VECTOR_CRC_MAX_RECORD_SIZE,
    VECTOR_CRC_MIN_RECORDS,
    _vectorized_record_crcs,
    compute_crc_tables,
    compute_record_crcs,
)
from repro.parallel.mp_backend import extract_parallel_mp, node_task


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
# mp backend: path shipping
# ---------------------------------------------------------------------------


def test_node_task_accepts_path_or_dataset(tmp_path, sphere_volume):
    from repro.core.persistence import build_persistent_dataset

    ds = build_persistent_dataset(sphere_volume, tmp_path, (5, 5, 5))
    assert ds.source_dir == str(tmp_path)
    by_obj = node_task((ds, 0.5))
    by_path = node_task((str(tmp_path), 0.5))
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
    pooled = extract_parallel_mp(dss, 0.5, processes=3)
    assert [o.node_rank for o in pooled] == [0, 1, 2]
    for a, b in zip(inline, pooled):
        assert np.array_equal(a.vertices, b.vertices)
        assert np.array_equal(a.faces, b.faces)
