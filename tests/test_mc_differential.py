"""The one-id-space ``mc-batch`` kernel emits the replaced kernel's bytes.

``tests/_reference_mc.py`` is ``mc/marching_cubes.py`` as it stood before
the rewrite; it defines the output.  Every case here runs one batch
through both and requires vertices, faces and normals equal **as bytes
and dtypes** — vertex numbering, triangle order and every float bit —
across metacell shapes, chunk sizes (full chunks, tail chunks, empty
chunks between busy ones, buffer reuse), payload dtypes and isovalues on,
between and outside the samples.  The rewrite may only ever change speed
and memory; the second half of the file pins those two too.
"""

import importlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.builder import build_indexed_dataset
from repro.core.query import execute_query
from repro.grid.rm_instability import rm_timestep
from repro.mc.marching_cubes import (
    DEFAULT_BATCH_CHUNK,
    above_iso,
    count_active_cells,
    marching_cubes,
    marching_cubes_batch,
)
from tests import _reference_mc as reference

# ``repro.mc`` re-exports the *function* ``marching_cubes`` under the
# module's name, so ``import repro.mc.marching_cubes as m`` binds the
# function; the white-box case needs the module.
kernel_module = importlib.import_module("repro.mc.marching_cubes")

DTYPES = (np.uint8, np.uint16, np.int16, np.float32, np.float64)
SHAPES = ((2, 2, 2), (2, 3, 2), (3, 2, 4), (5, 9, 3), (4, 4, 4), (9, 9, 9))
CHUNKS = (1, 3, 7, DEFAULT_BATCH_CHUNK)
ISO_KINDS = ("sample", "half", "below", "above")


def assert_same_bytes(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


def assert_same_mesh(got, want, with_normals):
    if with_normals:
        (got, got_normals), (want, want_normals) = got, want
        assert_same_bytes(got_normals, want_normals)
    assert_same_bytes(got.vertices, want.vertices)
    assert_same_bytes(got.faces, want.faces)


def random_batch(b, shape, dtype, seed, quiet=(0, 0)):
    """``(values, origins)``: ``b`` payloads of a narrow value range (so
    samples tie with each other and with the isovalue), metacells
    ``quiet[0]:quiet[1]`` constant (no surface), random lattice origins."""
    rng = np.random.default_rng(seed)
    if np.issubdtype(dtype, np.integer):
        lo = -9 if np.iinfo(dtype).min < 0 else 0
        values = rng.integers(lo, lo + 24, size=(b, *shape)).astype(dtype)
    else:
        values = (rng.normal(size=(b, *shape)) * 6 + 3).astype(dtype)
    values[quiet[0] : quiet[1]] = values.flat[0]
    origins = rng.integers(0, 50, size=(b, 3)) * (np.array(shape) - 1)
    return values, origins


def pick_iso(values, kind, seed):
    sample = float(values.flat[seed % values.size])
    return {
        "sample": sample,
        "half": math.floor(sample) + 0.5,
        "below": float(values.min()) - 1.0,
        "above": float(values.max()) + 1.0,
    }[kind]


@settings(max_examples=150, deadline=None)
@given(
    shape=st.sampled_from(SHAPES),
    b=st.integers(1, 40),
    chunk=st.sampled_from(CHUNKS),
    dtype=st.sampled_from(DTYPES),
    iso_kind=st.sampled_from(ISO_KINDS),
    with_normals=st.booleans(),
    quiet=st.tuples(st.integers(0, 40), st.integers(0, 24)),
    seed=st.integers(0, 2**16),
)
def test_batch_equals_reference(
    shape, b, chunk, dtype, iso_kind, with_normals, quiet, seed
):
    values, origins = random_batch(
        b, shape, dtype, seed, quiet=(quiet[0], quiet[0] + quiet[1])
    )
    iso = pick_iso(values, iso_kind, seed)
    args = dict(
        spacing=(1.0, 0.5, 2.0), world_origin=(-3.0, 0.25, 7.0), chunk=chunk,
        with_normals=with_normals,
    )
    assert_same_mesh(
        marching_cubes_batch(values, iso, origins, **args),
        reference.marching_cubes_batch(values, iso, origins, **args),
        with_normals,
    )


@settings(max_examples=60, deadline=None)
@given(
    shape=st.tuples(st.integers(2, 9), st.integers(2, 9), st.integers(2, 9)),
    dtype=st.sampled_from(DTYPES),
    iso_kind=st.sampled_from(ISO_KINDS),
    seed=st.integers(0, 2**16),
)
def test_whole_grid_equals_reference(shape, dtype, iso_kind, seed):
    values = random_batch(1, shape, dtype, seed)[0][0]
    iso = pick_iso(values, iso_kind, seed)
    args = dict(origin=(1.0, -2.0, 0.5), spacing=(0.5, 1.0, 3.0))
    assert_same_mesh(
        marching_cubes(values, iso, **args),
        reference.marching_cubes(values, iso, **args),
        False,
    )


@pytest.mark.parametrize("shape", [(1, 5, 5), (5, 1, 5), (5, 5, 1), (2, 2, 2)])
def test_one_vertex_thick_and_single_cell_grids(shape):
    values = np.arange(np.prod(shape), dtype=np.uint8).reshape(shape)
    for iso in (3.5, 300.0):
        got = marching_cubes(values, iso)
        want = reference.marching_cubes(values, iso)
        assert_same_mesh(got, want, False)


def test_strided_payloads_equal_their_contiguous_copies():
    values, origins = random_batch(12, (5, 9, 3), np.uint8, seed=3)
    views = {
        "transposed": np.ascontiguousarray(values.transpose(0, 3, 2, 1)).transpose(0, 3, 2, 1),
        "sliced": np.repeat(values, 2, axis=3)[..., ::2],
    }
    want = reference.marching_cubes_batch(values, 11.5, origins, chunk=5)
    for name, view in views.items():
        assert not view.flags.c_contiguous, name
        assert_same_mesh(marching_cubes_batch(view, 11.5, origins, chunk=5), want, False)


@pytest.fixture(scope="module")
def rm_query_batch():
    """One real query's record batch: quantized RM data at the paper's
    9x9x9 metacell size, as ``triangulate_records`` hands it to a kernel."""
    ds = build_indexed_dataset(rm_timestep(250, shape=(49, 49, 45)), (9, 9, 9))
    lam = 128.0
    records = execute_query(ds, lam).records
    assert len(records) > 50
    return ds.codec.values_grid(records), lam, ds.meta.vertex_origins(records.ids), ds.meta


@pytest.mark.parametrize("with_normals", [False, True])
@pytest.mark.parametrize("chunk", [DEFAULT_BATCH_CHUNK, 37])
def test_rm_query_batch_at_paper_metacell_size(rm_query_batch, chunk, with_normals):
    values, lam, origins, meta = rm_query_batch
    args = dict(
        spacing=meta.spacing, world_origin=meta.origin, chunk=chunk,
        with_normals=with_normals,
    )
    got = marching_cubes_batch(values, lam, origins, **args)
    want = reference.marching_cubes_batch(values, lam, origins, **args)
    assert (got[0] if with_normals else got).n_triangles > 1000
    assert_same_mesh(got, want, with_normals)


def test_chunk_leaves_the_shared_buffers_clean():
    """A chunk resets exactly the ``vid`` entries it set and leaves no
    cell code or crossing bit in a high layer — what lets the next
    (possibly shorter) chunk of the call reuse the buffers unfilled."""
    values, origins = random_batch(7, (4, 5, 3), np.uint8, seed=11)
    buffers = kernel_module._lattice_buffers(values.size)
    for stop in (7, 4):
        verts, faces, _ = kernel_module._extract_chunk(
            values[:stop], 11.5, origins[:stop].astype(np.float64), False, buffers
        )
        assert faces.shape[1] > 0 and faces.max() == verts.shape[1] - 1
        code, cross, vid = buffers
        assert (vid == -1).all()
        code = code[: values[:stop].size].reshape(stop, 4, 5, 3)
        assert not code[:, -1].any() and not code[:, :, -1].any() and not code[..., -1].any()
        cross = cross[:, : values[:stop].size].reshape(3, stop, 4, 5, 3)
        assert not cross[0, :, -1].any()
        assert not cross[1, :, :, -1].any()
        assert not cross[2, :, :, :, -1].any()


# ---------------------------------------------------------------------------
# The one sign test
# ---------------------------------------------------------------------------

SIGN_DTYPES = (
    np.uint8, np.int8, np.uint16, np.int16, np.uint32, np.int32, np.int64,
    np.float16, np.float32, np.float64,
)


@settings(max_examples=200, deadline=None)
@given(
    dtype=st.sampled_from(SIGN_DTYPES),
    k=st.integers(-300, 60000),
    shift=st.sampled_from((-0.5, 0.0, 0.5)),
    seed=st.integers(0, 2**16),
)
def test_above_iso_is_the_float64_comparison(dtype, k, shift, seed):
    rng = np.random.default_rng(seed)
    if np.issubdtype(dtype, np.integer):
        info = np.iinfo(dtype)
        lo, hi = max(info.min, k - 3), min(info.max, k + 3)
        if lo > hi:
            lo, hi = info.min, min(info.max, info.min + 6)
        values = rng.integers(lo, hi, size=40, endpoint=True).astype(dtype)
        values[:2] = info.min, info.max
    else:
        values = (k + rng.integers(-3, 4, size=40) * 0.5).astype(dtype)
        values[:3] = np.nan, np.inf, -np.inf
    for iso in (k + shift, float(np.float32(0.1)) - 1e-12, -1e300, 1e300, -math.inf, math.inf):
        want = values.astype(np.float64) > iso
        got = above_iso(values, iso)
        assert got.dtype == np.bool_ and got.shape == values.shape
        assert np.array_equal(got, want), (dtype, iso)


def test_float32_samples_are_not_judged_against_a_rounded_isovalue():
    """``float32(0.1) > 0.1`` in float64, where the interpolation runs;
    the replaced kernel compared in float32, called the sample *not*
    above, and interpolated a t outside [0, 1]."""
    values = np.zeros((2, 2, 2), dtype=np.float32)
    values[0] = np.float32(0.1)
    mesh = marching_cubes(values, 0.1)
    assert mesh.n_triangles == 2
    assert (mesh.vertices[:, 0] >= 0).all() and (mesh.vertices[:, 0] <= 1).all()
    assert reference.marching_cubes(values, 0.1).n_triangles == 0


# ---------------------------------------------------------------------------
# count_active_cells and the memory of the classify pass
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dtype", DTYPES)
def test_count_active_cells_equals_reference(dtype):
    values, _ = random_batch(9, (5, 9, 3), dtype, seed=5, quiet=(2, 5))
    for kind in ISO_KINDS:
        iso = pick_iso(values, kind, seed=77)
        want = reference.count_active_cells(values, iso)
        assert count_active_cells(values, iso) == want
        assert count_active_cells(values[0], iso) == reference.count_active_cells(values[0], iso)
    assert count_active_cells(values, pick_iso(values, "half", 77)) > 0


@pytest.fixture(scope="module")
def rm_volume_97():
    return rm_timestep(250, shape=(97, 97, 89)).data


def traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def test_count_active_cells_stays_in_the_payload_dtype(rm_volume_97):
    """No float64 copy of a one-byte volume (the replaced function's
    ``np.asarray(values, dtype=np.float64)`` read 15.8x)."""
    assert rm_volume_97.dtype == np.uint8
    peak, count = traced_peak(lambda: count_active_cells(rm_volume_97, 128))
    assert count == reference.count_active_cells(rm_volume_97, 128) > 0
    assert peak <= 8 * rm_volume_97.nbytes


def test_whole_grid_extraction_memory_per_lattice_point(rm_volume_97):
    """The benchmark's in-core oracle runs ``marching_cubes`` on a whole
    volume in the measured process, so every byte per lattice point here
    is ``peak_rss_mb`` there: the replaced kernel peaks at 30.9 B/point
    (output included), a per-point float64 coordinate table at ~52."""
    peak, mesh = traced_peak(lambda: marching_cubes(rm_volume_97, 128))
    assert mesh.n_triangles > 10_000
    assert peak <= 31 * rm_volume_97.size
