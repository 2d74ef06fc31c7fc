"""The separable sweep computes the reference reduction's extrema.

``tests/_reference_partition.py`` is the 6-D strided window reduction
``partition_metacells`` used before; it defines the output.  Every case
here runs one array through both and requires equal values, equal dtype
and a C-contiguous result: the sweep may only ever change speed.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grid.metacell import (
    _sweep_extrema,
    metacell_grid_shape,
    pad_for_metacells,
    partition_metacells,
)
from repro.grid.rm_instability import rm_timestep
from repro.grid.volume import Volume
from tests import _reference_partition as reference

DTYPES = (np.uint8, np.uint16, np.int16, np.float32, np.float64)


def production_extrema(data, metacell_shape):
    if min(data.shape) >= 2:
        part = partition_metacells(Volume(data), metacell_shape)
        return part.vmin, part.vmax
    # Volume refuses one-vertex axes, but a streamed final slab is padded
    # from one: the sweep itself must take whatever padding produces.
    padded = pad_for_metacells(np.ascontiguousarray(data), metacell_shape)
    grid = metacell_grid_shape(data.shape, metacell_shape)
    return tuple(
        _sweep_extrema(padded, ufunc, metacell_shape, grid)
        for ufunc in (np.minimum, np.maximum)
    )


def assert_same_extrema(data, metacell_shape):
    for got, want in zip(
        production_extrema(data, metacell_shape),
        reference.metacell_extrema(data, metacell_shape),
    ):
        assert got.dtype == want.dtype == data.dtype
        assert got.flags.c_contiguous
        assert np.array_equal(got, want)


def random_field(shape, dtype, layout, seed):
    """Random scalars in the given memory layout; floats carry ±inf."""
    rng = np.random.default_rng(seed)
    full = tuple(2 * s for s in shape) if layout == "sliced" else shape
    if np.issubdtype(dtype, np.integer):
        info = np.iinfo(dtype)
        data = rng.integers(info.min, info.max, size=full, endpoint=True).astype(dtype)
    else:
        data = rng.normal(size=full).astype(dtype)
        data[rng.random(full) < 0.05] = np.inf
        data[rng.random(full) < 0.05] = -np.inf
    if layout == "F":
        data = np.asfortranarray(data)
    elif layout == "sliced":
        data = data[1::2, ::2, 1::2]
    assert data.shape == shape
    return data


@settings(max_examples=150, deadline=None)
@given(
    shape=st.tuples(*[st.integers(1, 20)] * 3),
    metacell_shape=st.tuples(*[st.integers(2, 9)] * 3),
    dtype=st.sampled_from(DTYPES),
    layout=st.sampled_from(["C", "F", "sliced"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_sweep_equals_reference(shape, metacell_shape, dtype, layout, seed):
    assert_same_extrema(random_field(shape, dtype, layout, seed), metacell_shape)


@pytest.mark.parametrize(
    "shape,metacell_shape",
    [
        ((17, 17, 17), (5, 5, 5)),   # exact fit, no padding
        ((3, 4, 5), (9, 9, 9)),      # every axis shorter than a metacell
        ((18, 21, 26), (5, 5, 5)),   # every axis padded
        ((9, 13, 25), (3, 5, 9)),    # anisotropic metacells, exact fit
        ((10, 11, 12), (3, 5, 9)),   # anisotropic metacells, padded
        ((2, 2, 2), (2, 2, 2)),      # one cell
        ((7, 6, 5), (2, 2, 2)),      # metacell == cell: no interior body
    ],
)
@pytest.mark.parametrize("dtype", DTYPES)
def test_named_shapes(shape, metacell_shape, dtype):
    assert_same_extrema(random_field(shape, dtype, "C", 11), metacell_shape)


def test_constant_and_nan_fields():
    assert_same_extrema(np.full((9, 9, 9), 3, dtype=np.uint8), (5, 5, 5))
    data = np.random.default_rng(2).normal(size=(9, 10, 11))
    data[4, 4, 4] = np.nan  # a corner shared by eight metacells
    got = production_extrema(data, (5, 5, 5))
    want = reference.metacell_extrema(data, (5, 5, 5))
    for g, w in zip(got, want):
        assert np.array_equal(g, w, equal_nan=True)
    assert np.isnan(got[0]).sum() == 8


def test_rm_volume_at_paper_metacell_size():
    """The benchmark's kind of input: quantized RM data, 9^3 metacells."""
    vol = rm_timestep(250, shape=(49, 49, 45))
    assert_same_extrema(vol.data, (9, 9, 9))
