"""Metacell decomposition (paper Section 4 and Section 7 preamble).

A metacell is a subcube of ``m x m x m`` *vertices* sharing one boundary
vertex layer with each neighbour, so that the ``(m-1)^3`` cells inside a
metacell can be triangulated without touching any other metacell.  For the
Richtmyer–Meshkov dataset the paper uses ``m = 9``: a 2048x2048x1920 grid
becomes 256x256x240 metacells of 734 bytes each.

Volumes whose dimensions are not of the form ``k*(m-1)+1`` are padded by
edge replication.  Replication never introduces isovalue crossings
(adjacent padded values are equal), so the extracted isosurface is
unchanged.

The partition also computes each metacell's scalar interval
``(vmin, vmax)`` — the input to the span-space index — and the constant
mask (``vmin == vmax``) used to cull metacells that can never intersect
any isosurface, the step that halves the Richtmyer–Meshkov dataset on
disk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.grid.volume import Volume


def metacell_grid_shape(
    vol_shape: tuple[int, int, int], metacell_shape: tuple[int, int, int]
) -> tuple[int, int, int]:
    """Number of metacells along each axis for a given volume shape."""
    out = []
    for n, m in zip(vol_shape, metacell_shape):
        if m < 2:
            raise ValueError(f"metacell_shape must have >= 2 vertices per axis, got {m}")
        out.append(max(1, -(-(n - 1) // (m - 1))))  # ceil((n-1)/(m-1))
    return tuple(out)  # type: ignore[return-value]


def pad_for_metacells(
    data: np.ndarray, metacell_shape: tuple[int, int, int]
) -> np.ndarray:
    """Edge-replicate ``data`` so every axis has ``k*(m-1)+1`` vertices."""
    grid = metacell_grid_shape(data.shape, metacell_shape)
    target = tuple(k * (m - 1) + 1 for k, m in zip(grid, metacell_shape))
    pads = tuple((0, t - n) for t, n in zip(target, data.shape))
    if all(p == (0, 0) for p in pads):
        return data
    return np.pad(data, pads, mode="edge")


@dataclass
class MetacellPartition:
    """The metacell view of one volume.

    Attributes
    ----------
    volume:
        The source volume (unpadded).
    metacell_shape:
        Vertex dimensions ``(m, m, m)`` of each metacell.
    grid_shape:
        Metacell counts per axis.
    vmin, vmax:
        Per-metacell scalar extrema, flat C-order over ``grid_shape``.
    """

    volume: Volume
    metacell_shape: tuple[int, int, int]
    grid_shape: tuple[int, int, int]
    vmin: np.ndarray
    vmax: np.ndarray
    _padded: np.ndarray

    @property
    def n_metacells(self) -> int:
        return int(np.prod(self.grid_shape))

    @property
    def ids(self) -> np.ndarray:
        """All metacell ids, flat C-order over the metacell grid."""
        return np.arange(self.n_metacells, dtype=np.uint32)

    def constant_mask(self) -> np.ndarray:
        """True where a metacell has a single scalar value everywhere.

        Such metacells intersect no isosurface for any isovalue that has
        crossings (the extraction convention treats a cell as active only
        when the isovalue strictly separates vertex values), so the
        builder drops them from disk — the paper's ~50% space saving.
        """
        return self.vmin == self.vmax

    def id_to_ijk(self, ids: np.ndarray) -> np.ndarray:
        """Metacell id -> metacell grid coordinates, shape ``(n, 3)``."""
        ids = np.asarray(ids, dtype=np.int64)
        gx, gy, gz = self.grid_shape
        i = ids // (gy * gz)
        j = (ids // gz) % gy
        k = ids % gz
        return np.stack([i, j, k], axis=1)

    def ijk_to_id(self, ijk: np.ndarray) -> np.ndarray:
        ijk = np.asarray(ijk, dtype=np.int64)
        gx, gy, gz = self.grid_shape
        return (ijk[..., 0] * gy + ijk[..., 1]) * gz + ijk[..., 2]

    def vertex_origins(self, ids: np.ndarray) -> np.ndarray:
        """Vertex-index origin of each metacell in the padded volume."""
        steps = np.asarray([m - 1 for m in self.metacell_shape], dtype=np.int64)
        return self.id_to_ijk(ids) * steps

    def extract_values(self, ids: np.ndarray) -> np.ndarray:
        """Gather metacell vertex payloads, shape ``(n, m0*m1*m2)``.

        This is the copy that the preprocessing step serializes; queries
        never call it — they read payloads back from disk.
        """
        d = self._padded
        m0, m1, m2 = self.metacell_shape
        s0, s1, s2 = d.strides
        # Zero-copy (gx, gy, gz, m0, m1, m2) overlapping-window view.
        view = as_strided(
            d,
            shape=(*self.grid_shape, m0, m1, m2),
            strides=((m0 - 1) * s0, (m1 - 1) * s1, (m2 - 1) * s2, s0, s1, s2),
            writeable=False,
        )
        ijk = self.id_to_ijk(ids)
        return view[ijk[:, 0], ijk[:, 1], ijk[:, 2]].reshape(len(ids), -1)


def _sweep_extrema(a, ufunc: np.ufunc, metacell_shape, grid_shape) -> np.ndarray:
    """Reduce a padded volume to one ``ufunc`` extremum per metacell.

    Separable: along each axis the ``g * (m - 1)`` body vertices reduce
    as a ``(g, m - 1)`` reshape, then the boundary layer each metacell
    shares with its successor (``a[m - 1 :: m - 1]``) is folded in.  The
    outermost axis goes first, so every inner loop is a long contiguous
    run and each pass hands the next one ``m - 1`` times less data;
    innermost-first gains nothing over reducing overlapping windows.
    """
    for axis, (m, g) in enumerate(zip(metacell_shape, grid_shape)):
        step = m - 1
        lead = (slice(None),) * axis
        body = a[lead + (slice(0, g * step),)]
        out = ufunc.reduce(
            body.reshape(a.shape[:axis] + (g, step) + a.shape[axis + 1 :]),
            axis=axis + 1,
        )
        a = ufunc(out, a[lead + (slice(step, None, step),)], out=out)
    return a.reshape(-1)


def partition_metacells(
    volume: Volume, metacell_shape: tuple[int, int, int] = (9, 9, 9)
) -> MetacellPartition:
    """Decompose a volume into metacells and compute per-metacell extrema.

    This is the scan pass of the paper's preprocessing: a single pass over
    the data producing, for every metacell, its id and scalar interval.
    """
    if len(metacell_shape) != 3:
        raise ValueError(f"metacell_shape must be 3D, got {metacell_shape}")
    padded = pad_for_metacells(np.ascontiguousarray(volume.data), metacell_shape)
    grid = metacell_grid_shape(volume.shape, metacell_shape)
    return MetacellPartition(
        volume=volume,
        metacell_shape=tuple(int(m) for m in metacell_shape),  # type: ignore[arg-type]
        grid_shape=grid,
        vmin=_sweep_extrema(padded, np.minimum, metacell_shape, grid),
        vmax=_sweep_extrema(padded, np.maximum, metacell_shape, grid),
        _padded=padded,
    )
