"""The 6-D strided metacell reduction, kept verbatim as the test oracle.

This is the extrema computation of ``partition_metacells`` as it stood
before the separable sweep in ``repro.grid.metacell`` replaced it: one
overlapping ``(gx, gy, gz, m0, m1, m2)`` window view of the padded
volume, reduced over its three window axes.  It *defines* the output —
which vertices belong to a metacell, that neighbours share their
boundary layer, the dtype of the result — and
``tests/test_partition_differential.py`` holds the production sweep to it
element for element.  Do not optimise or tidy this file.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.grid.metacell import metacell_grid_shape, pad_for_metacells


def metacell_extrema(
    data: np.ndarray, metacell_shape: tuple[int, int, int]
) -> "tuple[np.ndarray, np.ndarray]":
    """Per-metacell ``(vmin, vmax)``, flat C-order over the metacell grid."""
    d = pad_for_metacells(np.ascontiguousarray(data), metacell_shape)
    m0, m1, m2 = metacell_shape
    gx, gy, gz = metacell_grid_shape(data.shape, metacell_shape)
    s0, s1, s2 = d.strides
    view = as_strided(
        d,
        shape=(gx, gy, gz, m0, m1, m2),
        strides=((m0 - 1) * s0, (m1 - 1) * s1, (m2 - 1) * s2, s0, s1, s2),
        writeable=False,
    )
    return (
        view.min(axis=(3, 4, 5)).reshape(-1),
        view.max(axis=(3, 4, 5)).reshape(-1),
    )
