"""Structured scalar volumes.

A :class:`Volume` is the unit of input to the preprocessing pipeline: a
dense 3D array of scalars on a regular grid, together with the physical
placement (origin + spacing) used when triangles are emitted in world
coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np


@dataclass
class Volume:
    """A structured scalar field on a regular grid.

    Attributes
    ----------
    data:
        3D array of vertex scalars, indexed ``[x, y, z]``.
    spacing:
        Physical distance between adjacent vertices along each axis.
    origin:
        World position of vertex ``(0, 0, 0)``.
    name:
        Human-readable label used in reports.
    """

    data: np.ndarray
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0)
    name: str = "volume"

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data)
        if self.data.ndim != 3:
            raise ValueError(f"volume data must be 3D, got shape {self.data.shape}")
        if any(s < 2 for s in self.data.shape):
            raise ValueError(
                f"volume must have >= 2 vertices along every axis, got {self.data.shape}"
            )

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape  # type: ignore[return-value]

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def nbytes(self) -> int:
        """Raw size of the field in bytes (the paper's 'original data size')."""
        return self.data.nbytes

    @property
    def n_cells(self) -> int:
        nx, ny, nz = self.shape
        return (nx - 1) * (ny - 1) * (nz - 1)

    def slabs(self, metacell_shape):
        """Slab-source protocol (:class:`repro.core.builder.SlabSource`):
        an in-memory volume is one slab, itself."""
        yield 0, self

    def value_range(self) -> tuple[float, float]:
        return float(self.data.min()), float(self.data.max())

    def quantize(self, dtype: np.dtype | type = np.uint8, name: str | None = None) -> "Volume":
        """Linearly rescale the field into the full range of an integer dtype.

        This mirrors the one-byte / two-byte quantization of the paper's
        datasets.  A constant field maps to 0.
        """
        dtype = np.dtype(dtype)
        if dtype.kind not in "ui":
            raise ValueError(f"quantize target must be an integer dtype, got {dtype}")
        lo, hi = self.value_range()
        info = np.iinfo(dtype)
        if hi == lo:
            q = np.zeros(self.shape, dtype=dtype)
        else:
            scaled = (self.data.astype(np.float64) - lo) * (info.max / (hi - lo))
            q = np.clip(np.rint(scaled), info.min, info.max).astype(dtype)
        return Volume(q, self.spacing, self.origin, name or f"{self.name}_{dtype.name}")

    def downsample(
        self, factor: int, name: str | None = None, method: str = "stride"
    ) -> "Volume":
        """Downsample by an integer factor along every axis.

        Used to regenerate the paper's 256x256x240 down-sampled
        Richtmyer–Meshkov view (Figure 4) from larger fields.

        ``method="stride"`` keeps every factor-th sample (fast, aliased —
        what large-data pipelines typically do); ``method="mean"``
        box-filters factor^3 neighbourhoods before decimating (smoother
        isosurfaces at the cost of one pass over the data).
        """
        if factor < 1:
            raise ValueError(f"downsample factor must be >= 1, got {factor}")
        if method not in ("stride", "mean"):
            raise ValueError(f"unknown downsample method {method!r}")
        if method == "stride" or factor == 1:
            data = self.data[::factor, ::factor, ::factor].copy()
        else:
            nx, ny, nz = (s // factor * factor for s in self.shape)
            trimmed = self.data[:nx, :ny, :nz].astype(np.float64)
            pooled = trimmed.reshape(
                nx // factor, factor, ny // factor, factor, nz // factor, factor
            ).mean(axis=(1, 3, 5))
            if np.issubdtype(self.dtype, np.integer):
                data = np.rint(pooled).astype(self.dtype)
            else:
                data = pooled.astype(self.dtype)
        if any(s < 2 for s in data.shape):
            raise ValueError(
                f"downsample factor {factor} collapses shape {self.shape} below 2 vertices"
            )
        spacing = tuple(s * factor for s in self.spacing)
        return Volume(data, spacing, self.origin, name or f"{self.name}_ds{factor}")

    def world_coords(self, ijk: np.ndarray) -> np.ndarray:
        """Map vertex indices ``(n, 3)`` to world coordinates ``(n, 3)``."""
        ijk = np.asarray(ijk, dtype=np.float64)
        return np.asarray(self.origin) + ijk * np.asarray(self.spacing)

    @staticmethod
    def from_function(
        fn: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
        shape: tuple[int, int, int],
        bounds: tuple[tuple[float, float], tuple[float, float], tuple[float, float]] = (
            (-1.0, 1.0),
            (-1.0, 1.0),
            (-1.0, 1.0),
        ),
        name: str = "analytic",
    ) -> "Volume":
        """Sample an analytic field ``fn(x, y, z)`` on a regular grid.

        ``fn`` must accept broadcastable coordinate arrays and return the
        scalar field.  The physical bounds are preserved through
        ``spacing``/``origin`` so iso-geometry is comparable across
        resolutions.
        """
        nx, ny, nz = shape
        (x0, x1), (y0, y1), (z0, z1) = bounds
        xs = np.linspace(x0, x1, nx)
        ys = np.linspace(y0, y1, ny)
        zs = np.linspace(z0, z1, nz)
        data = fn(xs[:, None, None], ys[None, :, None], zs[None, None, :])
        data = np.broadcast_to(data, shape).astype(np.float64)
        spacing = (
            (x1 - x0) / max(nx - 1, 1),
            (y1 - y0) / max(ny - 1, 1),
            (z1 - z0) / max(nz - 1, 1),
        )
        return Volume(np.ascontiguousarray(data), spacing, (x0, y0, z0), name)
