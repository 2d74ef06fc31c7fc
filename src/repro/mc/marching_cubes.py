"""Vectorized Marching Cubes over grids and metacell batches.

Two entry points:

* :func:`marching_cubes` — extract from one full grid, with vertices
  welded globally through lattice-edge identification (every crossing on
  a lattice edge is computed once and shared by all incident cells), so
  the output is an indexed, watertight mesh with no duplicate vertices.

* :func:`marching_cubes_batch` — extract from a *batch* of metacell
  payloads at once (the shape in which the out-of-core query delivers
  active data).  Welding happens within each metacell; across metacells,
  boundary vertices coincide exactly (shared vertex layers + identical
  interpolation inputs), so the concatenated surface is crack-free even
  though it is not globally indexed — the same property the paper relies
  on for embarrassingly parallel triangulation.

The case tables come from :mod:`repro.mc.tables`, derived — not
transcribed — at import time.

One id space
------------
The kernel (the ``mc-batch`` backend of :mod:`repro.mc.backends`) works
on a chunk of ``b`` metacells as one ``(b, nx, ny, nz)`` value lattice of
``n`` points, and every index it handles is a flat offset into that
lattice:

* a **cell** is named by the offset of its low corner; the high layer of
  each axis holds no cell and is zero padding;
* a **lattice edge** of axis ``a`` is named by ``a * n`` plus the offset
  of its low end, so ascending edge ids are family-major, C order within
  a family — the vertex order of the output.

Three passes speak it.  *Classify* (:func:`above_iso`,
:func:`_cell_codes`, :func:`_edge_crossings`): one sign test, then each
cell's 8 corner signs are packed separably into a uint8 code at the
cell's own offset and each family's crossing mask is one shifted xor, so
``flatnonzero`` of either *is* the compacted id list.  *Count*:
``_N_TRI[code]`` and a prefix sum give every triangle its row of the flat
case table.  *Generate*, over survivors only: crossing vertices are
interpolated from payload samples gathered in their native dtype, and a
triangle corner's vertex is ``vid[cell + _edge_offsets(...)[row]]`` — one
table, one add, one gather.  Triangles are emitted cell-major in table
order; vertex and triangle numbering is pinned by
``tests/test_mc_differential.py`` against the kernel this one replaced.
"""

from __future__ import annotations

import math

import numpy as np

from repro.mc.geometry import TriangleMesh
from repro.mc.tables import (
    CORNERS,
    EDGE_AXIS,
    EDGE_CELL_OFFSET,
    MAX_TRI,
    N_TRI,
    TRI_TABLE_PADDED,
)

#: Metacells triangulated per call in the batch path, bounding memory.
#: Tunable per request via ``QueryOptions.batch_chunk`` /
#: ``ExtractRequest.batch_chunk``.
DEFAULT_BATCH_CHUNK = 512

#: Flat per-case triangle table: the (edge, edge, edge) triples of every
#: MC case concatenated in case order.
_TRI_ROWS = TRI_TABLE_PADDED[
    np.arange(MAX_TRI)[None, :] < N_TRI[:, None]
].reshape(-1, 3)

#: Axis and cell-relative (di, dj, dk) of every triangle-corner edge in
#: :data:`_TRI_ROWS` — what :func:`_edge_offsets` turns into id offsets.
_ROW_AXIS = EDGE_AXIS[_TRI_ROWS]
_ROW_CELL_OFFSET = EDGE_CELL_OFFSET[_TRI_ROWS]

#: :func:`_cell_codes` packs corner (dx, dy, dz) into bit ``4dx + 2dy +
#: dz``; the MC tables number corners by :data:`~repro.mc.tables.CORNERS`.
#: The permutation between the two is folded into the per-code tables
#: here, once: ``_N_TRI[code]`` triangles ending before row
#: ``_TRI_END[code]`` of :data:`_TRI_ROWS`.
_MC_CASE = sum(
    ((np.arange(256) >> int(dx * 4 + dy * 2 + dz)) & 1) << bit
    for bit, (dx, dy, dz) in enumerate(CORNERS)
)
_N_TRI = N_TRI[_MC_CASE]
_TRI_END = np.cumsum(N_TRI)[_MC_CASE]


def above_iso(values: np.ndarray, iso: float) -> np.ndarray:
    """``values > iso`` compared in float64, as a bool array.

    The one sign test of both kernels and :func:`count_active_cells`.
    Integer payloads (the quantized codecs this repo stores) are compared
    against an integer threshold in their own dtype — ``v > iso`` iff
    ``v >= floor(iso) + 1`` — which skips the float promotion of the whole
    chunk; float payloads are compared against a float64 ``iso`` so a
    float32 sample is never judged against a rounded isovalue.
    """
    if values.dtype.kind in "ui" and math.isfinite(iso):
        threshold = math.floor(iso) + 1
        info = np.iinfo(values.dtype)
        if threshold <= info.min:
            return np.ones(values.shape, dtype=bool)
        if threshold > info.max:
            return np.zeros(values.shape, dtype=bool)
        return values >= values.dtype.type(threshold)
    return values > np.float64(iso)


def _clear_high_layer(flat: np.ndarray, shape, axes) -> None:
    """Zero the last layer of each of ``axes`` (1..3) of a flat lattice."""
    lattice = flat.reshape(shape)
    for axis in axes:
        lattice[(slice(None),) * axis + (slice(-1, None),)] = 0


def _cell_codes(pos: np.ndarray, shape, code: np.ndarray) -> np.ndarray:
    """Pack every cell's 8 corner signs into ``code`` at the cell's id.

    ``pos`` is the flat sign lattice of ``shape = (b, nx, ny, nz)``.
    Three shrinking shifted-or passes over the flat array (z, then y,
    then x) build bit ``4dx + 2dy + dz`` from corner (dx, dy, dz); a pass
    wraps across rows only into slots of the high layers, which are then
    cleared — so a cell is sign-mixed iff ``0 < code < 255`` and padding
    never is.  Returns ``code``.
    """
    _, _, ny, nz = shape
    signs = pos.view(np.uint8)
    # Shifts are written as multiplies: numpy's uint8 multiply is SIMD,
    # its uint8 shift a scalar loop ten times slower.
    np.multiply(signs[1:], 2, out=code[:-1])
    code[:-1] |= signs[:-1]
    for stride, scale in ((nz, 4), (ny * nz, 16)):
        code[:-stride] |= code[stride:] * np.uint8(scale)
    _clear_high_layer(code, shape, (1, 2, 3))
    return code


def _mixed(code: np.ndarray) -> np.ndarray:
    """Codes that are neither 0 nor 255 (uint8 wrap-around add)."""
    return (code + np.uint8(1)) > 1


def _edge_crossings(pos: np.ndarray, shape, cross: np.ndarray) -> None:
    """Mark every sign-crossing lattice edge in ``cross`` (3, n) at its id.

    One shifted xor per family over the flat sign lattice; it wraps
    across rows into the family's own high layer, which holds no edge and
    is cleared.
    """
    _, _, ny, nz = shape
    for axis, stride in enumerate((ny * nz, nz, 1)):
        family = cross[axis]
        np.bitwise_xor(pos[:-stride], pos[stride:], out=family[:-stride])
        _clear_high_layer(family, shape, (axis + 1,))


def _edge_offsets(n: int, strides) -> np.ndarray:
    """``(3, rows)`` id offset, from a cell's id, of each triangle-corner
    edge of :data:`_TRI_ROWS` on a lattice of ``n`` points."""
    offsets = _ROW_AXIS * n + _ROW_CELL_OFFSET @ np.asarray(strides)
    return np.ascontiguousarray(offsets.T)


def _unit_rows(vectors: np.ndarray) -> np.ndarray:
    """Rows scaled to unit length (near-zero rows left as they are)."""
    norms = np.linalg.norm(vectors, axis=1, keepdims=True)
    norms[norms < 1e-12] = 1.0
    return vectors / norms


def _crossing_normals(values, lo, hi, t) -> np.ndarray:
    """Unit normals at the crossings: the chunk's central-difference
    gradient, interpolated along each edge and negated to point toward
    the < iso side."""
    grads = np.stack(
        np.gradient(values.astype(np.float64), axis=(1, 2, 3)), axis=-1
    ).reshape(-1, 3)
    t = t[:, None]
    return _unit_rows(-(grads[lo] * (1 - t) + grads[hi] * t))


def _lattice_buffers(n: int) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """``(code, cross, vid)`` for chunks of up to ``n`` lattice points,
    shared by the chunks of one call.  ``vid`` (edge id -> vertex id) is
    all -1 between chunks: a chunk resets exactly the entries it set."""
    return (
        np.zeros(n, dtype=np.uint8),
        np.zeros((3, n), dtype=bool),
        np.full(3 * n, -1, dtype=np.int32),
    )


def _extract_chunk(
    values: np.ndarray,
    iso: float,
    origins: np.ndarray,
    with_normals: bool,
    buffers,
) -> "tuple[np.ndarray, np.ndarray, np.ndarray | None]":
    """Marching Cubes over one chunk ``values`` of shape (b, nx, ny, nz).

    Returns ``(vertices, faces, normals-or-None)`` in lattice units with
    the (b, 3) float64 ``origins`` applied.  ``vertices`` (3, V) float64
    and ``faces`` (3, T) int32 are component-major — every pass below
    runs over contiguous rows — and ``faces`` indexes this chunk's
    vertices; ``normals`` is (V, 3).  ``buffers`` come from
    :func:`_lattice_buffers` and may be larger than the chunk (the tail
    chunk of a call is shorter): only their first ``n`` points are used.

    With ``with_normals`` the third element carries per-vertex unit
    normals from the chunk's own payload gradient — no global volume
    required.
    """
    shape = values.shape
    _, nx, ny, nz = shape
    n = values.size
    strides = (ny * nz, nz, 1)
    code, cross, vid = buffers[0][:n], buffers[1][:, :n], buffers[2]

    # --- classify: cell codes and crossing masks on the value lattice ------
    pos = above_iso(values, iso).reshape(-1)
    active = np.flatnonzero(_mixed(_cell_codes(pos, shape, code)))
    if len(active) == 0:
        return (
            np.empty((3, 0)),
            np.empty((3, 0), dtype=np.int32),
            np.empty((0, 3)) if with_normals else None,
        )
    _edge_crossings(pos, shape, cross)
    edge = np.flatnonzero(cross)
    families = [
        slice(*np.searchsorted(edge, (axis * n, (axis + 1) * n)))
        for axis in range(3)
    ]
    vid[edge] = np.arange(len(edge), dtype=np.int32)

    # --- generate vertices: one per crossing edge, in edge-id order --------
    lo = edge.copy()
    hi = np.empty_like(edge)
    for axis, family in enumerate(families):
        lo[family] -= axis * n
        np.add(lo[family], strides[axis], out=hi[family])
    samples = values.reshape(-1)
    s1 = np.take(samples, lo).astype(np.float64)
    s2 = np.take(samples, hi).astype(np.float64)
    s2 -= s1
    t = np.subtract(iso, s1, out=s1)
    t /= s2  # (iso - s1) / (s2 - s1), in the two sample buffers
    # (i, j, k) by integer division of the offsets: a per-point
    # coordinate table would cost more memory than the payload itself.
    row = lo // nz
    plane = row // ny
    metacell = plane // nx
    vertices = np.empty((3, len(edge)))
    for axis, (whole, part, extent) in enumerate(
        ((plane, metacell, nx), (row, plane, ny), (lo, row, nz))
    ):
        np.subtract(whole, part * extent, out=vertices[axis])
        vertices[axis, families[axis]] += t[families[axis]]
        vertices[axis] += np.take(origins[:, axis], metacell)
    normals = _crossing_normals(values, lo, hi, t) if with_normals else None

    # --- count + prefix sum, then generate triangles -----------------------
    case = code[active]
    counts = np.take(_N_TRI, case)
    rows = np.repeat(np.take(_TRI_END, case) - np.cumsum(counts), counts)
    rows += np.arange(len(rows))
    corner = np.take(_edge_offsets(n, strides), rows, axis=1)
    corner += np.repeat(active, counts)
    faces = np.take(vid, corner)
    vid[edge] = -1
    if faces.min(initial=0) < 0:
        raise AssertionError(
            "triangle references a lattice edge without a crossing — "
            "case table / crossing mask inconsistency"
        )
    return vertices, faces, normals


def marching_cubes(
    values: np.ndarray,
    iso: float,
    origin=(0.0, 0.0, 0.0),
    spacing=(1.0, 1.0, 1.0),
) -> TriangleMesh:
    """Extract the isosurface of a full grid as a welded indexed mesh.

    Parameters
    ----------
    values:
        ``(nx, ny, nz)`` scalar field (vertex samples).
    iso:
        Isovalue; a cell is active iff ``iso`` strictly separates vertex
        values (``v > iso`` on one side, ``v <= iso`` on the other).
    origin, spacing:
        World placement of the grid.

    Returns
    -------
    TriangleMesh
        With normals pointing toward the ``< iso`` side.
    """
    values = np.asarray(values)
    if values.ndim != 3:
        raise ValueError(f"expected a 3D grid, got shape {values.shape}")
    mesh, _ = _extract_batch_chunks(values[None], float(iso), np.zeros((1, 3)))
    return _apply_world_transform(mesh, None, spacing, origin, False)


def marching_cubes_batch(
    values: np.ndarray,
    iso: float,
    origins: np.ndarray,
    spacing=(1.0, 1.0, 1.0),
    world_origin=(0.0, 0.0, 0.0),
    chunk: int = DEFAULT_BATCH_CHUNK,
    with_normals: bool = False,
) -> "TriangleMesh | tuple[TriangleMesh, np.ndarray]":
    """Extract from a batch of equally-shaped sub-grids (metacells).

    Parameters
    ----------
    values:
        ``(n, mx, my, mz)`` stacked metacell payloads.
    iso:
        Isovalue.
    origins:
        ``(n, 3)`` lattice origin (in vertex-index units of the parent
        volume) of each metacell.
    spacing, world_origin:
        World placement of the parent volume.
    chunk:
        Metacells processed per vectorized pass (memory bound).
        Callers tune it per request via ``QueryOptions.batch_chunk``;
        the output geometry is identical for every chunk size (only
        vertex numbering, and hence the exact byte layout, follows the
        chunk boundaries).
    with_normals:
        Also return per-vertex unit normals computed from each
        metacell's *own* payload gradient — the smooth-shading input a
        cluster node can produce without the global volume.

    Returns
    -------
    TriangleMesh
        Concatenation of all per-metacell surfaces.  Coincident
        vertices on shared metacell boundaries are *not* merged (call
        :meth:`TriangleMesh.weld` if a globally indexed mesh is needed).
        With ``with_normals=True``: ``(mesh, normals)``.
    """
    values = np.asarray(values)
    if values.ndim != 4:
        raise ValueError(f"expected (n, mx, my, mz) batch, got shape {values.shape}")
    origins = np.asarray(origins, dtype=np.float64).reshape(len(values), 3)
    if chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")

    mesh, normals = _extract_batch_chunks(
        values, float(iso), origins, chunk, with_normals
    )
    return _apply_world_transform(mesh, normals, spacing, world_origin, with_normals)


def _extract_batch_chunks(
    values: np.ndarray,
    iso: float,
    origins: np.ndarray,
    chunk: int = DEFAULT_BATCH_CHUNK,
    with_normals: bool = False,
) -> "tuple[TriangleMesh, np.ndarray | None]":
    """Chunked extraction in lattice units, before world placement.

    Cuts the metacell stream on ``chunk`` boundaries and concatenates in
    stream order.  Returns ``(mesh, normals-or-None)`` with vertices
    still in vertex-index units.  The kernel proves every face index in
    range, so the mesh is assembled without a bounds rescan.
    """
    n_chunk = min(chunk, len(values)) * int(np.prod(values.shape[1:]))
    buffers = _lattice_buffers(n_chunk)
    parts = [
        _extract_chunk(
            values[s : s + chunk], iso, origins[s : s + chunk], with_normals, buffers
        )
        for s in range(0, len(values), chunk)
    ]
    # The kernel works component-major; one transposing pass per chunk
    # lands its output in the final C-order arrays, vertex offset applied.
    vertices = np.empty((sum(v.shape[1] for v, _, _ in parts), 3))
    faces = np.empty((sum(f.shape[1] for _, f, _ in parts), 3), dtype=np.int64)
    v_off = f_off = 0
    for verts, tris, _ in parts:
        v_end, f_end = v_off + verts.shape[1], f_off + tris.shape[1]
        vertices[v_off:v_end] = verts.T
        np.add(tris.T, v_off, out=faces[f_off:f_end])
        v_off, f_off = v_end, f_end
    mesh = TriangleMesh._from_validated(vertices, faces)
    if not with_normals:
        return mesh, None
    normals = [nrm for _, _, nrm in parts]
    return mesh, (np.concatenate(normals) if normals else np.empty((0, 3)))


def _apply_world_transform(
    mesh: "TriangleMesh",
    normals: "np.ndarray | None",
    spacing,
    world_origin,
    with_normals: bool,
) -> "TriangleMesh | tuple[TriangleMesh, np.ndarray]":
    """Place a lattice-unit mesh into world coordinates (final stage).

    Takes ownership of ``mesh``: every caller passes a freshly assembled
    mesh, so the vertices are scaled in place, a column at a time."""
    sp = np.asarray(spacing, dtype=np.float64)
    for axis, offset in enumerate(np.asarray(world_origin, dtype=np.float64)):
        mesh.vertices[:, axis] *= sp[axis]
        mesh.vertices[:, axis] += offset
    if with_normals:
        # Anisotropic spacing shears normals: transform by the inverse
        # scale and renormalize.
        if mesh.n_vertices and not np.allclose(sp, sp[0]):
            normals = _unit_rows(normals / sp)
        return mesh, normals
    return mesh


def count_active_cells(values: np.ndarray, iso: float) -> int:
    """Number of cells whose corner values straddle ``iso`` (no geometry)."""
    values = np.asarray(values)
    if values.ndim == 3:
        values = values[None]
    pos = above_iso(values, float(iso)).reshape(-1)
    code = _cell_codes(pos, values.shape, np.empty(values.size, dtype=np.uint8))
    return int(np.count_nonzero(_mixed(code)))
