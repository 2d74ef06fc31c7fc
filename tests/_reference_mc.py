"""The parent ``mc-batch`` kernel, kept verbatim as the differential oracle.

This is ``src/repro/mc/marching_cubes.py`` as it stood before the
one-id-space rewrite (four index spaces: cell lattice, value lattice,
three per-family edge grids, triangle rows; ``_BatchScratch``,
``_edge_gather_tables`` / ``_GATHER_TABLE_CACHE``, ``_mixed_cells_mask``
and the dense/sparse case fork), body unchanged.  Nothing in ``src/``
imports it; ``tests/test_mc_differential.py`` requires the live kernel's
vertices, faces and normals to equal this module's as bytes and dtypes.
"""

from __future__ import annotations

import numpy as np

from repro.mc.geometry import TriangleMesh
from repro.mc.tables import (
    EDGE_AXIS,
    EDGE_CELL_OFFSET,
    MAX_TRI,
    N_TRI,
    TRI_TABLE_PADDED,
)

#: Corner bit order: bit b corresponds to CORNERS[b] of tables.py.
_CORNER_OFFSETS = np.array(
    [
        [0, 0, 0],
        [1, 0, 0],
        [1, 1, 0],
        [0, 1, 0],
        [0, 0, 1],
        [1, 0, 1],
        [1, 1, 1],
        [0, 1, 1],
    ],
    dtype=np.int64,
)

#: Metacells triangulated per call in the batch path, bounding memory.
#: Tunable per request via ``QueryOptions.batch_chunk`` /
#: ``ExtractRequest.batch_chunk``.
DEFAULT_BATCH_CHUNK = 512

#: Flat per-case triangle table: the (edge, edge, edge) triples of every
#: case concatenated in case order, with ``_TRI_START[case]`` the first
#: row of that case.  Replaces the padded-table + boolean-mask gather:
#: triangle rows are addressed directly as
#: ``_TRI_START[case] + 0..N_TRI[case]-1``.
_TRI_ROWS = TRI_TABLE_PADDED[
    np.arange(MAX_TRI)[None, :] < N_TRI[:, None]
].reshape(-1, 3)
_TRI_START = np.zeros(256, dtype=np.int64)
_TRI_START[1:] = np.cumsum(N_TRI[:-1])

#: Edge family (axis) of every triangle-corner edge in :data:`_TRI_ROWS`
#: — shape-independent, so expanded once at import.
_TRI_AXROWS = EDGE_AXIS[_TRI_ROWS]


def _edge_family_shapes(b, nx, ny, nz):
    return (
        (b, nx - 1, ny, nz),  # x edges
        (b, nx, ny - 1, nz),  # y edges
        (b, nx, ny, nz - 1),  # z edges
    )


#: Per-(batch, metacell-shape) affine gather tables, cached across
#: chunks and calls: the batch path sees the same one or two shapes
#: thousands of times per extraction, and rebuilding the weights was a
#: measurable per-chunk Python loop.
_GATHER_TABLE_CACHE: "dict[tuple[int, int, int, int], tuple]" = {}


def _edge_gather_tables(b: int, nx: int, ny: int, nz: int) -> tuple:
    """Precomputed per-shape strides for the edge/corner gathers.

    Returns ``(shapes, offsets, val_strides, fam_strides, d_rows,
    corner_offs)``:

    * ``shapes`` — the three edge-family grid shapes;
    * ``offsets`` — start of each family in the concatenated edge table;
    * ``val_strides`` — C-order element strides of the value grid;
    * ``fam_strides`` (3, 4) — C-order strides of each family grid, so a
      cell's *family base* (the flat id of its (0,0,0)-offset edge in
      family ``a``) is ``offsets[a] + (b,i,j,k) · fam_strides[a]``;
    * ``d_rows`` — :data:`_TRI_ROWS` expanded to each edge's flat offset
      from its cell's family base, i.e. the per-case edge-gather strides:
      edge ``e``'s id is ``base[axis(e)] + d_rows[row, corner]``;
    * ``corner_offs`` (8,) — flat value-grid offset of each cell corner
      relative to the cell's low corner, in corner-bit order.
    """
    key = (b, nx, ny, nz)
    hit = _GATHER_TABLE_CACHE.get(key)
    if hit is not None:
        return hit
    shapes = _edge_family_shapes(b, nx, ny, nz)
    sizes = [int(np.prod(s)) for s in shapes]
    offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
    fam_strides = np.array(
        [(s[1] * s[2] * s[3], s[2] * s[3], s[3], 1) for s in shapes],
        dtype=np.int64,
    )
    val_strides = (nx * ny * nz, ny * nz, nz, 1)
    d_edge = np.empty(len(EDGE_AXIS), dtype=np.int64)
    for e in range(len(EDGE_AXIS)):
        st = fam_strides[int(EDGE_AXIS[e])]
        off = EDGE_CELL_OFFSET[e]
        d_edge[e] = int(off[0]) * st[1] + int(off[1]) * st[2] + int(off[2]) * st[3]
    d_rows = d_edge[_TRI_ROWS]
    corner_offs = np.array(
        [
            dx * val_strides[1] + dy * val_strides[2] + dz * val_strides[3]
            for dx, dy, dz in _CORNER_OFFSETS
        ],
        dtype=np.int64,
    )
    if len(_GATHER_TABLE_CACHE) > 64:
        _GATHER_TABLE_CACHE.clear()
    entry = (shapes, offsets, val_strides, fam_strides, d_rows, corner_offs)
    _GATHER_TABLE_CACHE[key] = entry
    return entry


class _BatchScratch:
    """Reusable per-chunk work buffers for :func:`_extract_batch`.

    The batch path allocates one lattice-edge id table per chunk (three
    edge families over every cell of the chunk — megabytes at the
    default chunk size) plus several crossing-sized interpolation
    temporaries.  Allocating them fresh each chunk costs a page fault
    per touched page; a scratch object handed down by
    :func:`marching_cubes_batch` amortizes that across chunks.

    The edge-id table is kept *sparsely clean*: instead of re-filling
    the whole table with -1 every chunk, the extraction resets exactly
    the entries it set — O(crossings) instead of O(table).
    """

    __slots__ = ("_vid", "_i64a", "_i64b", "_f64a", "_f64b", "_u8a", "_u8b")

    def __init__(self) -> None:
        self._vid = np.empty(0, dtype=np.int64)
        self._i64a = np.empty(0, dtype=np.int64)
        self._i64b = np.empty(0, dtype=np.int64)
        self._f64a = np.empty(0, dtype=np.float64)
        self._f64b = np.empty(0, dtype=np.float64)
        self._u8a = np.empty(0, dtype=np.uint8)
        self._u8b = np.empty(0, dtype=np.uint8)

    def vid(self, n: int) -> np.ndarray:
        """An ``int32`` edge-id table of length ``n``, every entry -1.

        ``int32`` keeps the randomly-gathered table half the size (a
        chunk's crossing count is far below 2**31).  The caller owns
        returning it to the all--1 state (sparse reset of the entries it
        wrote) before the next chunk uses it.
        """
        if len(self._vid) < n:
            self._vid = np.empty(n, dtype=np.int32)
            self._vid.fill(-1)
        return self._vid[:n]

    def _grow(self, name: str, n: int, dtype) -> np.ndarray:
        buf = getattr(self, name)
        if len(buf) < n:
            buf = np.empty(n, dtype=dtype)
            setattr(self, name, buf)
        return buf[:n]

    def i64a(self, n: int) -> np.ndarray:
        return self._grow("_i64a", n, np.int64)

    def i64b(self, n: int) -> np.ndarray:
        return self._grow("_i64b", n, np.int64)

    def f64a(self, n: int) -> np.ndarray:
        return self._grow("_f64a", n, np.float64)

    def f64b(self, n: int) -> np.ndarray:
        return self._grow("_f64b", n, np.float64)

    def u8a(self, n: int) -> np.ndarray:
        return self._grow("_u8a", n, np.uint8)

    def u8b(self, n: int) -> np.ndarray:
        return self._grow("_u8b", n, np.uint8)


def _mixed_cells_mask(pos: np.ndarray) -> np.ndarray:
    """Cells whose 8 corner signs are mixed, via separable any/all
    sweeps (three shrinking passes instead of eight full-lattice ones)."""
    any_x = pos[:, 1:] | pos[:, :-1]
    all_x = pos[:, 1:] & pos[:, :-1]
    any_xy = any_x[:, :, 1:] | any_x[:, :, :-1]
    all_xy = all_x[:, :, 1:] & all_x[:, :, :-1]
    mixed = any_xy[:, :, :, 1:] | any_xy[:, :, :, :-1]
    allc = all_xy[:, :, :, 1:] & all_xy[:, :, :, :-1]
    np.logical_and(mixed, ~allc, out=mixed)
    return mixed


def _extract_batch_arrays(
    values: np.ndarray,
    iso: float,
    origins: np.ndarray,
    with_normals: bool = False,
    scratch: "_BatchScratch | None" = None,
) -> "tuple[np.ndarray, np.ndarray, np.ndarray | None]":
    """Core extraction over ``values`` of shape (B, nx, ny, nz).

    Returns raw ``(vertices, faces, normals-or-None)`` in lattice units
    (``origins`` already applied); :func:`_extract_batch` wraps the
    result in a validated :class:`TriangleMesh`.

    ``origins`` — (B, 3) lattice offsets added to vertex coordinates
    (still in vertex-index units; world scaling is applied by callers).

    With ``with_normals=True`` the third element carries per-vertex unit
    normals from the *local* field gradient (central differences within
    each batch element, linearly interpolated along the crossing edge,
    negated to point toward the < iso side).  Every quantity is
    computable from the element's own payload — no global volume
    required.
    """
    b, nx, ny, nz = values.shape
    pos = values > iso

    # --- active-cell prefilter ---------------------------------------------
    # Runs on the raw payload *before* any cast or contiguous copy, so
    # empty chunks cost three boolean sweeps and nothing else.
    active = np.flatnonzero(_mixed_cells_mask(pos).reshape(-1))
    if len(active) == 0:
        empty = np.empty((0, 3))
        return empty, np.empty((0, 3), dtype=np.int64), (
            np.empty((0, 3)) if with_normals else None
        )

    values = np.ascontiguousarray(values, dtype=np.float64)
    shapes, offsets, val_strides, fam_strides, d_rows, corner_offs = (
        _edge_gather_tables(b, nx, ny, nz)
    )
    scratch = scratch or _BatchScratch()

    grads = None
    if with_normals:
        # (B, nx, ny, nz, 3) central-difference gradient per element.
        gx, gy, gz = np.gradient(values, axis=(1, 2, 3))
        grads = np.stack([gx, gy, gz], axis=-1)

    values_flat = values.reshape(-1)
    pos_flat = np.ascontiguousarray(pos).reshape(-1)

    # --- per-cell case index -------------------------------------------------
    # Dense path for surface-heavy chunks (eight strided uint8 passes
    # over the cell lattice, one gather at the end); sparse path when
    # active cells are rare (eight corner gathers at the active cells
    # only).  `case` lives in scratch until the triangle stage consumes
    # it; no uint8 scratch buffer is touched in between.
    n_act = len(active)
    n_cells = b * (nx - 1) * (ny - 1) * (nz - 1)
    cb, ci, cj, ck = np.unravel_index(active, (b, nx - 1, ny - 1, nz - 1))
    base = scratch.i64a(n_act)
    tmp = scratch.i64b(n_act)
    np.multiply(cb, val_strides[0], out=base)
    np.multiply(ci, val_strides[1], out=tmp)
    base += tmp
    np.multiply(cj, val_strides[2], out=tmp)
    base += tmp
    np.multiply(ck, val_strides[3], out=tmp)
    base += tmp
    if 4 * n_act >= n_cells:
        cell_shape = (b, nx - 1, ny - 1, nz - 1)
        cword = scratch.u8a(n_cells).reshape(cell_shape)
        tmp8 = scratch.u8b(n_cells).reshape(cell_shape)
        pos8 = pos.view(np.uint8)
        for bit, (dx, dy, dz) in enumerate(_CORNER_OFFSETS):
            win = pos8[:, dx : nx - 1 + dx, dy : ny - 1 + dy, dz : nz - 1 + dz]
            if bit == 0:
                np.copyto(cword, win)
            else:
                np.left_shift(win, bit, out=tmp8)
                np.bitwise_or(cword, tmp8, out=cword)
        case = cword.reshape(-1)[active]
    else:
        pos_u8 = pos_flat.view(np.uint8)
        case = scratch.u8a(n_act)
        case.fill(0)
        corner = scratch.u8b(n_act)
        for bit in range(8):
            np.add(base, corner_offs[bit], out=tmp)
            np.take(pos_u8, tmp, out=corner)
            np.left_shift(corner, bit, out=corner)
            np.bitwise_or(case, corner, out=case)
    act_counts = N_TRI[case]

    # Per-cell family bases for the triangle stage, derived from the
    # value-grid base while it is still live in scratch (the crossing
    # loop below reuses the integer buffers): family a differs from the
    # value grid only in axis a's extent, so each base is one
    # multiply-subtract away instead of four stride multiplies.
    bases = np.empty((n_act, 3), dtype=np.int64)
    bx, by, bz = bases[:, 0], bases[:, 1], bases[:, 2]
    np.multiply(cb, val_strides[1], out=bx)
    np.subtract(base, bx, out=bx)  # offsets[0] == 0
    np.multiply(cb, nx, out=tmp)
    tmp += ci  # cb*nx + ci, shared by the y and z families
    np.multiply(tmp, nz, out=by)
    np.subtract(base, by, out=by)
    by += offsets[1]
    np.multiply(tmp, ny, out=bz)
    bz += cj
    np.subtract(base, bz, out=bz)
    bz += offsets[2]

    # --- lattice-edge crossing vertices --------------------------------------
    # Crossing scalars are gathered straight out of the contiguous value
    # array by flat index instead of materializing the six shifted-view
    # copies `reshape(-1)` would force.
    vid = scratch.vid(int(offsets[-1]))
    vert_chunks = []
    normal_chunks = []
    wheres: "list[np.ndarray]" = []
    n_verts = 0
    for axis in range(3):
        sl_lo = tuple(
            slice(None, -1) if a == axis + 1 else slice(None) for a in range(4)
        )
        sl_hi = tuple(
            slice(1, None) if a == axis + 1 else slice(None) for a in range(4)
        )
        where = np.flatnonzero((pos[sl_lo] ^ pos[sl_hi]).reshape(-1))
        wheres.append(where)
        if len(where) == 0:
            continue
        vid[offsets[axis] + where] = np.arange(
            n_verts, n_verts + len(where), dtype=np.int32
        )
        n_verts += len(where)

        eb, ii, jj, kk = np.unravel_index(where, shapes[axis])
        n = len(where)
        lo = scratch.i64a(n)
        tmp = scratch.i64b(n)
        np.multiply(eb, val_strides[0], out=lo)
        np.multiply(ii, val_strides[1], out=tmp)
        lo += tmp
        np.multiply(jj, val_strides[2], out=tmp)
        lo += tmp
        np.multiply(kk, val_strides[3], out=tmp)
        lo += tmp
        s1 = scratch.f64a(n)
        s2 = scratch.f64b(n)
        np.take(values_flat, lo, out=s1)
        lo += val_strides[axis + 1]
        np.take(values_flat, lo, out=s2)
        # t = (iso - s1) / (s2 - s1), computed in place in the scratch
        # buffers (same operation order as the reference kernel, so the
        # float results are bit-identical).
        np.subtract(s2, s1, out=s2)
        np.subtract(iso, s1, out=s1)
        np.divide(s1, s2, out=s1)
        t = s1
        pts = np.empty((n, 3), dtype=np.float64)
        pts[:, 0] = ii
        pts[:, 1] = jj
        pts[:, 2] = kk
        pts[:, axis] += t
        pts += origins[eb]
        vert_chunks.append(pts)

        if grads is not None:
            hi = [ii, jj, kk]
            hi[axis] = hi[axis] + 1
            g1 = grads[eb, ii, jj, kk]
            g2 = grads[eb, hi[0], hi[1], hi[2]]
            g = g1 * (1 - t[:, None]) + g2 * t[:, None]
            nrm = -g
            norms = np.linalg.norm(nrm, axis=1, keepdims=True)
            norms[norms < 1e-12] = 1.0
            normal_chunks.append(nrm / norms)

    vertices = np.concatenate(vert_chunks) if vert_chunks else np.empty((0, 3))
    normals = (
        np.concatenate(normal_chunks)
        if (grads is not None and normal_chunks)
        else np.empty((0, 3))
    )

    # --- triangle gathering ----------------------------------------------------
    # Table-driven flat gather: each active cell's triangle rows are
    # addressed directly in the concatenated per-case table, replacing
    # the (A, MAX_TRI, 3) padded gather + boolean keep mask.  Emission
    # order (cell-major, table order within a cell) is unchanged.
    total = int(act_counts.sum())
    cum = np.cumsum(act_counts)
    # rows[t] = _TRI_START[case] + rank-within-cell, built from one
    # repeat of the per-cell start minus the exclusive cumsum.
    rows = np.repeat(_TRI_START[case] + act_counts - cum, act_counts)
    rows += np.arange(total, dtype=np.int64)
    # A cell's 12 edge ids are its three per-family bases plus the
    # cached per-case offsets (`d_rows`): two small-table gathers and one
    # base gather replace the four stride multiplies per corner.
    tri_cell3 = np.repeat(np.arange(0, 3 * n_act, 3, dtype=np.int64), act_counts)
    flat = _TRI_AXROWS[rows]
    flat += tri_cell3[:, None]
    flat = bases.reshape(-1)[flat]
    flat += d_rows[rows]
    faces = vid[flat]
    bad = faces.min(initial=0) < 0
    # Sparse reset: return exactly the entries this chunk set to -1 so
    # the shared scratch table is clean for the next chunk without a
    # full-table fill.
    for axis, where in enumerate(wheres):
        if len(where):
            vid[offsets[axis] + where] = -1
    if bad:
        raise AssertionError(
            "triangle references a lattice edge without a crossing — "
            "case table / crossing mask inconsistency"
        )
    return vertices, faces, (normals if with_normals else None)


def _extract_batch(
    values: np.ndarray,
    iso: float,
    origins: np.ndarray,
    with_normals: bool = False,
    scratch: "_BatchScratch | None" = None,
) -> "TriangleMesh | tuple[TriangleMesh, np.ndarray]":
    """Core extraction wrapped in a validated :class:`TriangleMesh`
    (see :func:`_extract_batch_arrays` for the array-level contract)."""
    vertices, faces, normals = _extract_batch_arrays(
        np.asarray(values), iso, origins, with_normals=with_normals,
        scratch=scratch,
    )
    mesh = TriangleMesh(vertices, faces)
    if with_normals:
        return mesh, (normals if normals is not None else np.empty((0, 3)))
    return mesh


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
    mesh = _extract_batch(values[None], float(iso), np.zeros((1, 3)))
    if mesh.n_vertices:
        mesh = TriangleMesh(
            mesh.vertices * np.asarray(spacing, dtype=np.float64)
            + np.asarray(origin, dtype=np.float64),
            mesh.faces,
        )
    return mesh


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

    Cuts the metacell stream on ``chunk`` boundaries and concatenates
    in stream order.  Returns ``(mesh, normals-or-None)`` with vertices
    still in vertex-index units.  Chunk outputs are accumulated as raw
    arrays and validated once in the final :class:`TriangleMesh`, not
    per chunk.
    """
    values = np.asarray(values)
    vert_parts: "list[np.ndarray]" = []
    face_parts: "list[np.ndarray]" = []
    normal_parts: "list[np.ndarray]" = []
    v_off = 0
    scratch = _BatchScratch()
    for s in range(0, len(values), chunk):
        e = min(s + chunk, len(values))
        verts, faces, normals = _extract_batch_arrays(
            values[s:e], iso, origins[s:e], with_normals=with_normals,
            scratch=scratch,
        )
        if len(faces):
            if v_off:
                # `faces` is freshly gathered per chunk — offset in place.
                np.add(faces, v_off, out=faces)
            face_parts.append(faces)
        if len(verts):
            vert_parts.append(verts)
            v_off += len(verts)
        if with_normals and normals is not None and len(normals):
            normal_parts.append(normals)
    vertices = np.concatenate(vert_parts) if vert_parts else np.empty((0, 3))
    faces = (
        np.concatenate(face_parts)
        if face_parts
        else np.empty((0, 3), dtype=np.int64)
    )
    mesh = TriangleMesh(vertices, faces)
    if not with_normals:
        return mesh, None
    normals = np.concatenate(normal_parts) if normal_parts else np.empty((0, 3))
    return mesh, normals


def _apply_world_transform(
    mesh: "TriangleMesh",
    normals: "np.ndarray | None",
    spacing,
    world_origin,
    with_normals: bool,
) -> "TriangleMesh | tuple[TriangleMesh, np.ndarray]":
    """Place a lattice-unit mesh into world coordinates (final stage).

    Takes ownership of ``mesh``: every caller passes a freshly assembled
    mesh, so the vertices are scaled in place instead of re-validating a
    reconstruction per extraction."""
    if mesh.n_vertices:
        mesh.vertices *= np.asarray(spacing, dtype=np.float64)
        mesh.vertices += np.asarray(world_origin, dtype=np.float64)
    if with_normals:
        if normals is None:
            normals = np.empty((0, 3))
        # Anisotropic spacing shears normals: transform by the inverse
        # scale and renormalize.
        sp = np.asarray(spacing, dtype=np.float64)
        if mesh.n_vertices and not np.allclose(sp, sp[0]):
            normals = normals / sp
            norms = np.linalg.norm(normals, axis=1, keepdims=True)
            norms[norms < 1e-12] = 1.0
            normals = normals / norms
        return mesh, normals
    return mesh


def count_active_cells(values: np.ndarray, iso: float) -> int:
    """Number of cells whose corner values straddle ``iso`` (no geometry)."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 3:
        values = values[None]
    return int(_mixed_cells_mask(values > iso).sum())
