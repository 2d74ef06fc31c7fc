"""Vectorized SurfaceNets (dual) isosurface extraction over metacell batches.

Where Marching Cubes triangulates *within* each active cell from a
256-case table, SurfaceNets is the dual construction (Gibson 1998; see
also "A High-Performance SurfaceNets Discrete Isocontouring Algorithm"
in PAPERS.md): one vertex per active cell and one quad per sign-crossing
lattice edge, connecting the four cells that share the edge.  Vertices
sit at cell centers (the fast "discrete" variant, the default) and can
optionally be relaxed toward the average of their face-adjacent surface
neighbours, clamped to stay inside their own cell — a smoothed,
lower-tessellation surface with the same topology as MC.  The trade-offs
are catalogued in docs/PERFMODEL.md ("Extraction kernels").

The kernel is sign-driven: apart from the one sign test it shares with
Marching Cubes (:func:`repro.mc.marching_cubes.above_iso`) it never
touches the scalar field, so there is no per-edge interpolation, no case
table, and no triangle gather — the phase costs are a handful of
separable passes over the payload plus integer index arithmetic on the
crossing edges.

The extractor is built for the out-of-core batch shape
(:func:`surface_nets_batch` mirrors
:func:`repro.mc.marching_cubes.marching_cubes_batch`) and preserves its
crack-free boundary contract by working in *global* lattice coordinates:

* **Phase 1 (chunked, memory-bounded)** — per chunk of metacells: the
  crossing lattice edges of each axis family, emitted as flat indices
  into the batch's global bounding-box lattice with a sign-orientation
  bit (field above iso at the edge's low end).  Each metacell
  suppresses the crossing edges on its transverse-high vertex layers: a
  shared edge is emitted exactly once (by the neighbour that owns it as
  a low layer), and an edge *only* a high layer could emit has fewer
  than four adjacent cells in the batch, so its quad would be dropped
  anyway — no deduplication pass is ever needed.
* **Phase 2 (global)** — each edge's four adjacent cells are resolved
  through a dense int32 cell-index lattice over the batch bounding box
  (or binary search when the box is too large to materialize), the quad
  is emitted with orientation-controlled winding, quads touching a cell
  absent from the batch are dropped (holes appear only where data is
  genuinely absent, exactly as with per-metacell MC), the referenced
  cells become the vertices (every cell a surviving quad touches is by
  construction a sign-mixed "active" cell), those vertices are
  optionally relaxed, and each quad is split into two triangles.

The bounding-box lattice carries one ghost layer on every side, so the
adjacency stencils of edges on the box faces land on never-registered
ghost slots instead of wrapping around the flat index space — off-batch
probes resolve to "absent" by construction.

Because cells tile space (no cell is duplicated across metacells),
phase 2 makes the output *independent of the chunk size*: the mesh is a
function of the set of metacells in the batch alone.  Unlike MC the
surface cannot be produced by concatenating independently-extracted
pieces.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.mc.geometry import TriangleMesh
from repro.mc.marching_cubes import (
    DEFAULT_BATCH_CHUNK,
    _apply_world_transform,
    above_iso,
)

#: Default number of constrained-Laplacian relaxation sweeps applied to
#: the cell-center vertices.  The default is 0 — the discrete
#: (VTK-``SurfaceNets3D``-style) surface; each sweep adds roughly 25%
#: kernel time and removes most of the staircase aliasing.
DEFAULT_RELAX_ITERS = 0

#: Blend factor per sweep: ``v <- (1 - a) * v + a * mean(neighbours)``,
#: then clamped back into the vertex's own cell (the clamp is what keeps
#: the mesh crack-free and non-self-intersecting).
_RELAX_ALPHA = 0.6

#: Above this many lattice sites the dense int32 cell lattice
#: (4 bytes/site) is not materialized and phase 2 falls back to binary
#: search on the same flat ids (which are then carried as int64).
_DENSE_GRID_CAP = 1 << 25

#: Cells adjacent to an axis-``a`` crossing edge, as (db, dc) offsets in
#: the cyclic transverse axes (a=0 -> (y, z), a=1 -> (z, x),
#: a=2 -> (x, y)), in counter-clockwise order around +a so the quad
#: normal follows the right-hand rule along +a.
_QUAD_CELL_STEPS = ((-1, -1), (0, -1), (0, 0), (-1, 0))

#: Per-payload-shape local flat-id grids (see :func:`_local_site_grid`),
#: keyed by (nx, ny, nz, sx, sy, dtype).  Bounded: cleared wholesale if
#: it ever grows past the cap (payload shapes are few in practice).
_SITE_GRID_CACHE: dict = {}
_SITE_GRID_CACHE_CAP = 64


def _local_site_grid(nx, ny, nz, sx, sy, dtype):
    """Bounding-box flat-id offset of each cell of one metacell.

    The (nx-1, ny-1, nz-1) cell lattice of a payload, as offsets
    relative to the metacell's origin site in the global bounding-box
    lattice with strides (sx, sy, 1).
    """
    key = (nx, ny, nz, sx, sy, dtype)
    got = _SITE_GRID_CACHE.get(key)
    if got is not None:
        return got
    ii = np.arange(nx - 1, dtype=dtype)[:, None, None]
    jj = np.arange(ny - 1, dtype=dtype)[None, :, None]
    kk = np.arange(nz - 1, dtype=dtype)[None, None, :]
    loc = ii * sx + jj * sy + kk
    if len(_SITE_GRID_CACHE) >= _SITE_GRID_CACHE_CAP:
        _SITE_GRID_CACHE.clear()
    _SITE_GRID_CACHE[key] = loc
    return loc


class _Frame(NamedTuple):
    """Ghost-padded bounding-box lattice of one batch; all phase 1/2 ids
    are flat indices into it."""

    #: Per-metacell origins in the padded lattice.
    rel: np.ndarray
    #: Minimal global vertex coordinate (restores absolute placement).
    lo: np.ndarray
    #: Flat strides of the x and y axes (z is 1) and the site count.
    sx: int
    sy: int
    grid_n: int
    #: Whether the dense int32 cell lattice is materialized, and the id
    #: dtype that goes with it.
    dense: bool
    id_dtype: type


def _lattice_frame(origins: np.ndarray, mshape) -> _Frame:
    """Ghost-padded bounding-box frame of the batch in lattice units
    (one ghost layer on every side, so adjacency stencils of boundary
    cells never wrap)."""
    org = np.rint(origins).astype(np.int64)
    if not np.array_equal(org, np.asarray(origins, dtype=np.float64)):
        raise ValueError(
            "surface-nets requires integer lattice origins "
            "(metacell origins in vertex-index units)"
        )
    lo = org.min(axis=0)
    dims = org.max(axis=0) - lo + np.asarray(mshape, dtype=np.int64) + 2
    grid_n = int(dims[0] * dims[1] * dims[2])
    dense = grid_n <= _DENSE_GRID_CAP
    return _Frame(
        org - lo + 1, lo, int(dims[1] * dims[2]), int(dims[2]), grid_n,
        dense, np.int32 if dense else np.int64,
    )


def _sn_chunk_arrays(values: np.ndarray, iso: float, rel: np.ndarray, sx, sy, id_dtype):
    """Phase 1 over one chunk: cell sites + owned crossing edges.

    Returns ``(site_flat, edges)`` — the flat bounding-box ids of every
    cell of the chunk (in payload enumeration order), and per axis
    family ``edges[axis] = (edge_flat, orient)`` for the crossing edges
    this chunk owns (transverse-high layers suppressed, see the module
    docstring).  ``orient`` is True when the field is above iso at the
    edge's low end.
    """
    b, nx, ny, nz = values.shape
    pos = above_iso(values, iso)

    loc = _local_site_grid(nx, ny, nz, sx, sy, id_dtype)
    rel = rel.astype(id_dtype)
    mbase = rel[:, 0] * sx
    mbase += rel[:, 1] * sy
    mbase += rel[:, 2]
    site_flat = (mbase[:, None, None, None] + loc).reshape(-1)

    # One contiguous copy of the low-corner signs serves all three xor
    # operands *and* the orientation gather (the edge's low end is its
    # own lattice site).
    plo = np.ascontiguousarray(pos[:, :-1, :-1, :-1])
    plo_flat = plo.reshape(-1)
    highs = (pos[:, 1:, :-1, :-1], pos[:, :-1, 1:, :-1], pos[:, :-1, :-1, 1:])
    edges = []
    for hi in highs:
        where = np.flatnonzero((plo ^ hi).reshape(-1))
        edges.append((site_flat[where], plo_flat[where]))
    return site_flat, edges


def _relax_vertices(verts, nbr3, inv_deg, floor_c, iters):
    """Constrained-Laplacian smoothing of the cell-center vertices.

    Each sweep moves every vertex toward the mean of its face-adjacent
    surface neighbours and clamps it back into its own unit cell — the
    classic SurfaceNets relaxation.  ``nbr3`` is (6, 3*V)
    component-expanded flat indices into the extended vertex buffer
    (missing neighbours point at an appended zero row, so no mask
    multiplies are needed; flat 1-D gathers are several times faster
    than (V, 3) row gathers); ``inv_deg`` is ``alpha / degree`` per
    vertex.  Operates in place on ``verts`` (global lattice units);
    deterministic, so the chunk-size invariance of the assembled mesh
    carries over.
    """
    nv = len(verts)
    if iters <= 0 or nv == 0:
        return verts
    ext = np.zeros((nv + 1) * 3)
    cmax = floor_c + 1.0
    for _ in range(iters):
        ext[: nv * 3] = verts.reshape(-1)
        acc = np.add.reduce(ext[nbr3], axis=0).reshape(nv, 3)
        acc *= inv_deg
        verts *= 1.0 - _RELAX_ALPHA
        verts += acc
        np.clip(verts, floor_c, cmax, out=verts)
    return verts


def _collect_chunks(values, iso, frame, chunk):
    """Phase 1 over every chunk: ``(cell_flat, edge_parts, orient_parts)``
    — all cell sites in stream order, and per axis family the chunks'
    owned crossing edges with their orientation bits."""
    site_parts = []
    edge_parts = [[] for _ in range(3)]
    orient_parts = [[] for _ in range(3)]
    for s in range(0, len(values), chunk):
        e = min(s + chunk, len(values))
        site_flat, edges = _sn_chunk_arrays(
            values[s:e], iso, frame.rel[s:e], frame.sx, frame.sy, frame.id_dtype
        )
        site_parts.append(site_flat)
        for axis in range(3):
            edge_parts[axis].append(edges[axis][0])
            orient_parts[axis].append(edges[axis][1])
    cell_flat = site_parts[0] if len(site_parts) == 1 else np.concatenate(site_parts)
    return cell_flat, edge_parts, orient_parts


def _cell_resolver(cell_flat, frame):
    """Cell-id resolution: ``(lut, resolve)``.

    Dense int32 lattice when the bounding box is affordable, sorted
    binary search otherwise (``lut`` is then None).  Cells tile space, so
    cell_flat has no duplicates; every batch cell is registered and the
    quad-survivor compaction keeps only the active ones.  Ghost slots are
    never registered, so off-batch stencil probes resolve to "absent".
    """
    n_cells = len(cell_flat)
    if frame.dense:
        lut = np.full(frame.grid_n, -1, dtype=np.int32)
        lut[cell_flat] = np.arange(n_cells, dtype=np.int32)

        def resolve(cand):
            got = lut[cand]
            return got, got >= 0

        return lut, resolve

    order = np.argsort(cell_flat)
    sorted_flat = cell_flat[order]

    def resolve(cand):
        idx = np.searchsorted(sorted_flat, cand)
        np.minimum(idx, n_cells - 1, out=idx)
        found = sorted_flat[idx] == cand
        return order[idx], found

    return None, resolve


def _surviving_quads(edge_parts, orient_parts, frame, lut, resolve):
    """One wound quad per crossing edge: ``(cells, orient)`` of the quads
    whose four adjacent cells are all in the batch, or None.

    The three axis families are resolved in a single batched pass: an
    edge's four adjacent-cell offsets depend only on its axis, so with
    the edges grouped by axis the (E, 4) offset table is a row-repeat of
    three 4-entry stencils.
    """
    sx, sy = frame.sx, frame.sy
    flat_parts, oflat_parts, stencils, counts = [], [], [], []
    for axis in range(3):
        parts = edge_parts[axis]
        flat = parts[0] if len(parts) == 1 else np.concatenate(parts)
        if len(flat) == 0:
            continue
        oparts = orient_parts[axis]
        flat_parts.append(flat)
        oflat_parts.append(oparts[0] if len(oparts) == 1 else np.concatenate(oparts))
        bc = ((sy, 1), (1, sx), (sx, sy))[axis]
        stencils.append([db * bc[0] + dc * bc[1] for db, dc in _QUAD_CELL_STEPS])
        counts.append(len(flat))
    if not flat_parts:
        return None
    flat_all = flat_parts[0] if len(flat_parts) == 1 else np.concatenate(flat_parts)
    orient_all = oflat_parts[0] if len(oflat_parts) == 1 else np.concatenate(oflat_parts)
    offs = np.repeat(np.asarray(stencils, dtype=frame.id_dtype), counts, axis=0)
    if lut is not None:
        # All four cells present <=> no -1 in the row <=> OR of the four
        # sign bits clear — no intermediate (E, 4) found mask needed.
        cells = lut[flat_all[:, None] + offs]
        keep = cells[:, 0] | cells[:, 1]
        keep |= cells[:, 2]
        keep |= cells[:, 3]
        keep = keep >= 0
    else:
        cells, found = resolve(flat_all[:, None] + offs)
        keep = found[:, 0] & found[:, 1]
        keep &= found[:, 2]
        keep &= found[:, 3]
    cells = np.compress(keep, cells, axis=0)
    if len(cells) == 0:
        return None
    return cells, np.compress(keep, orient_all)


def _relax_cell_centers(verts, floor_c, flat_used, used, remap, resolve, frame, iters):
    """Face-neighbour tables of the active cells, then
    :func:`_relax_vertices` in place on ``verts``."""
    n_used = len(flat_used)
    sx, sy = frame.sx, frame.sy
    steps6 = np.array([sx, -sx, sy, -sy, 1, -1], dtype=frame.id_dtype)
    if frame.dense:
        # A fresh lattice resolving straight to *compact active*
        # vertex ids (a fresh memset is far cheaper than a sparse
        # reset of the registration lattice), removing the
        # used[]/remap[] gathers from the neighbour probe.
        lut_v = np.full(frame.grid_n, -1, dtype=np.int32)
        lut_v[flat_used] = np.arange(n_used, dtype=np.int32)
        nbr6 = lut_v[steps6[:, None] + flat_used[None, :]]
        found6 = nbr6 >= 0
        nbr6[~found6] = n_used
    else:
        got6, found6 = resolve(steps6[:, None] + flat_used[None, :])
        found6 &= used[got6]
        nbr6 = np.where(found6, remap[got6], n_used)
    deg = np.add.reduce(found6, axis=0)
    np.maximum(deg, 1, out=deg)
    inv_deg = (_RELAX_ALPHA / deg)[:, None]
    nbr6 *= 3
    nbr3 = np.empty((6, n_used, 3), dtype=nbr6.dtype)
    nbr3[:, :, 0] = nbr6
    nbr3[:, :, 1] = nbr6
    nbr3[:, :, 2] = nbr6
    nbr3[:, :, 1] += 1
    nbr3[:, :, 2] += 2
    _relax_vertices(verts, nbr3.reshape(6, -1), inv_deg, floor_c, iters)


def _extract_sn_chunks(
    values: np.ndarray,
    iso: float,
    origins: np.ndarray,
    chunk: int = DEFAULT_BATCH_CHUNK,
    relax_iters: int = DEFAULT_RELAX_ITERS,
) -> TriangleMesh:
    """Chunked SurfaceNets extraction in lattice units (both phases).

    The output geometry is identical for every ``chunk`` value — phase 2
    is global, so the mesh depends only on the *set* of metacells in the
    batch.
    """
    values = np.asarray(values)
    if len(values) == 0:
        return TriangleMesh()
    frame = _lattice_frame(origins, values.shape[1:])
    sx, sy = frame.sx, frame.sy

    cell_flat, edge_parts, orient_parts = _collect_chunks(values, iso, frame, chunk)
    n_cells = len(cell_flat)
    lut, resolve = _cell_resolver(cell_flat, frame)
    quads = _surviving_quads(edge_parts, orient_parts, frame, lut, resolve)
    if quads is None:
        return TriangleMesh()
    cells, o = quads

    # Compact to the cells actually referenced by surviving quads: those
    # are exactly the sign-mixed cells the surface passes through.
    # flatnonzero + scatter beats a cumsum-based remap (cumsum is a
    # sequential scan over every registered cell); unused remap slots
    # stay uninitialized and are never gathered.
    used = np.zeros(n_cells, dtype=bool)
    used[cells] = True
    idx_used = np.flatnonzero(used)
    n_used = len(idx_used)
    remap = np.empty(n_cells, dtype=np.int64)
    remap[idx_used] = np.arange(n_used, dtype=np.int64)
    flat_used = cell_flat[idx_used]

    # Decode padded-lattice coordinates and restore absolute placement:
    # global = decoded - 1 (ghost layer) + lo (bounding-box anchor).
    gx = flat_used // sx
    rem = flat_used - gx * sx
    gy = rem // sy
    gz = rem - gy * sy
    off = frame.lo - 1
    floor_c = np.empty((n_used, 3))
    floor_c[:, 0] = gx + off[0]
    floor_c[:, 1] = gy + off[1]
    floor_c[:, 2] = gz + off[2]
    verts = floor_c + 0.5

    if relax_iters > 0:
        _relax_cell_centers(
            verts, floor_c, flat_used, used, remap, resolve, frame, relax_iters
        )

    # Winding columns (c0, m1, c2, m2): the m1/m2 swap flips the quad
    # orientation; a single (Q, 4) gather then remaps to compact ids.
    q_raw = np.empty((len(cells), 4), dtype=cells.dtype)
    q_raw[:, 0] = cells[:, 0]
    q_raw[:, 1] = np.where(o, cells[:, 1], cells[:, 3])
    q_raw[:, 2] = cells[:, 2]
    q_raw[:, 3] = np.where(o, cells[:, 3], cells[:, 1])
    quads = remap[q_raw]
    faces = quads[:, (0, 1, 2, 0, 2, 3)].reshape(-1, 3)
    return TriangleMesh._from_validated(verts, faces)


def _vertex_normals(mesh: TriangleMesh) -> np.ndarray:
    """Area-weighted per-vertex normals from the final world geometry.

    SurfaceNets quads are wound so their normals agree with MC's
    convention (pointing toward the below-iso side), so accumulating
    face normals reproduces the orientation callers expect from
    ``marching_cubes_batch(..., with_normals=True)``.
    """
    nv = len(mesh.vertices)
    if nv == 0:
        return np.empty((0, 3))
    v = mesh.vertices
    f = mesh.faces
    fn = np.cross(v[f[:, 1]] - v[f[:, 0]], v[f[:, 2]] - v[f[:, 0]])
    normals = np.zeros((nv, 3))
    for k in range(3):
        for c in range(3):
            normals[:, c] += np.bincount(f[:, k], weights=fn[:, c], minlength=nv)
    norms = np.linalg.norm(normals, axis=1, keepdims=True)
    norms[norms < 1e-12] = 1.0
    normals /= norms
    return normals


def surface_nets(
    values: np.ndarray,
    iso: float,
    origin=(0.0, 0.0, 0.0),
    spacing=(1.0, 1.0, 1.0),
    relax_iters: int = DEFAULT_RELAX_ITERS,
) -> TriangleMesh:
    """Extract a SurfaceNets isosurface from one full grid.

    Drop-in alternative to :func:`repro.mc.marching_cubes.marching_cubes`
    producing a dual mesh: same active cells, same topology, one vertex
    per active cell instead of one per edge crossing.
    """
    values = np.asarray(values)
    if values.ndim != 3:
        raise ValueError(f"expected a 3D grid, got shape {values.shape}")
    mesh = _extract_sn_chunks(
        values[None], float(iso), np.zeros((1, 3)), relax_iters=relax_iters
    )
    return _apply_world_transform(mesh, None, spacing, origin, False)


def surface_nets_batch(
    values: np.ndarray,
    iso: float,
    origins: np.ndarray,
    spacing=(1.0, 1.0, 1.0),
    world_origin=(0.0, 0.0, 0.0),
    chunk: int = DEFAULT_BATCH_CHUNK,
    with_normals: bool = False,
    relax_iters: int = DEFAULT_RELAX_ITERS,
) -> "TriangleMesh | tuple[TriangleMesh, np.ndarray]":
    """Extract a SurfaceNets surface from a batch of metacell payloads.

    Mirrors :func:`repro.mc.marching_cubes.marching_cubes_batch`
    (shapes, origins, spacing, chunking, ``with_normals``) and honours
    the same crack-free boundary contract: adjacent metacells share
    vertex layers, so their shared crossing edges carry identical signs
    and the stitched quads are exact — no T-junctions, no gaps.  Unlike
    MC the mesh is globally *indexed* (dual vertices are unique per
    cell), so no weld pass is needed before watertightness checks.

    With ``with_normals=True`` returns ``(mesh, normals)``; the
    per-vertex normals are area-weighted accumulations of the face
    normals, oriented to match MC's toward-the-below-iso convention.
    ``relax_iters`` controls the constrained smoothing sweeps (0, the
    default, gives the discrete cell-center surface).
    """
    values = np.asarray(values)
    if values.ndim != 4:
        raise ValueError(f"expected (n, mx, my, mz) batch, got shape {values.shape}")
    origins = np.asarray(origins, dtype=np.float64).reshape(len(values), 3)
    if chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")
    mesh = _extract_sn_chunks(values, float(iso), origins, chunk, relax_iters)
    mesh = _apply_world_transform(mesh, None, spacing, world_origin, False)
    if not with_normals:
        return mesh
    return mesh, _vertex_normals(mesh)
