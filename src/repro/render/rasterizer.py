"""Software z-buffer rasterizer: the stand-in for the paper's GPUs.

Each cluster node in the paper renders its own triangles on a local
NVIDIA GPU and reads back the color+depth buffers for sort-last
compositing.  Here a numpy rasterizer plays that role: z-buffered,
two-sided (isosurfaces are viewed from both sides), flat or Gouraud.

It is a fragment pipeline of a few array passes, not a loop over
triangles: (1) project, cull and clamp every triangle's pixel box at
once; (2) expand the boxes to ``(face, pixel)`` fragments in bounded
batches taken in face order, evaluating barycentrics, ``inside`` and
``z`` per fragment in float64; (3) resolve the z-buffer in *rounds* --
stable-sort a batch's inside fragments by pixel and let round *k* apply
the *k*-th fragment of every pixel: all pixels distinct, so one
vectorised compare-and-store per round, rounds <= depth complexity;
(4) shade the winners only, the one step the two entry points differ in.

The contract is the output of the sequential per-triangle z-test, byte
for byte in color and depth (a later triangle takes a pixel only if its
float64 ``z`` is below the float32 value stored there: the first in face
order keeps an exact tie, a duplicate takes the pixels whose stored z
was rounded up).  That loop is the oracle in
``tests/_reference_rasterizer.py``; ``test_rasterizer_differential.py``
holds this module to it at any batch size.  *Compositional correctness*
rests on it: z-merging the framebuffers of a mesh partitioned across p
nodes gives the image of rendering it all on one node, pixel-exactly.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace

import numpy as np

from repro.render.camera import Camera

#: Default background: dark neutral; depth initialized to +inf.
DEFAULT_BACKGROUND = (0.08, 0.09, 0.11)


@dataclass
class Framebuffer:
    """Color + depth image pair.

    Attributes
    ----------
    color:
        ``(h, w, 3)`` float32 in [0, 1].
    depth:
        ``(h, w)`` float32 view-space distance; +inf where empty.
    """

    width: int
    height: int
    background: tuple[float, float, float] = DEFAULT_BACKGROUND
    color: np.ndarray = field(init=False)
    depth: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError(f"framebuffer must be >= 1x1, got {self.width}x{self.height}")
        self.color = np.empty((self.height, self.width, 3), dtype=np.float32)
        self.depth = np.empty((self.height, self.width), dtype=np.float32)
        self.clear()

    def clear(self) -> None:
        # Per channel: broadcasting the 3-vector over (h, w, 3) is ~4x slower.
        for c, value in enumerate(self.background):
            self.color[..., c] = value
        self.depth.fill(np.inf)

    def copy(self) -> "Framebuffer":
        fb = copy.copy(self)  # not __init__: it would clear the buffers first
        fb.color = self.color.copy()
        fb.depth = self.depth.copy()
        return fb

    def to_uint8(self) -> np.ndarray:
        return np.clip(self.color * 255.0 + 0.5, 0, 255).astype(np.uint8)

    @property
    def payload_bytes(self) -> int:
        """Bytes moved when this buffer is shipped for compositing
        (RGB f32 + depth f32 per pixel, matching GPU readback)."""
        return self.color.nbytes + self.depth.nbytes

    def coverage(self) -> float:
        """Fraction of pixels with geometry."""
        return float(np.isfinite(self.depth).mean())


@dataclass(frozen=True)
class Light:
    """A single directional light with an ambient floor."""

    direction: tuple[float, float, float] = (0.4, -0.35, 0.85)
    ambient: float = 0.18

    def unit(self) -> np.ndarray:
        d = np.asarray(self.direction, dtype=np.float64)
        return d / np.linalg.norm(d)


#: Fragments expanded per batch.  It sizes the float64 temporaries of
#: one batch and nothing else: every value >= 1 renders the same bytes.
_BATCH_FRAGMENTS = 8192


def _segments(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(owner, offset)`` of every element of back-to-back segments with
    the given lengths: ``[2, 0, 3]`` -> ``[0 0 2 2 2]``, ``[0 1 0 1 2]``."""
    ends = np.cumsum(counts, dtype=np.intp)
    owner = np.repeat(np.arange(len(counts), dtype=np.intp), counts)
    offset = np.arange(ends[-1] if len(ends) else 0, dtype=np.intp)
    offset -= np.repeat(ends - counts, counts)
    return owner, offset


def _visible_triangles(fb: Framebuffer, mesh, camera: Camera):
    """Step 1.  Returns ``(idx, xy, z, box)``: the faces that do not touch
    the near plane, project to finite coordinates and are not entirely off
    screen; their pixel coordinates ``(n, 3, 2)`` and view depths
    ``(n, 3)`` under ``camera`` aspect-corrected to ``fb``; and their
    pixel boxes ``(xmin, ymin, xmax, ymax)`` clamped to the frame."""
    aspect = fb.width / fb.height
    cam = camera if camera.aspect == aspect else replace(camera, aspect=aspect)
    xy, depth = cam.project(mesh.vertices, fb.width, fb.height)
    tri_xy = xy[mesh.faces]
    tri_z = depth[mesh.faces]
    lo = np.minimum(np.minimum(tri_xy[:, 0], tri_xy[:, 1]), tri_xy[:, 2])
    hi = np.maximum(np.maximum(tri_xy[:, 0], tri_xy[:, 1]), tri_xy[:, 2])
    edge = (fb.width - 1, fb.height - 1)
    ok = np.all(tri_z > cam.near, axis=1)
    ok &= np.all(np.isfinite(tri_xy).reshape(len(tri_xy), -1), axis=1)
    ok &= np.all((hi >= 0) & (lo <= edge), axis=1)
    idx = np.flatnonzero(ok)
    # Clamp while still float: a huge coordinate would overflow the cast.
    lo = np.clip(np.floor(lo[idx]), 0, edge).astype(np.intp)
    hi = np.clip(np.ceil(hi[idx]), 0, edge).astype(np.intp)
    return idx, tri_xy[idx], tri_z[idx], (lo[:, 0], lo[:, 1], hi[:, 0], hi[:, 1])


def _rasterize(fb: Framebuffer, xy, tz, box, shade) -> None:
    """Steps 2-4 for the triangles ``xy`` / ``tz`` / ``box``, in order.
    ``shade(face, b0, b1, b2)`` returns the ``(n, 3)`` float32 colors of
    winning fragments from their face (a position in ``xy``) and weights."""
    w = fb.width
    xmin, ymin, xmax, ymax = box
    x0, y0 = xy[:, 0, 0], xy[:, 0, 1]
    ex1, ey1 = xy[:, 1, 0] - x0, xy[:, 1, 1] - y0
    ex2, ey2 = xy[:, 2, 0] - x0, xy[:, 2, 1] - y0
    area = ex1 * ey2 - ex2 * ey1
    z0, z1, z2 = tz.T

    # One work item per (triangle, pixel row), so a box larger than a
    # batch splits by rows; zero-area triangles get none.
    row_face, row_y = _segments(np.where(area != 0, ymax - ymin + 1, 0))
    row_y += ymin[row_face]
    row_len = (xmax - xmin + 1)[row_face]
    row_end = np.cumsum(row_len, dtype=np.int64)

    depth = fb.depth.reshape(-1)
    color = fb.color.reshape(-1, 3)
    stop = 0
    while stop < len(row_end):
        # The next rows, in face order, that fit the batch (at least one).
        done = row_end[stop - 1] if stop else 0
        start, stop = stop, max(
            stop + 1, int(np.searchsorted(row_end, done + _BATCH_FRAGMENTS, "right"))
        )
        # Expand them to fragments: same float64 expressions, per element.
        row, px = _segments(row_len[start:stop])
        f = row_face[start:stop][row]
        px += xmin[f]
        py = row_y[start:stop][row]
        dx, dy = px - x0[f], py - y0[f]
        b2 = (ex1[f] * dy - dx * ey1[f]) / area[f]
        b1 = (dx * ey2[f] - ex2[f] * dy) / area[f]
        b0 = 1.0 - b1 - b2
        inside = np.flatnonzero((b0 >= 0) & (b1 >= 0) & (b2 >= 0))
        if len(inside) == 0:
            continue
        f, b0, b1, b2 = f[inside], b0[inside], b1[inside], b2[inside]
        z = b0 * z0[f] + b1 * z1[f] + b2 * z2[f]
        pix = py[inside] * w + px[inside]
        # Groups of equal pixel, face order kept inside; round k applies
        # the k-th fragment of every group that has one.
        order = np.argsort(pix, kind="stable")
        pix = pix[order]
        cut = np.flatnonzero(pix[1:] != pix[:-1]) + 1
        first, last = np.append(0, cut), np.append(cut, len(pix))
        pix = pix[first]
        winner = np.full(len(first), -1, dtype=np.intp)
        group, pos = np.arange(len(first)), first
        while len(group):
            frag, at = order[pos], pix[group]
            won = z[frag] < depth[at]
            depth[at[won]] = z[frag[won]]
            winner[group[won]] = frag[won]
            pos = pos + 1
            more = pos < last[group]
            group, pos = group[more], pos[more]
        # Shade only the fragment each pixel ended up with.
        hit = winner >= 0
        frag = winner[hit]
        color[pix[hit]] = shade(f[frag], b0[frag], b1[frag], b2[frag])


def render_mesh(
    fb: Framebuffer,
    mesh,
    camera: Camera,
    color=(0.78, 0.33, 0.22),
    light: Light | None = None,
) -> int:
    """Rasterize a mesh into ``fb`` with z-buffering and flat shading.

    Returns the number of triangles that survive the near-plane,
    non-finite and off-screen cull (a zero-area triangle that passes the
    cull is counted although it produces no fragment).  Shading is
    two-sided Lambert — the absolute value of ``normal . light`` —
    because an isosurface may be seen from either side.
    """
    if mesh.n_triangles == 0:
        return 0
    light = light or Light()
    idx, xy, z, box = _visible_triangles(fb, mesh, camera)
    # [idx] after the product: BLAS may round a row differently by position.
    shade = np.abs(mesh.face_normals() @ light.unit())[idx]
    intensity = (light.ambient + (1.0 - light.ambient) * shade).astype(np.float32)
    base = np.asarray(color, dtype=np.float32)
    _rasterize(fb, xy, z, box, lambda f, b0, b1, b2: intensity[f, None] * base)
    return len(idx)


def render_mesh_smooth(
    fb: Framebuffer,
    mesh,
    camera: Camera,
    vertex_normals: np.ndarray,
    color=(0.78, 0.33, 0.22),
    light: Light | None = None,
) -> int:
    """Gouraud-shaded rasterization using per-vertex normals.

    Intensity is computed per vertex (two-sided Lambert on
    ``vertex_normals``, e.g. the field-gradient normals of
    :func:`repro.mc.normals.smooth_mesh_normals`) and interpolated
    barycentrically across each triangle, removing the faceting of flat
    shading.  Returns the same count as :func:`render_mesh`.
    """
    if mesh.n_triangles == 0:
        return 0
    light = light or Light()
    normals = np.asarray(vertex_normals, dtype=np.float64).reshape(mesh.n_vertices, 3)
    idx, xy, z, box = _visible_triangles(fb, mesh, camera)
    shade = np.abs(normals @ light.unit())
    tri_i = (light.ambient + (1.0 - light.ambient) * shade)[mesh.faces[idx]]
    base = np.asarray(color, dtype=np.float32)

    def gouraud(f, b0, b1, b2):
        i = b0 * tri_i[f, 0] + b1 * tri_i[f, 1] + b2 * tri_i[f, 2]
        return i.astype(np.float32)[:, None] * base

    _rasterize(fb, xy, z, box, gouraud)
    return len(idx)


def render_depth_colored(
    fb: Framebuffer, mesh, camera: Camera, cmap_near=(1.0, 0.9, 0.4), cmap_far=(0.2, 0.25, 0.7)
) -> int:
    """Rasterize with depth-mapped coloring (useful for compositing demos
    where per-node provenance should stay visible)."""
    n = render_mesh(fb, mesh, camera, color=(1.0, 1.0, 1.0))
    finite = np.isfinite(fb.depth)
    if finite.any():
        d = fb.depth[finite]
        lo, hi = float(d.min()), float(d.max())
        t = np.zeros_like(d) if hi == lo else (d - lo) / (hi - lo)
        near = np.asarray(cmap_near, dtype=np.float32)
        far = np.asarray(cmap_far, dtype=np.float32)
        fb.color[finite] *= (1 - t[:, None]) * near + t[:, None] * far
    return n
