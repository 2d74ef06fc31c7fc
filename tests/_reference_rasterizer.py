"""The per-triangle z-buffer loop, kept verbatim as the test oracle.

This is the rasterizer as it stood before the fragment-batched pipeline
in ``repro.render.rasterizer`` replaced it: one Python iteration per
triangle, a meshgrid per bounding box.  It *defines* the output — which
fragment wins an exact-z tie, how a float64 ``z`` is compared against the
float32 depth buffer, how a color is rounded — and
``tests/test_rasterizer_differential.py`` holds the production pipeline
to it byte for byte.  Do not optimise or tidy this file.
"""

from __future__ import annotations

import numpy as np

from repro.render.camera import Camera
from repro.render.rasterizer import Framebuffer, Light


def render_mesh(
    fb: Framebuffer,
    mesh,
    camera: Camera,
    color=(0.78, 0.33, 0.22),
    light: Light | None = None,
) -> int:
    """Rasterize a mesh into ``fb`` with z-buffering and flat shading.

    Returns the number of triangles actually rasterized (after near-plane
    and off-screen rejection).  Shading is two-sided Lambert — the
    absolute value of ``normal . light`` — because an isosurface may be
    seen from either side.
    """
    if mesh.n_triangles == 0:
        return 0
    light = light or Light()
    cam = camera
    if cam.aspect != fb.width / fb.height:
        cam = Camera(
            eye=camera.eye,
            target=camera.target,
            up=camera.up,
            fov_y=camera.fov_y,
            aspect=fb.width / fb.height,
            near=camera.near,
        )

    xy, depth = cam.project(mesh.vertices, fb.width, fb.height)
    tri_xy = xy[mesh.faces]  # (F, 3, 2)
    tri_z = depth[mesh.faces]  # (F, 3)

    # Reject triangles touching the near plane or entirely off screen.
    ok = np.all(tri_z > cam.near, axis=1)
    ok &= np.all(np.isfinite(tri_xy).reshape(len(tri_xy), -1), axis=1)
    mins = tri_xy.min(axis=1)
    maxs = tri_xy.max(axis=1)
    ok &= (maxs[:, 0] >= 0) & (mins[:, 0] <= fb.width - 1)
    ok &= (maxs[:, 1] >= 0) & (mins[:, 1] <= fb.height - 1)
    idx = np.flatnonzero(ok)
    if len(idx) == 0:
        return 0

    # Flat shading per face.
    normals = mesh.face_normals()
    shade = np.abs(normals @ light.unit())
    intensity = light.ambient + (1.0 - light.ambient) * shade
    base = np.asarray(color, dtype=np.float32)

    colorbuf, depthbuf = fb.color, fb.depth
    w, h = fb.width, fb.height

    for f in idx:
        (x0, y0), (x1, y1), (x2, y2) = tri_xy[f]
        z0, z1, z2 = tri_z[f]
        xmin = max(int(np.floor(min(x0, x1, x2))), 0)
        xmax = min(int(np.ceil(max(x0, x1, x2))), w - 1)
        ymin = max(int(np.floor(min(y0, y1, y2))), 0)
        ymax = min(int(np.ceil(max(y0, y1, y2))), h - 1)
        if xmin > xmax or ymin > ymax:
            continue
        area = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
        if area == 0:
            continue
        xs = np.arange(xmin, xmax + 1, dtype=np.float64) + 0.0
        ys = np.arange(ymin, ymax + 1, dtype=np.float64) + 0.0
        px, py = np.meshgrid(xs, ys)
        w0 = ((x1 - x0) * (py - y0) - (px - x0) * (y1 - y0)) / area
        w1 = ((px - x0) * (y2 - y0) - (x2 - x0) * (py - y0)) / area
        # Barycentric wrt v0: b1 = weight of v1 etc.
        b2 = w0
        b1 = w1
        b0 = 1.0 - b1 - b2
        inside = (b0 >= 0) & (b1 >= 0) & (b2 >= 0)
        if not inside.any():
            continue
        z = b0 * z0 + b1 * z1 + b2 * z2
        sub_d = depthbuf[ymin : ymax + 1, xmin : xmax + 1]
        win = inside & (z < sub_d)
        if not win.any():
            continue
        sub_d[win] = z[win].astype(np.float32)
        shaded = (base * float(intensity[f])).astype(np.float32)
        colorbuf[ymin : ymax + 1, xmin : xmax + 1][win] = shaded
    return int(len(idx))


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
    shading.  Returns the number of rasterized triangles.
    """
    if mesh.n_triangles == 0:
        return 0
    light = light or Light()
    vertex_normals = np.asarray(vertex_normals, dtype=np.float64).reshape(
        mesh.n_vertices, 3
    )
    cam = camera
    if cam.aspect != fb.width / fb.height:
        cam = Camera(
            eye=camera.eye, target=camera.target, up=camera.up,
            fov_y=camera.fov_y, aspect=fb.width / fb.height, near=camera.near,
        )
    xy, depth = cam.project(mesh.vertices, fb.width, fb.height)
    shade = np.abs(vertex_normals @ light.unit())
    v_intensity = light.ambient + (1.0 - light.ambient) * shade

    tri_xy = xy[mesh.faces]
    tri_z = depth[mesh.faces]
    tri_i = v_intensity[mesh.faces]

    ok = np.all(tri_z > cam.near, axis=1)
    ok &= np.all(np.isfinite(tri_xy).reshape(len(tri_xy), -1), axis=1)
    mins = tri_xy.min(axis=1)
    maxs = tri_xy.max(axis=1)
    ok &= (maxs[:, 0] >= 0) & (mins[:, 0] <= fb.width - 1)
    ok &= (maxs[:, 1] >= 0) & (mins[:, 1] <= fb.height - 1)
    idx = np.flatnonzero(ok)
    if len(idx) == 0:
        return 0

    base = np.asarray(color, dtype=np.float32)
    colorbuf, depthbuf = fb.color, fb.depth
    w, h = fb.width, fb.height
    for f in idx:
        (x0, y0), (x1, y1), (x2, y2) = tri_xy[f]
        z0, z1, z2 = tri_z[f]
        i0, i1, i2 = tri_i[f]
        xmin = max(int(np.floor(min(x0, x1, x2))), 0)
        xmax = min(int(np.ceil(max(x0, x1, x2))), w - 1)
        ymin = max(int(np.floor(min(y0, y1, y2))), 0)
        ymax = min(int(np.ceil(max(y0, y1, y2))), h - 1)
        if xmin > xmax or ymin > ymax:
            continue
        area = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
        if area == 0:
            continue
        xs = np.arange(xmin, xmax + 1, dtype=np.float64)
        ys = np.arange(ymin, ymax + 1, dtype=np.float64)
        px, py = np.meshgrid(xs, ys)
        b2 = ((x1 - x0) * (py - y0) - (px - x0) * (y1 - y0)) / area
        b1 = ((px - x0) * (y2 - y0) - (x2 - x0) * (py - y0)) / area
        b0 = 1.0 - b1 - b2
        inside = (b0 >= 0) & (b1 >= 0) & (b2 >= 0)
        if not inside.any():
            continue
        z = b0 * z0 + b1 * z1 + b2 * z2
        sub_d = depthbuf[ymin : ymax + 1, xmin : xmax + 1]
        win = inside & (z < sub_d)
        if not win.any():
            continue
        sub_d[win] = z[win].astype(np.float32)
        intensity = (b0 * i0 + b1 * i1 + b2 * i2)[win].astype(np.float32)
        colorbuf[ymin : ymax + 1, xmin : xmax + 1][win] = (
            intensity[:, None] * base[None, :]
        )
    return int(len(idx))
