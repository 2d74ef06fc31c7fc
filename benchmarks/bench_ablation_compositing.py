"""Ablation — compositing schedules: direct send vs binary swap.

Section 6 uses sort-last compositing through Chromium and reports no
noticeable overhead.  This bench compares the two classic schedules on
the actual rendered buffers of a cluster extraction: bytes moved per
node, total bytes, rounds, and pixel-exactness against the reference
z-merge.  Both ship sparse region messages (covered pixels only); the
dense row is what shipping every pixel of every buffer once would cost.
"""

from __future__ import annotations

import numpy as np

from repro.bench.harness import emit, get_cluster
from repro.bench.tables import format_table
from repro.render.camera import Camera
from repro.render.compositor import (
    PIXEL_PAYLOAD_BYTES,
    binary_swap,
    composite,
    direct_send,
)
from repro.render.rasterizer import Framebuffer, render_mesh
from repro.render.tiled_display import TileLayout
from repro.mc.geometry import TriangleMesh
from repro.parallel.cluster import ExtractRequest
from repro.parallel.perfmodel import PAPER_CLUSTER


def test_ablation_compositing(benchmark, cfg):
    p = 4
    cluster = get_cluster(cfg, p)
    lam = float(cfg.isovalues[len(cfg.isovalues) // 2])
    res = cluster.extract(lam, ExtractRequest(keep_meshes=True))
    combined = TriangleMesh.concat([m for m in res.meshes if m.n_triangles])
    cam = Camera.fit_mesh(combined)

    size = 256
    fbs = []
    for mesh in res.meshes:
        fb = Framebuffer(size, size)
        render_mesh(fb, mesh, cam)
        fbs.append(fb)

    ref = composite(fbs)
    layout = TileLayout(2, 2, size, size)

    ds_img, ds_stats = direct_send(fbs, layout)
    bs_img, bs_stats = binary_swap(fbs)
    benchmark.pedantic(lambda: binary_swap(fbs), rounds=3, iterations=1)

    for img in (ds_img, bs_img):
        assert np.array_equal(img.color, ref.color)
        assert np.array_equal(img.depth, ref.depth)

    screen = size * size * PIXEL_PAYLOAD_BYTES
    net = PAPER_CLUSTER.network
    rows = [[
        "dense (every pixel, once)", 1, p * screen, screen,
        f"{net.transfer_time(screen, layout.n_tiles) * 1e3:.3f}",
    ]]
    for name, stats, msgs in (
        ("direct send (2x2 wall)", ds_stats, p * layout.n_tiles),
        ("binary swap", bs_stats, p * (bs_stats.rounds + 1)),
    ):
        rows.append([
            name, stats.rounds, stats.total_bytes, stats.max_bytes_per_node,
            f"{net.transfer_time(stats.max_bytes_per_node, msgs // p) * 1e3:.3f}",
        ])
    table = format_table(
        ["schedule", "rounds", "total bytes", "max bytes/node", "modeled ms/node"],
        rows,
        title=(
            f"Ablation — sort-last compositing schedules (p={p}, {size}x{size}, "
            f"coverage {ref.coverage():.3f}, both pixel-exact vs reference z-merge)"
        ),
    )
    emit("ablation_compositing.txt", table)

    # Sparse messages: both schedules move at most a quarter of the
    # dense screens; binary swap trades rounds for distributed merge work.
    for stats in (ds_stats, bs_stats):
        assert stats.total_bytes <= p * screen // 4
    assert bs_stats.rounds == 2
