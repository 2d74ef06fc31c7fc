"""Tests for sort-last compositing: correctness and byte accounting."""

import numpy as np
import pytest

from repro.grid.datasets import sphere_field
from repro.mc.marching_cubes import marching_cubes
from repro.render.camera import Camera
from repro.render.compositor import (
    PIXEL_PAYLOAD_BYTES,
    REGION_HEADER_BYTES,
    binary_swap,
    composite,
    direct_send,
    pack_region,
)
from repro.render.rasterizer import Framebuffer, render_mesh
from repro.render.tiled_display import TileLayout


@pytest.fixture(scope="module")
def partitioned_render():
    """Render a sphere split across 4 'nodes' + the reference render."""
    vol = sphere_field((28, 28, 28))
    mesh = marching_cubes(vol.data, 0.6, origin=vol.origin, spacing=vol.spacing)
    cam = Camera.fit_mesh(mesh)
    # Partition triangles round-robin across 4 nodes (like striping).
    fbs = []
    for q in range(4):
        fb = Framebuffer(96, 96)
        part = mesh.faces[q::4]
        sub = type(mesh)(mesh.vertices, part)
        render_mesh(fb, sub, cam)
        fbs.append(fb)
    ref = Framebuffer(96, 96)
    render_mesh(ref, mesh, cam)
    return fbs, ref


#: Wire bytes per covered pixel: dense payload + its int32 offset.
ADDRESSED_PIXEL_BYTES = PIXEL_PAYLOAD_BYTES + 4


def _message_bytes(fb, layout):
    """Summed ``nbytes`` of the region messages ``fb`` packs for ``layout``."""
    return sum(
        pack_region(fb, *layout.tile_slices(t)).nbytes
        for t in range(layout.n_tiles)
    )


def _covered(n_pixels, width=96, height=96):
    """A buffer with its first ``n_pixels`` (row-major) drawn."""
    fb = Framebuffer(width, height)
    fb.depth.reshape(-1)[:n_pixels] = np.linspace(1.0, 2.0, n_pixels)
    return fb


class TestReferenceComposite:
    def test_equals_single_node_render(self, partitioned_render):
        fbs, ref = partitioned_render
        out = composite(fbs)
        assert np.array_equal(out.depth, ref.depth)
        assert np.array_equal(out.color, ref.color)

    def test_composite_is_order_invariant(self, partitioned_render):
        fbs, _ = partitioned_render
        a = composite(fbs)
        b = composite(fbs[::-1])
        assert np.array_equal(a.color, b.color)
        assert np.array_equal(a.depth, b.depth)

    def test_single_buffer(self, partitioned_render):
        fbs, _ = partitioned_render
        out = composite(fbs[:1])
        assert np.array_equal(out.color, fbs[0].color)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            composite([Framebuffer(8, 8), Framebuffer(9, 8)])

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            composite([])


class TestDirectSend:
    def test_image_matches_reference(self, partitioned_render):
        fbs, ref = partitioned_render
        layout = TileLayout(2, 2, 96, 96)
        out, stats = direct_send(fbs, layout)
        assert np.array_equal(out.depth, ref.depth)
        assert np.array_equal(out.color, ref.color)
        assert stats.schedule == "direct-send"

    def test_byte_accounting(self, partitioned_render):
        """Each node is charged the summed nbytes of its tile messages:
        one header per tile plus its covered pixels, addressed."""
        fbs, _ = partitioned_render
        layout = TileLayout(2, 2, 96, 96)
        _, stats = direct_send(fbs, layout)
        assert stats.bytes_sent_per_node == [_message_bytes(fb, layout) for fb in fbs]
        for fb, sent in zip(fbs, stats.bytes_sent_per_node):
            covered = int((fb.depth < np.inf).sum())
            assert sent == 4 * REGION_HEADER_BYTES + covered * ADDRESSED_PIXEL_BYTES
        assert stats.total_bytes < 4 * 96 * 96 * PIXEL_PAYLOAD_BYTES // 4

    def test_uneven_tiles(self, partitioned_render):
        fbs, ref = partitioned_render
        layout = TileLayout(3, 3, 96, 96)
        out, stats = direct_send(fbs, layout)
        assert np.array_equal(out.depth, ref.depth)
        assert np.array_equal(out.color, ref.color)
        assert stats.bytes_sent_per_node == [_message_bytes(fb, layout) for fb in fbs]

    def test_empty_buffer_ships_headers_only(self):
        layout = TileLayout(3, 3, 96, 96)
        _, stats = direct_send([Framebuffer(96, 96)] * 2, layout)
        assert stats.bytes_sent_per_node == [9 * REGION_HEADER_BYTES] * 2

    def test_full_buffer_ships_dense_plus_addresses(self):
        """The honest worst case: a fully covered buffer costs more than
        the dense tile regions did, by its offsets and headers."""
        layout = TileLayout(2, 2, 96, 96)
        _, stats = direct_send([_covered(96 * 96)], layout)
        dense = 96 * 96 * PIXEL_PAYLOAD_BYTES
        assert stats.total_bytes == dense + 96 * 96 * 4 + 4 * REGION_HEADER_BYTES

    def test_bytes_monotone_in_coverage(self):
        layout = TileLayout(3, 3, 96, 96)
        sent = [
            direct_send([_covered(n)], layout)[1].total_bytes
            for n in (0, 1, 50, 96 * 40, 96 * 96 - 1, 96 * 96)
        ]
        assert sent == sorted(set(sent))


class TestBinarySwap:
    def test_image_matches_reference(self, partitioned_render):
        fbs, ref = partitioned_render
        out, stats = binary_swap(fbs)
        assert np.array_equal(out.depth, ref.depth)
        assert np.array_equal(out.color, ref.color)
        assert stats.rounds == 2

    def test_total_bytes_track_coverage(self, partitioned_render):
        """Swap rounds and the final gather ship covered pixels only:
        on a sparse frame both schedules stay far under the dense
        screen per node; binary swap pays more headers and re-ships
        pixels it merged, so it moves more than direct send."""
        fbs, _ = partitioned_render
        _, ds = direct_send(fbs, TileLayout(2, 2, 96, 96))
        _, bs = binary_swap(fbs)
        screen = 96 * 96 * PIXEL_PAYLOAD_BYTES
        assert ds.total_bytes < bs.total_bytes < 4 * screen // 4
        # Fully covered buffers: one addressed screen per node, plus the
        # 2 swap headers and the final-strip header.
        full = [_covered(96 * 96)] * 4
        _, bs = binary_swap(full)
        assert bs.bytes_sent_per_node == [
            96 * 96 * ADDRESSED_PIXEL_BYTES + 3 * REGION_HEADER_BYTES
        ] * 4

    def test_per_node_bytes_balanced(self, partitioned_render):
        fbs, _ = partitioned_render
        _, stats = binary_swap(fbs)
        assert max(stats.bytes_sent_per_node) - min(stats.bytes_sent_per_node) <= (
            96 * 96 * PIXEL_PAYLOAD_BYTES // 2
        )

    def test_requires_power_of_two(self, partitioned_render):
        fbs, _ = partitioned_render
        with pytest.raises(ValueError):
            binary_swap(fbs[:3])
        with pytest.raises(ValueError):
            binary_swap([])

    def test_two_nodes(self, partitioned_render):
        fbs, _ = partitioned_render
        merged2 = composite(fbs[:2])
        out, stats = binary_swap(fbs[:2])
        assert np.array_equal(out.depth, merged2.depth)
        assert stats.rounds == 1

    def test_inputs_not_mutated(self, partitioned_render):
        fbs, _ = partitioned_render
        before = [fb.depth.copy() for fb in fbs]
        binary_swap(fbs)
        for fb, d in zip(fbs, before):
            assert np.array_equal(fb.depth, d)
