"""The fragment pipeline renders the reference loop's bytes.

``tests/_reference_rasterizer.py`` is the per-triangle z-buffer loop the
production rasterizer replaced; it defines the output.  Every case here
renders the same input through both and compares color *and* depth byte
for byte, for both shaders, at several batch sizes: the batch constant
may only ever change speed and memory.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.parallel.cluster as cluster_module
from repro.grid.rm_instability import rm_timestep
from repro.mc.geometry import TriangleMesh
from repro.parallel.cluster import ExtractRequest, SimulatedCluster
from repro.render import rasterizer
from repro.render.camera import Camera
from repro.render.rasterizer import Framebuffer
from tests import _reference_rasterizer as reference

BATCH_SIZES = (1, 7, 64, rasterizer._BATCH_FRAGMENTS)


def front_camera():
    return Camera(eye=[0, -5, 0], target=[0, 0, 0], up=[0, 0, 1])


def soup(vertices) -> TriangleMesh:
    """Unindexed triangles: consecutive vertex triples."""
    v = np.asarray(vertices, dtype=np.float64).reshape(-1, 3)
    return TriangleMesh(v, np.arange(len(v)).reshape(-1, 3))


def render_both(mesh, camera, size, normals=None, into=None):
    """Render ``mesh`` with the pipeline and with the reference loop, flat
    or (with ``normals``) Gouraud, into fresh or the given ``(new, old)``
    framebuffers; returns the pair after asserting equal counts."""
    new, old = into or (Framebuffer(*size), Framebuffer(*size))
    if normals is None:
        n_new = rasterizer.render_mesh(new, mesh, camera)
        n_old = reference.render_mesh(old, mesh, camera)
    else:
        n_new = rasterizer.render_mesh_smooth(new, mesh, camera, normals)
        n_old = reference.render_mesh_smooth(old, mesh, camera, normals)
    assert n_new == n_old
    return new, old


def assert_same_bytes(new: Framebuffer, old: Framebuffer):
    assert new.depth.tobytes() == old.depth.tobytes()
    assert new.color.tobytes() == old.color.tobytes()


def assert_identical(mesh, camera, size=(48, 40), seed=0):
    """Both shaders, fresh framebuffers."""
    normals = np.random.default_rng(seed).normal(size=(mesh.n_vertices, 3))
    assert_same_bytes(*render_both(mesh, camera, size))
    assert_same_bytes(*render_both(mesh, camera, size, normals))


@pytest.fixture(params=BATCH_SIZES)
def batch(request, monkeypatch):
    monkeypatch.setattr(rasterizer, "_BATCH_FRAGMENTS", request.param)
    return request.param


class TestRandomSoups:
    """Seeded soups mixing the awkward kinds of triangle."""

    @staticmethod
    def make(seed: int, n: int) -> TriangleMesh:
        rng = np.random.default_rng(seed)
        center = rng.normal(size=(n, 1, 3)) * [2.0, 1.5, 2.0]
        tri = center + rng.normal(size=(n, 3, 3)) * rng.choice(
            [1e-3, 0.05, 0.6, 4.0], size=(n, 1, 1)  # sub-pixel .. frame-filling
        )
        kind = rng.integers(0, 6, size=n)
        tri[kind == 0, 2] = tri[kind == 0, 1]  # zero area (repeated vertex)
        tri[kind == 1, 2] = 2 * tri[kind == 1, 1] - tri[kind == 1, 0]  # collinear
        tri[kind == 2] += [9.0, 0.0, 0.0]  # fully off screen
        tri[kind == 3] += [2.2, 0.0, 2.2]  # straddles the frame corner
        tri[kind == 4, :, 1] -= 6.0  # behind the eye / through the near plane
        return soup(tri)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 60),
        width=st.integers(1, 72),
        height=st.integers(1, 72),
        batch=st.sampled_from(BATCH_SIZES),
    )
    def test_soup_is_bit_identical(self, seed, n, width, height, batch):
        with pytest.MonkeyPatch.context() as patch:  # not the fixture: @given
            patch.setattr(rasterizer, "_BATCH_FRAGMENTS", batch)
            assert_identical(self.make(seed, n), front_camera(), (width, height), seed)

    def test_soup_kinds_all_occur(self):
        """The generator really produces culled, degenerate and drawn
        triangles (so the property above is not vacuous)."""
        mesh = self.make(7, 60)
        fb = Framebuffer(48, 40)
        drawn = rasterizer.render_mesh(fb, mesh, front_camera())
        assert 0 < drawn < mesh.n_triangles
        assert 0.0 < fb.coverage() < 1.0


class TestExactTies:
    def test_coplanar_duplicates_resolve_like_the_loop(self, batch):
        """Two copies of one triangle.  The second passes ``z < depth``
        exactly where the first's float64 z was rounded *up* into the
        float32 buffer, and nowhere else -- a rule only the sequential
        test gets right, and both outcomes occur."""
        tri = [[-1, 0, -1], [1, 0, -1], [0.3, 0.4, 1]]
        ahead, sideways = np.tile([0.0, -1, 0], (3, 1)), np.tile([1.0, 0, 0], (3, 1))
        camera, size = front_camera(), (40, 40)
        new, old = render_both(soup([tri, tri]), camera, size, np.r_[ahead, sideways])
        assert_same_bytes(new, old)
        first = render_both(soup([tri]), camera, size, ahead)[0]
        second = render_both(soup([tri]), camera, size, sideways)[0]
        covered = np.isfinite(new.depth)
        kept = (new.color == first.color).all(axis=2) & covered
        taken = (new.color == second.color).all(axis=2) & covered
        assert kept.any() and taken.any()
        assert np.array_equal(kept ^ taken, covered)

    @staticmethod
    def fan(faces) -> TriangleMesh:
        """Four triangles around the frame centre, at view depth exactly
        5.0, whose shared edges run exactly through pixel row 20 and
        column 20 of a 41 x 41 frame."""
        corners = [[0, 0, 0], [1, 0, 0], [0, 0, 1], [-1, 0, 0], [0, 0, -1.0]]
        return TriangleMesh(np.array(corners), np.array(faces))

    def test_exactly_equal_depths_first_face_keeps_the_pixel(self, batch):
        """Drawn twice at a depth float32 holds exactly, the copy's z
        *equals* the stored value: ``<`` fails, the first fan wins."""
        fan = self.fan([[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 1]])
        normals = np.r_[np.tile([0.0, -1, 0], (5, 1)), np.tile([1.0, 0, 0], (5, 1))]
        camera, size = front_camera(), (41, 41)
        new, old = render_both(TriangleMesh.concat([fan, fan]), camera, size, normals)
        assert_same_bytes(new, old)
        assert_same_bytes(new, render_both(fan, camera, size, normals[:5])[0])
        assert set(new.depth[np.isfinite(new.depth)]) == {np.float32(5.0)}

    def test_pixel_centres_exactly_on_shared_edges(self, batch):
        """A weight is exactly 0 on the edge pixels; ``>= 0`` admits them
        for whichever of b0, b1, b2 it is (the faces start at different
        corners), and the first of the two faces keeps them."""
        fan = self.fan([[0, 1, 2], [2, 3, 0], [4, 0, 3], [1, 0, 4]])
        assert_identical(fan, front_camera(), (41, 41))
        fb = Framebuffer(41, 41)
        rasterizer.render_mesh(fb, fan, front_camera())
        covered = np.isfinite(fb.depth)
        assert covered[20, 11:30].all() and covered[11:30, 20].all()

    def test_shared_edges_and_overlapping_layers(self, batch):
        """An indexed grid (every interior edge shared by two triangles,
        pixel centres on an edge belong to the earlier face) stacked in
        three coplanar-duplicate and offset layers."""
        g = np.linspace(-1.2, 1.2, 7)
        x, z = np.meshgrid(g, g)
        quad = np.arange(36).reshape(6, 6) + np.arange(6)[:, None]
        faces = np.concatenate(
            [np.stack([quad, quad + 1, quad + 8], -1).reshape(-1, 3),
             np.stack([quad, quad + 8, quad + 7], -1).reshape(-1, 3)]
        )
        layers = [
            TriangleMesh(np.stack([x.ravel(), np.full(49, y), z.ravel()], 1), faces)
            for y in (0.5, 0.5, -0.25)
        ]
        assert_identical(TriangleMesh.concat(layers), front_camera(), (64, 64))


class TestFramebufferState:
    def test_second_render_into_populated_buffer(self, batch):
        rng = np.random.default_rng(5)
        first = soup(rng.normal(size=(30, 3, 3)))
        second = soup(rng.normal(size=(30, 3, 3)) * 0.7)
        for normals in (None, rng.normal(size=(90, 3))):
            pair = render_both(first, front_camera(), (56, 33), normals)
            assert_same_bytes(*render_both(second, front_camera(), None, normals, pair))

    @pytest.mark.parametrize("size", [(1, 1), (1, 9), (9, 1), (97, 13), (13, 97)])
    def test_degenerate_and_non_square_frames(self, size, batch):
        rng = np.random.default_rng(11)
        assert_identical(soup(rng.normal(size=(25, 3, 3))), front_camera(), size)


class TestBatching:
    def test_one_triangle_covering_the_whole_frame(self, batch):
        """Its box is the frame, far more fragments than any small batch:
        the rows split across batches."""
        mesh = soup([[[-40, 0, -40], [40, 0, -40], [0, 0, 60]]])
        new, old = render_both(mesh, front_camera(), (37, 29))
        assert_same_bytes(new, old)
        assert new.coverage() == 1.0

    def test_fragment_count_crosses_many_batch_boundaries(self):
        """A mesh of ~20 k box fragments at the production batch size,
        plus the same bytes at every other size."""
        rng = np.random.default_rng(2)
        mesh = soup(rng.normal(size=(400, 3, 3)) * 0.5)
        camera, size = front_camera(), (128, 128)
        normals = rng.normal(size=(mesh.n_vertices, 3))
        assert_same_bytes(*render_both(mesh, camera, size))
        want = render_both(mesh, camera, size, normals)[1]
        for batch in BATCH_SIZES:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(rasterizer, "_BATCH_FRAGMENTS", batch)
                got = Framebuffer(*size)
                rasterizer.render_mesh_smooth(got, mesh, camera, normals)
            assert_same_bytes(got, want)


@pytest.mark.parametrize("smooth", [False, True])
def test_cluster_frame_is_bit_identical(smooth, monkeypatch):
    """The real thing: a 4-node RM frame, rendered and composited by
    ``SimulatedCluster``, against the same frame with the reference loop
    patched in where the cluster calls the rasterizer."""
    cluster = SimulatedCluster(
        rm_timestep(180, shape=(25, 17, 41)), 4,
        metacell_shape=(5, 5, 5), image_size=(128, 128),
    )
    request = ExtractRequest(render=True, smooth=smooth)
    new = cluster.extract(128.0, request).image
    monkeypatch.setattr(cluster_module, "render_mesh", reference.render_mesh)
    monkeypatch.setattr(cluster_module, "render_mesh_smooth", reference.render_mesh_smooth)
    old = cluster.extract(128.0, request).image
    assert 0.0 < new.coverage() < 1.0
    assert_same_bytes(new, old)
