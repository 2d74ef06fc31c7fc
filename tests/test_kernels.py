"""The pluggable extraction-kernel subsystem.

Four contracts under test:

* **Registry** (:mod:`repro.mc.backends`): names resolve, unknown names
  fail fast listing the alternatives, registration is append-only and
  test-scoped backends can be removed again.
* **mc-batch parity**: the vectorized batch kernel is *geometrically
  bit-identical* to a per-cell traversal — exhaustively over all 256
  sign configurations of a single cell, and over seeded random volumes
  at every chunk size (chunking may reorder triangles, never change
  them).
* **surface-nets topology**: the dual kernel produces the same surface
  topology as Marching Cubes (component count, Euler characteristic,
  closedness, crack-free metacell boundaries) while being exactly
  chunk- and permutation-invariant; plus the wraparound and
  absolute-placement regressions.
* **Selection plumbing**: both backends are reachable through
  ``QueryOptions`` / ``ExtractRequest`` across healthy,
  fault-injected, and deadline-cut paths, and the modern-kwarg shim
  rejects mixed spellings.
"""

import dataclasses
import importlib

import numpy as np
import pytest

# ``repro.mc`` re-exports the ``surface_nets`` *function* under the same
# name as the submodule, so a plain ``import repro.mc.surface_nets as m``
# binds the function; go through importlib for the module object.
snm = importlib.import_module("repro.mc.surface_nets")
from repro.core.builder import build_indexed_dataset
from repro.core.query import QueryOptions, execute_query
from repro.grid.datasets import sphere_field
from repro.io.faults import FaultPlan
from repro.mc.backends import (
    DEFAULT_BACKEND,
    KernelBackend,
    available_backends,
    get_backend,
    register_backend,
    unregister_backend,
    validate_backend,
)
from repro.mc.geometry import TriangleMesh
from repro.mc.marching_cubes import marching_cubes, marching_cubes_batch
from repro.mc.surface_nets import surface_nets, surface_nets_batch
from repro.mc.tables import CORNERS, EDGE_MASK, EDGE_VERTICES, N_TRI, TRI_TABLE
from repro.parallel.cluster import ExtractRequest, SimulatedCluster
from repro.pipeline import IsosurfacePipeline


def tri_soup(mesh) -> np.ndarray:
    """Canonical order-independent triangle soup: per face the three
    vertex coordinate triples sorted within the face, faces sorted
    lexicographically.  Two meshes with equal soups carry the same
    geometry, regardless of vertex indexing, winding, or emit order."""
    if mesh.n_triangles == 0:
        return np.empty((0, 9))
    tris = np.ascontiguousarray(mesh.vertices[mesh.faces])  # (F, 3, 3)
    dt = np.dtype([("x", "f8"), ("y", "f8"), ("z", "f8")])
    corners = np.sort(tris.view(dt).reshape(-1, 3), axis=1)
    flat = corners.view("f8").reshape(-1, 9)
    return flat[np.lexsort(flat.T[::-1])]


def soup_of_triangles(tris: np.ndarray) -> np.ndarray:
    """``tri_soup`` for a raw ``(F, 3, 3)`` triangle array."""
    n = len(tris)
    return tri_soup(TriangleMesh(
        np.asarray(tris, dtype=float).reshape(-1, 3),
        np.arange(3 * n, dtype=np.int64).reshape(-1, 3),
    ))


def boundary_edge_count(mesh) -> int:
    return mesh.boundary_edge_count()


def components(mesh) -> int:
    """Connected components of the face graph (union-find)."""
    n = mesh.n_vertices
    parent = np.arange(n)

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for tri in mesh.faces:
        a, b, c = (int(v) for v in tri)
        ra = find(a)
        parent[find(b)] = ra
        parent[find(c)] = ra
    return len({find(i) for i in range(n)}) if n else 0


def sphere_sdf(n=24, r=8.0) -> np.ndarray:
    g = np.arange(n)
    x, y, z = np.meshgrid(g, g, g, indexing="ij")
    c = (n - 1) / 2
    return np.sqrt((x - c) ** 2 + (y - c) ** 2 + (z - c) ** 2) - r


def to_batch(vol: np.ndarray, m: int = 9):
    """Cut a full grid into (m,m,m) metacell payloads with the shared
    vertex layer the paper's layout uses (stride m-1); short payloads
    are padded with a huge constant so they add no crossings."""
    s = m - 1
    nx, ny, nz = vol.shape
    vals, orgs = [], []
    for i in range(0, nx - 1, s):
        for j in range(0, ny - 1, s):
            for k in range(0, nz - 1, s):
                p = vol[i:i + m, j:j + m, k:k + m]
                if p.shape != (m, m, m):
                    pp = np.full((m, m, m), 1e9)
                    pp[:p.shape[0], :p.shape[1], :p.shape[2]] = p
                    p = pp
                vals.append(p)
                orgs.append((i, j, k))
    return np.asarray(vals), np.asarray(orgs, dtype=float)


def smooth_random_volume(seed: int, n: int = 16) -> np.ndarray:
    rng = np.random.default_rng(seed)
    f = rng.standard_normal((n, n, n))
    F = np.fft.rfftn(f)
    k = np.fft.fftfreq(n)
    kx, ky = np.meshgrid(k, k, indexing="ij")
    kz = np.fft.rfftfreq(n)
    K2 = kx[:, :, None] ** 2 + ky[:, :, None] ** 2 + kz[None, None, :] ** 2
    return np.fft.irfftn(F / (1 + 400 * K2), s=(n, n, n), axes=(0, 1, 2))


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_builtins_registered(self):
        names = available_backends()
        assert "mc-batch" in names and "surface-nets" in names
        assert DEFAULT_BACKEND == "mc-batch"

    def test_get_default(self):
        assert get_backend().name == "mc-batch"
        assert get_backend(None).name == "mc-batch"

    def test_backend_properties(self):
        mc = get_backend("mc-batch")
        sn = get_backend("surface-nets")
        assert mc.exact
        assert not sn.exact

    def test_unknown_name_lists_alternatives(self):
        with pytest.raises(ValueError, match="mc-batch"):
            get_backend("no-such-kernel")
        with pytest.raises(ValueError, match="surface-nets"):
            validate_backend("no-such-kernel")

    def test_validate_returns_name(self):
        assert validate_backend("surface-nets") == "surface-nets"

    def test_register_and_unregister(self):
        bk = KernelBackend(
            name="test-kernel", batch=marching_cubes_batch, exact=True,
        )
        try:
            register_backend(bk)
            assert get_backend("test-kernel") is bk
            assert "test-kernel" in available_backends()
            assert QueryOptions(backend="test-kernel").backend == "test-kernel"
        finally:
            unregister_backend("test-kernel")
        with pytest.raises(ValueError):
            get_backend("test-kernel")

    def test_bad_name_rejected(self):
        with pytest.raises(ValueError):
            register_backend(KernelBackend(name="", batch=None, exact=True))


# ---------------------------------------------------------------------------
# mc-batch parity with a per-cell reference
# ---------------------------------------------------------------------------


def reference_cell_triangles(corner_values, iso: float) -> np.ndarray:
    """Straight per-cell Marching Cubes from the case tables: the
    slow-but-obvious reference the vectorized batch kernel must match.

    Same convention as the kernel: corner ``c`` sets bit ``c`` of the
    case index iff its value is ``> iso``; crossing positions come from
    linear interpolation along the edge."""
    index = 0
    for c in range(8):
        if corner_values[c] > iso:
            index |= 1 << c
    if EDGE_MASK[index] == 0:
        return np.empty((0, 3, 3))
    verts = {}
    for e in range(12):
        if EDGE_MASK[index] & (1 << e):
            a, b = EDGE_VERTICES[e]
            va, vb = float(corner_values[a]), float(corner_values[b])
            t = (iso - va) / (vb - va)
            verts[e] = CORNERS[a] + t * (CORNERS[b] - CORNERS[a])
    tris = [[verts[e0], verts[e1], verts[e2]]
            for (e0, e1, e2) in TRI_TABLE[index]]
    return np.asarray(tris, dtype=float).reshape(-1, 3, 3)


class TestMCBatchParity:
    def test_all_256_sign_configurations(self):
        """Exhaustive single-cell sweep: every case index produces the
        table's triangle count and the same geometry as the per-cell
        reference, to the last bit of the interpolation."""
        iso = 0.5
        for case in range(256):
            corner_values = np.array(
                [1.0 if case & (1 << c) else 0.0 for c in range(8)]
            )
            cell = np.empty((2, 2, 2))
            for c in range(8):
                x, y, z = (int(v) for v in CORNERS[c])
                cell[x, y, z] = corner_values[c]
            ref = reference_cell_triangles(corner_values, iso)
            mesh = marching_cubes_batch(cell[None], iso, np.zeros((1, 3)))
            assert mesh.n_triangles == N_TRI[case] == len(ref), f"case {case}"
            if len(ref):
                # iso sits exactly mid-edge here, so both emitters land
                # on the same representable coordinates: equality is exact
                assert np.array_equal(
                    tri_soup(mesh), soup_of_triangles(ref)
                ), f"case {case}"

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_volume_matches_reference_cells(self, seed):
        rng = np.random.default_rng(seed)
        vol = rng.random((5, 5, 5))
        iso = 0.5
        ref_tris = []
        for i in range(4):
            for j in range(4):
                for k in range(4):
                    cv = np.array([
                        vol[i, j, k], vol[i + 1, j, k],
                        vol[i + 1, j + 1, k], vol[i, j + 1, k],
                        vol[i, j, k + 1], vol[i + 1, j, k + 1],
                        vol[i + 1, j + 1, k + 1], vol[i, j + 1, k + 1],
                    ])
                    t = reference_cell_triangles(cv, iso)
                    if len(t):
                        ref_tris.append(t + np.array([i, j, k], dtype=float))
        ref = np.concatenate(ref_tris) if ref_tris else np.empty((0, 3, 3))
        mesh = marching_cubes_batch(vol[None], iso, np.zeros((1, 3)))
        assert mesh.n_triangles == len(ref)
        # The kernel may interpolate each edge from the opposite endpoint
        # (same point, last-ulp float noise): round away the noise before
        # canonicalizing so the sort order is stable, then compare exactly.
        got = soup_of_triangles(mesh.vertices[mesh.faces].round(9))
        want = soup_of_triangles(ref.round(9))
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("chunk", [1, 3, 7, 512])
    def test_chunking_never_changes_geometry(self, chunk):
        vol = sphere_sdf(n=17, r=6.0)
        vals, orgs = to_batch(vol, m=9)
        base = marching_cubes_batch(vals, 0.0, orgs)
        got = marching_cubes_batch(vals, 0.0, orgs, chunk=chunk)
        assert np.array_equal(tri_soup(got), tri_soup(base))

    def test_default_chunk_is_bit_identical_to_explicit_512(self):
        vol = sphere_sdf()
        vals, orgs = to_batch(vol)
        a = marching_cubes_batch(vals, 0.0, orgs)
        b = marching_cubes_batch(vals, 0.0, orgs, chunk=512)
        assert np.array_equal(a.vertices, b.vertices)
        assert np.array_equal(a.faces, b.faces)

    def test_chunk_below_one_rejected(self):
        vals, orgs = to_batch(sphere_sdf())
        with pytest.raises(ValueError):
            marching_cubes_batch(vals, 0.0, orgs, chunk=0)


# ---------------------------------------------------------------------------
# SurfaceNets topology equivalence
# ---------------------------------------------------------------------------


class TestSurfaceNetsTopology:
    @pytest.fixture(scope="class")
    def sphere_batch(self):
        vol = sphere_sdf()
        vals, orgs = to_batch(vol)
        return vol, vals, orgs

    @pytest.mark.parametrize("relax_iters", [0, 1, 2])
    def test_sphere_closed_euler_one_component(self, sphere_batch, relax_iters):
        vol, vals, orgs = sphere_batch
        full = surface_nets(vol, 0.0, relax_iters=relax_iters)
        batch = surface_nets_batch(vals, 0.0, orgs, relax_iters=relax_iters)
        assert boundary_edge_count(full) == 0
        assert full.euler_characteristic() == 2
        assert components(full) == 1
        assert boundary_edge_count(batch) == 0
        assert batch.n_triangles == full.n_triangles
        assert abs(batch.enclosed_volume() - full.enclosed_volume()) < 1e-9

    def test_volume_matches_mc_convention(self, sphere_batch):
        vol, _, _ = sphere_batch
        sn = surface_nets(vol, 0.0)
        mc = marching_cubes(vol, 0.0)
        assert np.sign(sn.enclosed_volume()) == np.sign(mc.enclosed_volume())
        rel = abs(sn.enclosed_volume() - mc.enclosed_volume())
        assert rel / abs(mc.enclosed_volume()) < 0.08

    @pytest.mark.parametrize("chunk", [1, 3, 7, 512])
    def test_exact_chunk_invariance(self, sphere_batch, chunk):
        _, vals, orgs = sphere_batch
        base = surface_nets_batch(vals, 0.0, orgs)
        got = surface_nets_batch(vals, 0.0, orgs, chunk=chunk)
        assert np.array_equal(got.faces, base.faces)
        assert np.array_equal(got.vertices, base.vertices)

    def test_permutation_invariant_surface(self, sphere_batch):
        _, vals, orgs = sphere_batch
        base = surface_nets_batch(vals, 0.0, orgs)
        perm = np.random.default_rng(0).permutation(len(vals))
        got = surface_nets_batch(vals[perm], 0.0, orgs[perm])
        assert got.n_triangles == base.n_triangles
        assert abs(got.enclosed_volume() - base.enclosed_volume()) < 1e-9

    def test_crack_free_metacell_boundaries_on_clipped_sphere(self):
        """A sphere poking out of the box: the only boundary edges the
        batch extraction may have are the ones the full-grid extraction
        has (the domain clip), never metacell seams."""
        vol = sphere_sdf(n=17, r=10.0)
        full = surface_nets(vol, 0.0)
        vals, orgs = to_batch(vol, m=9)
        batch = surface_nets_batch(vals, 0.0, orgs)
        assert boundary_edge_count(batch) == boundary_edge_count(full)
        assert batch.n_triangles == full.n_triangles
        assert abs(batch.enclosed_volume() - full.enclosed_volume()) < 1e-9

    def test_wraparound_regression_tilted_plane(self):
        """Stencil probes of bounding-box low-face edges must not wrap
        into another slab: every face edge of a tilted plane through the
        whole box connects adjacent cells (length < 3), which the
        pre-ghost-layer indexing violated."""
        g = np.arange(17, dtype=float)
        x, y, z = np.meshgrid(g, g, g, indexing="ij")
        mesh = surface_nets(x + 0.3 * y + 0.1 * z - 8.0, 0.0)
        v = mesh.vertices
        lengths = np.concatenate([
            np.linalg.norm(v[mesh.faces[:, a]] - v[mesh.faces[:, b]], axis=1)
            for a, b in ((0, 1), (1, 2), (2, 0))
        ])
        assert lengths.max() < 3.0

    def test_shifted_origins_place_absolutely(self, sphere_batch):
        _, vals, orgs = sphere_batch
        base = surface_nets_batch(vals, 0.0, orgs)
        shift = np.array([40.0, 56.0, 72.0])
        got = surface_nets_batch(vals, 0.0, orgs + shift)
        assert np.allclose(got.vertices - shift, base.vertices)
        assert np.array_equal(got.faces, base.faces)

    def test_world_transform_and_unit_normals(self, sphere_batch):
        _, vals, orgs = sphere_batch
        mesh, normals = surface_nets_batch(
            vals, 0.0, orgs, spacing=(0.5, 2.0, 1.5),
            world_origin=(3.0, -1.0, 2.0), with_normals=True, relax_iters=1,
        )
        assert normals.shape == (mesh.n_vertices, 3)
        assert np.allclose(np.linalg.norm(normals, axis=1), 1.0)

    def test_relaxed_vertices_stay_in_their_cell(self, sphere_batch):
        _, vals, orgs = sphere_batch
        cell_floor = np.floor(
            surface_nets_batch(vals, 0.0, orgs, relax_iters=0).vertices
        )
        relaxed = surface_nets_batch(vals, 0.0, orgs, relax_iters=3).vertices
        assert (relaxed >= cell_floor - 1e-12).all()
        assert (relaxed <= cell_floor + 1 + 1e-12).all()

    def test_empty_uniform_and_bad_inputs(self):
        assert surface_nets_batch(
            np.empty((0, 9, 9, 9)), 0.0, np.empty((0, 3))
        ).n_triangles == 0
        uniform = np.ones((4, 9, 9, 9))
        orgs = np.array(
            [[0, 0, 0], [8, 0, 0], [0, 8, 0], [0, 0, 8]], dtype=float
        )
        assert surface_nets_batch(uniform, 0.0, orgs).n_triangles == 0
        with pytest.raises(ValueError):
            surface_nets_batch(np.zeros((9, 9, 9)), 0.0, np.zeros((1, 3)))
        with pytest.raises(ValueError):
            surface_nets_batch(uniform, 0.0, orgs, chunk=0)

    def test_integer_payloads_match_float(self, sphere_batch):
        vol = (sphere_sdf() * 8 + 128).clip(0, 255)
        vals, orgs = to_batch(vol)
        as_int = surface_nets_batch(vals.astype(np.uint8), 127.5, orgs)
        as_float = surface_nets_batch(
            vals.astype(np.uint8).astype(float), 127.5, orgs
        )
        assert np.array_equal(as_int.faces, as_float.faces)
        assert np.array_equal(as_int.vertices, as_float.vertices)

    def test_sparse_fallback_bit_identical_to_dense(self, sphere_batch,
                                                    monkeypatch):
        _, vals, orgs = sphere_batch
        dense = surface_nets_batch(vals, 0.0, orgs, relax_iters=2)
        monkeypatch.setattr(snm, "_DENSE_GRID_CAP", 0)
        sparse = surface_nets_batch(vals, 0.0, orgs, relax_iters=2)
        assert np.array_equal(sparse.faces, dense.faces)
        assert np.array_equal(sparse.vertices, dense.vertices)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_smoothed_volumes_batch_matches_full(self, seed):
        """On band-limited random fields (where non-manifold sign
        patterns do occur) the batched extraction still reproduces the
        full-grid surface: same triangles, volume, and open boundary."""
        # n=17 tiles into 9^3 patches exactly: the pad value would read
        # as a huge field sample and cut spurious walls into open surfaces
        vol = smooth_random_volume(seed, n=17)
        iso = float(np.median(vol))
        full = surface_nets(vol, iso, relax_iters=1)
        vals, orgs = to_batch(vol, m=9)
        batch = surface_nets_batch(vals, iso, orgs, relax_iters=1)
        assert full.n_triangles > 0
        assert batch.n_triangles == full.n_triangles
        assert boundary_edge_count(batch) == boundary_edge_count(full)
        assert abs(batch.enclosed_volume() - full.enclosed_volume()) < 1e-9


# ---------------------------------------------------------------------------
# Selection plumbing: QueryOptions / ExtractRequest / faults
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def sphere_pipe():
    return IsosurfacePipeline.from_volume(
        sphere_field((24, 24, 24)), metacell_shape=(5, 5, 5)
    )


class TestBackendSelection:
    def test_batch_chunk_default_bit_identity(self, sphere_pipe):
        base = sphere_pipe.extract(0.5)
        explicit = sphere_pipe.extract(
            0.5, options=QueryOptions(batch_chunk=512)
        )
        assert np.array_equal(base.mesh.vertices, explicit.mesh.vertices)
        assert np.array_equal(base.mesh.faces, explicit.mesh.faces)

    def test_batch_chunk_tunable_preserves_geometry(self, sphere_pipe):
        base = sphere_pipe.extract(0.5)
        small = sphere_pipe.extract(0.5, options=QueryOptions(batch_chunk=3))
        assert np.array_equal(
            tri_soup(base.mesh), tri_soup(small.mesh)
        )

    def test_unknown_backend_rejected_at_options(self):
        with pytest.raises(ValueError, match="mc-batch"):
            QueryOptions(backend="bogus")
        with pytest.raises(ValueError, match="mc-batch"):
            ExtractRequest(backend="bogus")
        with pytest.raises(ValueError):
            QueryOptions(batch_chunk=0)
        with pytest.raises(ValueError):
            ExtractRequest(batch_chunk=0)


@pytest.fixture(scope="module")
def small_cluster_volume():
    from repro.grid.rm_instability import rm_timestep

    return rm_timestep(250, shape=(33, 33, 29), seed=7)


class TestClusterBackendMatrix:
    @pytest.fixture(scope="class")
    def cluster(self, small_cluster_volume):
        return SimulatedCluster(
            small_cluster_volume, p=2, metacell_shape=(9, 9, 9),
            replication=2,
        )

    @pytest.fixture(scope="class")
    def lam(self, cluster):
        eps = cluster.datasets[0].tree.endpoints
        return float(eps[len(eps) // 2])

    @pytest.mark.parametrize("backend", ["mc-batch", "surface-nets"])
    def test_healthy_extraction(self, cluster, lam, backend):
        res = cluster.extract(lam, ExtractRequest(backend=backend))
        assert res.n_triangles > 0
        assert res.backend == backend
        assert res.coverage == pytest.approx(1.0)

    @pytest.mark.parametrize("backend", ["mc-batch", "surface-nets"])
    def test_fault_plan_recovery(self, small_cluster_volume, backend, lam=None):
        cluster = SimulatedCluster(
            small_cluster_volume, p=2, metacell_shape=(9, 9, 9),
            replication=2,
            fault_plans={0: FaultPlan.from_spec("transient=0.2,seed=3")},
        )
        eps = cluster.datasets[0].tree.endpoints
        lam = float(eps[len(eps) // 2])
        res = cluster.extract(lam, ExtractRequest(backend=backend))
        healthy = SimulatedCluster(
            small_cluster_volume, p=2, metacell_shape=(9, 9, 9),
            replication=2,
        ).extract(lam, ExtractRequest(backend=backend))
        assert res.n_triangles == healthy.n_triangles
        assert not res.degraded

    @pytest.mark.parametrize("backend", ["mc-batch", "surface-nets"])
    def test_deadline_cut_flags_partial(self, cluster, lam, backend):
        res = cluster.extract(
            lam, ExtractRequest(backend=backend, deadline=1e-9)
        )
        assert res.deadline is not None
        assert res.coverage <= 1.0

    def test_mesh_cache_keys_keep_backends_apart(self, small_cluster_volume):
        from repro.io.cache import CacheOptions

        cluster = SimulatedCluster(
            small_cluster_volume, p=2, metacell_shape=(9, 9, 9),
            cache=CacheOptions(result_cache_bytes=8 << 20),
        )
        eps = cluster.datasets[0].tree.endpoints
        lam = float(eps[len(eps) // 2])
        mc1 = cluster.extract(lam)
        sn1 = cluster.extract(lam, ExtractRequest(backend="surface-nets"))
        # A warm mc-batch cache must not feed surface-nets results.
        assert sn1.n_triangles != mc1.n_triangles
        sn2 = cluster.extract(lam, ExtractRequest(backend="surface-nets"))
        assert sn2.n_triangles == sn1.n_triangles
        mc2 = cluster.extract(lam)
        assert mc2.n_triangles == mc1.n_triangles


# ---------------------------------------------------------------------------
# backend= / batch_chunk= travel as option fields only (the keyword sugar
# went with the legacy-kwarg shim)
# ---------------------------------------------------------------------------


class TestModernKwargShim:
    def test_modern_plus_legacy_raises_both_spellings(self):
        ds = build_indexed_dataset(sphere_field((24, 24, 24)), (5, 5, 5))
        with pytest.raises(TypeError, match="backend"):
            execute_query(ds, 0.5, backend="surface-nets")
        with pytest.raises(TypeError, match="unexpected keyword"):
            execute_query(ds, 0.5, backend="surface-nets", read_ahead_blocks=2)

    def test_modern_plus_options_object_raises(self):
        ds = build_indexed_dataset(sphere_field((24, 24, 24)), (5, 5, 5))
        with pytest.raises(TypeError, match="backend"):
            execute_query(ds, 0.5, QueryOptions(), backend="surface-nets")

    def test_cluster_modern_plus_legacy_raises(self, small_cluster_volume):
        cluster = SimulatedCluster(
            small_cluster_volume, p=2, metacell_shape=(9, 9, 9)
        )
        eps = cluster.datasets[0].tree.endpoints
        lam = float(eps[len(eps) // 2])
        with pytest.raises(TypeError, match="backend"):
            cluster.extract(lam, backend="surface-nets")
        with pytest.raises(TypeError, match="unexpected keyword"):
            cluster.extract(lam, batch_chunk=64, deadline=1.0)

    def test_request_field_roundtrip(self):
        req = ExtractRequest(backend="surface-nets", batch_chunk=64)
        assert req.backend == "surface-nets" and req.batch_chunk == 64
        req2 = dataclasses.replace(req, backend="mc-batch")
        assert req2.backend == "mc-batch"
