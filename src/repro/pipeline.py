"""End-to-end serial façade: the paper's single-node pipeline.

:class:`IsosurfacePipeline` wires the whole stack together for the common
case — preprocess a volume once, then extract (and optionally render)
isosurfaces out-of-core at interactive cadence:

    volume -> metacells -> compact interval tree + brick layout
           -> query(lam) -> active metacells -> Marching Cubes -> mesh
           -> rasterize -> image

For multi-node execution use
:class:`repro.parallel.cluster.SimulatedCluster`, which shares all the
same pieces.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.builder import IndexedDataset, build_indexed_dataset
from repro.core.query import DEFAULT_QUERY_OPTIONS, QueryResult
from repro.grid.volume import Volume
from repro.mc.backends import triangulate_records, validate_backend
from repro.mc.geometry import TriangleMesh
from repro.parallel.metrics import NodeMetrics
from repro.parallel.node import extract_node
from repro.parallel.perfmodel import PAPER_CLUSTER, PerformanceModel
from repro.render.camera import Camera
from repro.render.compositor import PIXEL_PAYLOAD_BYTES
from repro.render.rasterizer import Framebuffer, render_mesh, render_mesh_smooth


@dataclass
class ExtractionResult:
    """One isosurface extraction: geometry plus full accounting."""

    lam: float
    mesh: TriangleMesh
    query: QueryResult
    metrics: NodeMetrics
    image: "Framebuffer | None" = None

    @property
    def n_active_metacells(self) -> int:
        return self.query.n_active

    @property
    def n_triangles(self) -> int:
        return self.mesh.n_triangles


class IsosurfacePipeline:
    """Preprocess once, query many times — the serial algorithm.

    Examples
    --------
    >>> from repro.grid.datasets import sphere_field
    >>> pipe = IsosurfacePipeline.from_volume(
    ...     sphere_field((24, 24, 24)), metacell_shape=(5, 5, 5))
    >>> res = pipe.extract(0.5)
    >>> res.mesh.weld().is_closed()
    True
    """

    def __init__(self, dataset: IndexedDataset, perf: PerformanceModel = PAPER_CLUSTER) -> None:
        self.dataset = dataset
        self.perf = perf

    @classmethod
    def from_volume(
        cls,
        volume: Volume,
        metacell_shape: tuple[int, int, int] = (9, 9, 9),
        device=None,
        perf: PerformanceModel = PAPER_CLUSTER,
    ) -> "IsosurfacePipeline":
        dataset = build_indexed_dataset(
            volume, metacell_shape, device=device, cost_model=perf.disk
        )
        return cls(dataset, perf)

    @property
    def report(self):
        """Preprocessing statistics (metacell counts, index size, ...)."""
        return self.dataset.report

    def extract(
        self,
        lam: float,
        render: bool = False,
        camera: Camera | None = None,
        image_size: tuple[int, int] = (512, 512),
        smooth: bool = False,
        options=None,
    ) -> ExtractionResult:
        """Run the out-of-core query and triangulate the result.

        With ``render=True`` the mesh is also rasterized (auto-framed
        unless a camera is given) and the result carries the image;
        ``smooth=True`` uses Gouraud shading from payload-local gradient
        normals instead of flat facets.

        ``options`` (a :class:`repro.core.query.QueryOptions`) tunes the
        query stage — read-ahead, deadlines, tracing — and the
        triangulation stage: ``backend`` selects the extraction kernel
        through :mod:`repro.mc.backends` and ``batch_chunk`` sizes its
        vectorized passes.
        """
        metrics, mesh, normals, qr = extract_node(
            self.dataset, lam,
            options if options is not None else DEFAULT_QUERY_OPTIONS,
            perf=self.perf, with_normals=smooth,
        )
        # The readback of one image_size buffer is charged even when
        # nothing is rasterized here: total_time is the paper's
        # three-stage node time, GPU stage modeled from the triangles.
        w, h = image_size
        metrics.render_time = self.perf.gpu.render_time(
            mesh.n_triangles, w * h * PIXEL_PAYLOAD_BYTES
        )

        image = None
        if render and mesh.n_triangles:
            cam = camera or Camera.fit_mesh(mesh)
            image = Framebuffer(w, h)
            if smooth and normals is not None:
                render_mesh_smooth(image, mesh, cam, normals)
            else:
                render_mesh(image, mesh, cam)
        return ExtractionResult(
            lam=float(lam), mesh=mesh, query=qr, metrics=metrics, image=image
        )

    def isovalue_range(self) -> tuple[float, float]:
        """Span of isovalues with any active metacell."""
        tree = self.dataset.tree
        if len(tree.endpoints) == 0:
            raise ValueError("dataset has no non-constant metacells")
        return float(tree.endpoints[0]), float(tree.endpoints[-1])

    def extract_many(self, lams, backend: str = "mc-batch",
                     ) -> "dict[float, TriangleMesh]":
        """Extract several isovalues with one shared pass over the disk.

        Records shared by nearby isovalues are read once
        (:func:`repro.core.multi_query.execute_multi_query`); each
        isovalue is then triangulated from its own active subset by the
        requested extraction ``backend``.
        """
        from repro.core.multi_query import execute_multi_query

        validate_backend(backend)  # before any disk is touched
        multi = execute_multi_query(self.dataset, lams)
        return {
            lam: triangulate_records(
                self.dataset, multi.records_for(lam), lam, backend=backend
            )[0]
            for lam in multi.lams
        }

    def extract_roi(self, lam: float, box_lo, box_hi):
        """Extract only the surface inside a world-space box; see
        :func:`repro.core.multi_query.extract_region_of_interest`."""
        from repro.core.multi_query import extract_region_of_interest

        return extract_region_of_interest(self.dataset, lam, box_lo, box_hi)

    def estimate_cost(self, lam: float):
        """Predict the I/O bill of :meth:`extract` without touching disk;
        see :func:`repro.core.analysis.estimate_query_cost`."""
        from repro.core.analysis import estimate_query_cost

        return estimate_query_cost(
            self.dataset.tree,
            lam,
            self.dataset.codec.record_size,
            self.dataset.device.cost_model,
            self.dataset.base_offset,
        )

    def suggest_isovalues(self, selectivities=(0.01, 0.05, 0.25, 0.5)):
        """Representative isovalues at the requested selectivity levels;
        see :func:`repro.core.analysis.suggest_isovalues`."""
        from repro.core.analysis import suggest_isovalues

        return suggest_isovalues(self.dataset.tree, selectivities)
