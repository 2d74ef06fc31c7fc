"""repro — out-of-core parallel isosurface extraction and rendering.

A faithful, self-contained reproduction of:

    Qin Wang, Joseph JaJa, Amitabh Varshney.
    "An Efficient and Scalable Parallel Algorithm for Out-of-Core
    Isosurface Extraction and Rendering."  IPPS/IPDPS 2006.

The package implements the paper's compact interval tree index, the
span-space brick layout, the I/O-optimal isosurface query, round-robin
brick striping across cluster nodes, Marching Cubes triangulation, and a
software sort-last rendering pipeline — plus simulated substrates (block
devices, cluster nodes) standing in for the paper's hardware.  See
DESIGN.md for the system inventory and EXPERIMENTS.md for the
reproduction of every table and figure.

Quickstart
----------
>>> from repro import sphere_field, IsosurfacePipeline
>>> pipe = IsosurfacePipeline.from_volume(sphere_field((24, 24, 24)))
>>> surface = pipe.extract(0.5)
>>> surface.mesh.n_triangles > 0
True
"""

from repro._version import __version__
from repro.core import (
    CompactIntervalTree,
    ExternalCompactIndex,
    IndexedDataset,
    IntervalSet,
    TimeVaryingIndex,
    build_indexed_dataset,
    build_persistent_dataset,
    build_striped_datasets,
    build_unstructured_dataset,
    QueryOptions,
    execute_query,
    extract_unstructured,
    load_dataset,
    build_persistent_striped,
)
from repro.grid import (
    RMInstabilityModel,
    Volume,
    gyroid_field,
    partition_metacells,
    rm_time_series,
    rm_timestep,
    sphere_field,
    torus_field,
)
from repro.io import (
    BrickCorruptionError,
    DeviceFailedError,
    FaultInjectingDevice,
    FaultPlan,
    FileBackedDevice,
    IOCostModel,
    IOStats,
    RetryPolicy,
    SimulatedBlockDevice,
    StorageFault,
)
from repro.mc import MarchingCubes, TriangleMesh, extract_isosurface
from repro.pipeline import ExtractionResult, IsosurfacePipeline
from repro.parallel import ClusterResult, ExtractRequest, SimulatedCluster
from repro.obs import MetricsRegistry, Tracer
from repro.render import Camera, Framebuffer, composite, render_mesh

__all__ = [
    "__version__",
    # core
    "CompactIntervalTree",
    "IndexedDataset",
    "IntervalSet",
    "TimeVaryingIndex",
    "build_indexed_dataset",
    "build_striped_datasets",
    "build_persistent_dataset",
    "build_unstructured_dataset",
    "extract_unstructured",
    "build_persistent_striped",
    "load_dataset",
    "ExternalCompactIndex",
    "execute_query",
    "QueryOptions",
    # grid
    "Volume",
    "RMInstabilityModel",
    "rm_timestep",
    "rm_time_series",
    "sphere_field",
    "torus_field",
    "gyroid_field",
    "partition_metacells",
    # io
    "SimulatedBlockDevice",
    "FileBackedDevice",
    "IOCostModel",
    "IOStats",
    "FaultPlan",
    "FaultInjectingDevice",
    "RetryPolicy",
    "StorageFault",
    "DeviceFailedError",
    "BrickCorruptionError",
    # mc
    "MarchingCubes",
    "TriangleMesh",
    "extract_isosurface",
    # pipeline
    "IsosurfacePipeline",
    "ExtractionResult",
    # parallel
    "SimulatedCluster",
    "ClusterResult",
    "ExtractRequest",
    # obs
    "Tracer",
    "MetricsRegistry",
    # render
    "Camera",
    "Framebuffer",
    "render_mesh",
    "composite",
]
