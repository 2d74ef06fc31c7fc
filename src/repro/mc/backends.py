"""Pluggable extraction-kernel registry.

Every extraction path in the repo — the façade, cluster nodes, worker
processes, the serving front-end — resolves its triangulation kernel
through this registry, keyed by a short backend name carried on
:class:`repro.core.query.QueryOptions` /
:class:`repro.parallel.cluster.ExtractRequest` (and ``--backend`` on the
CLI).  The paper's crack-free per-metacell triangulation property is
what makes kernels swappable per request: each backend consumes the same
``(values, iso, origins)`` batch contract and produces a self-consistent
surface for the same metacell set.

Built-in backends
-----------------
``mc-batch``
    The vectorized Marching Cubes batch kernel
    (:func:`repro.mc.marching_cubes.marching_cubes_batch`).  Exact: its
    output is bit-identical to serial per-cell MC, so it is the default
    and the reference everything else is tested against.
``surface-nets``
    The sign-driven dual kernel
    (:func:`repro.mc.surface_nets.surface_nets_batch`) — same topology,
    smoothed/decimated geometry, ~40% fewer vertices.

The registry is append-only process state; tests register throwaway
backends and remove them with :func:`unregister_backend`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mc.geometry import TriangleMesh
from repro.mc.marching_cubes import DEFAULT_BATCH_CHUNK, marching_cubes_batch
from repro.mc.surface_nets import surface_nets_batch

#: The backend used when a request does not name one.
DEFAULT_BACKEND = "mc-batch"


@dataclass(frozen=True)
class KernelBackend:
    """One registered extraction kernel.

    Parameters
    ----------
    name:
        Registry key, as carried by ``QueryOptions.backend`` /
        ``ExtractRequest.backend`` / ``--backend``.
    batch:
        The full batch entry point, signature-compatible with
        :func:`repro.mc.marching_cubes.marching_cubes_batch`
        (``values, iso, origins, spacing=, world_origin=, chunk=,
        with_normals=``), returning a world-placed
        :class:`~repro.mc.geometry.TriangleMesh` (or ``(mesh, normals)``).
    exact:
        True when the kernel reproduces serial per-cell Marching Cubes
        bit-for-bit; such backends may share cached meshes with each
        other, inexact ones get their own cache key space.
    """

    name: str
    batch: "object"
    exact: bool


_REGISTRY: "dict[str, KernelBackend]" = {}


def register_backend(backend: KernelBackend) -> KernelBackend:
    """Register (or replace) a kernel backend under ``backend.name``."""
    if not backend.name or not isinstance(backend.name, str):
        raise ValueError(f"backend name must be a non-empty string, got {backend.name!r}")
    _REGISTRY[backend.name] = backend
    return backend


def unregister_backend(name: str) -> None:
    """Remove a backend registered by a test; built-ins stay."""
    _REGISTRY.pop(name, None)


def available_backends() -> "tuple[str, ...]":
    """Registered backend names, in registration order."""
    return tuple(_REGISTRY)


def get_backend(name: "str | None" = None) -> KernelBackend:
    """Resolve a backend by name (``None`` means :data:`DEFAULT_BACKEND`)."""
    key = DEFAULT_BACKEND if name is None else name
    try:
        return _REGISTRY[key]
    except KeyError:
        raise ValueError(
            f"unknown extraction backend {key!r}; "
            f"known backends: {', '.join(sorted(_REGISTRY))}"
        ) from None


def validate_backend(name: str) -> str:
    """Validate a backend name for an options object; returns it."""
    get_backend(name)
    return name


def triangulate_records(
    dataset,
    records,
    lam: float,
    *,
    backend: str = DEFAULT_BACKEND,
    batch_chunk: "int | None" = None,
    with_normals: bool = False,
) -> "tuple[TriangleMesh, np.ndarray | None]":
    """Decoded metacell records -> world-placed mesh (+ normals).

    The one records-to-triangles site outside the kernels themselves
    (façade, cluster nodes, worker processes, CLI, time-varying index,
    ROI/multi-query all end here), so the kernel is always resolved
    through :func:`get_backend` at call time and an empty record set
    always yields an empty mesh.

    ``dataset`` supplies the payload shape (``codec``) and world
    placement (``meta``).  Returns ``(mesh, normals)``, ``normals``
    None unless ``with_normals``.
    """
    if not len(records):
        return TriangleMesh(), (np.empty((0, 3)) if with_normals else None)
    meta = dataset.meta
    values = dataset.codec.values_grid(records)
    origins = meta.vertex_origins(records.ids)
    out = get_backend(backend).batch(
        values, lam, origins,
        spacing=meta.spacing, world_origin=meta.origin,
        chunk=DEFAULT_BATCH_CHUNK if batch_chunk is None else batch_chunk,
        with_normals=with_normals,
    )
    return out if with_normals else (out, None)


register_backend(
    KernelBackend(name="mc-batch", batch=marching_cubes_batch, exact=True)
)
register_backend(
    KernelBackend(name="surface-nets", batch=surface_nets_batch, exact=False)
)
