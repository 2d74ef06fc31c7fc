"""Benchmark-owned pass-through proxies: how layers are timed from outside.

Nothing in ``src/`` records wall time, so the traced pass puts a proxy
where a layer boundary is reachable through a public seam — a dataset's
``device`` attribute, the kernel-backend registry, the cluster object a
``QueryServer`` is built over — and records one span per call.  Every
proxy forwards everything else untouched, so results and modeled
accounting are exactly those of the unproxied run.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager

from repro.mc.backends import get_backend, register_backend


class DeviceProxy:
    """Forwards a block device; ``read``/``peek``/``charge_read`` calls
    become ``io.device`` spans.  ``backing`` keeps the wrapper chain
    walkable (``SimulatedCluster.cache_stats`` follows it)."""

    def __init__(self, backing, recorder) -> None:
        self.backing = backing
        for name in ("read", "peek", "charge_read"):
            fn = getattr(backing, name, None)
            if fn is not None:
                setattr(self, name, recorder.timed("io.device", fn))

    def __getattr__(self, name):
        return getattr(self.backing, name)


def with_device_proxy(dataset, recorder):
    """A view of ``dataset`` whose device reads are recorded."""
    return dataclasses.replace(
        dataset, device=DeviceProxy(dataset.device, recorder)
    )


class ClusterProxy:
    """Forwards a ``SimulatedCluster``; each ``extract`` is one
    ``parallel.extract`` span and its result is kept for counting."""

    def __init__(self, cluster, recorder) -> None:
        self._cluster = cluster
        self._recorder = recorder
        self.results: list = []

    def __getattr__(self, name):
        return getattr(self._cluster, name)

    def extract(self, lam, request=None):
        with self._recorder.span("parallel.extract"):
            result = self._cluster.extract(lam, request)
        self.results.append(result)
        return result


@contextmanager
def proxied_devices(cluster, recorder):
    """Record every node-disk read of ``cluster`` while the block runs."""
    originals = [ds.device for ds in cluster.datasets]
    for ds in cluster.datasets:
        ds.device = DeviceProxy(ds.device, recorder)
    try:
        yield
    finally:
        for ds, dev in zip(cluster.datasets, originals):
            ds.device = dev


@contextmanager
def proxied_backend(name: str, recorder, span: str = "mc.batch"):
    """Re-register kernel backend ``name`` with a recorded ``batch`` for
    the duration of the block, then restore the original entry."""
    original = get_backend(name)
    register_backend(
        dataclasses.replace(original, batch=recorder.timed(span, original.batch))
    )
    try:
        yield
    finally:
        register_backend(original)

