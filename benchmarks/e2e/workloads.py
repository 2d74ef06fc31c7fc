"""The five workloads: what is set up, what one op is, what is observed.

A workload owns a fixed, seed-derived op list (a *pass*).  The runner
(``run.py``) calls ``setup`` (timed as ``setup_s``, warm-up pass
included), then times ``run_op`` on whole passes; ``observe`` runs after
each op, outside the timed region, and reduces the result to the modeled
clock, the I/O count and the oracle facts.  ``trace_op`` is the traced
twin of one op: the real call in an ``op`` span, then the same work
staged through public functions (or, for serving, the real call over
pass-through proxies), returning raw counts for the per-layer metrics.

Seeds shape requests, not volumes: isovalues are *stratified* over the
range (one jittered draw per equal slice, then shuffled), so every seed
covers the same span-space regions with different values in a different
order — modeled metrics move by a percent or so between seeds instead
of with the luck of the draw.
"""

from __future__ import annotations

import dataclasses
import shutil
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import checks
from inputs import load_volume
from probes import (
    ClusterProxy,
    proxied_backend,
    proxied_devices,
    with_device_proxy,
)
from repro.core.builder import build_indexed_dataset, build_striped_datasets
from repro.core.compact_tree import CompactIntervalTree
from repro.core.intervals import IntervalSet
from repro.core.persistence import (
    BRICKS_FILE,
    INDEX_FILE,
    META_FILE,
    build_persistent_dataset,
    load_dataset,
)
from repro.core.query import QueryOptions, execute_plan, execute_query
from repro.grid.metacell import partition_metacells
from repro.io.cache import CacheOptions
from repro.mc.backends import get_backend
from repro.mc.geometry import TriangleMesh
from repro.mc.marching_cubes import DEFAULT_BATCH_CHUNK, count_active_cells
from repro.parallel.cluster import ExtractRequest, SimulatedCluster
from repro.parallel.perfmodel import PAPER_CLUSTER
from repro.pipeline import IsosurfacePipeline
from repro.render.camera import Camera
from repro.render.compositor import direct_send
from repro.render.rasterizer import Framebuffer, render_mesh
from repro.render.tiled_display import TileLayout
from repro.serve import (
    BrownoutConfig,
    QueryServer,
    ServeConfig,
    TenantSpec,
    TrafficConfig,
    TrafficTrace,
    generate_trace,
    zipf_weights,
)

METACELL = (9, 9, 9)
NO_VERIFY = QueryOptions(verify_checksums=False)


@dataclass
class Observation:
    """What one op contributed, read off its result after the clock stopped."""

    #: Modeled milliseconds of each unit of work in the op (one entry,
    #: except for a served segment: one per request).
    modeled_ms: "list[float]"
    #: Device blocks read + written, as the cost model charged them.
    io_blocks: int
    facts: dict
    #: Units whose own invariants failed (a request not ``ok``, a frame
    #: with coverage < 1); digest mismatches are judged by the runner.
    bad: int = 0
    #: Work units in the op: requests of a served segment, else 1.
    units: int = 1


def stratified(rng, lo: float, hi: float, n: int) -> "list[float]":
    """``n`` isovalues, one drawn uniformly from each of ``n`` equal
    slices of ``[lo, hi]``, in shuffled order."""
    u = (np.arange(n) + rng.random(n)) / n
    return [float(x) for x in rng.permutation(lo + (hi - lo) * u)]


def _dir_bytes(directory) -> int:
    return sum(
        (Path(directory) / f).stat().st_size
        for f in (BRICKS_FILE, INDEX_FILE, META_FILE)
    )


def _add_io(c: dict, io) -> None:
    for k in ("read_ops", "seeks", "blocks_read", "bytes_read",
              "blocks_written", "bytes_written"):
        c[k] = c.get(k, 0) + getattr(io, k)


def _bump(c: dict, **amounts) -> None:
    for k, v in amounts.items():
        c[k] = c.get(k, 0) + v


def _replay_query(rec, ds, lam, c):
    """plan -> execute, staged; the device proxy nests ``io.device``."""
    with rec.span("core.compact_tree.plan"):
        plan = ds.tree.plan_query(lam)
    proxied = with_device_proxy(ds, rec)
    with rec.span("core.query.execute"):
        qr = execute_plan(proxied, plan)
    _bump(c, queries=1, runs=len(plan.runs), records_read=qr.n_records_read,
          records_active=qr.n_active,
          active_bytes=qr.n_active * ds.codec.record_size)
    _add_io(c, qr.io_stats)
    return plan, qr


def _replay_triangulate(rec, ds, lam, qr, c):
    """decode -> kernel, staged exactly as the extraction layers call them."""
    if not qr.n_active:
        return None, TriangleMesh()
    with rec.span("io.decode"):
        values = ds.codec.values_grid(qr.records)
    origins = ds.meta.vertex_origins(qr.records.ids)
    with rec.span("mc.batch"):
        mesh = get_backend("mc-batch").batch(
            values, lam, origins, spacing=ds.meta.spacing,
            world_origin=ds.meta.origin, chunk=DEFAULT_BATCH_CHUNK,
            with_normals=False,
        )
    cells_per_metacell = int(np.prod([m - 1 for m in values.shape[1:]]))
    _bump(c, cells=len(values) * cells_per_metacell,
          triangles=mesh.n_triangles)
    return (values, origins), mesh


def _extras_verify(rec, ds, plan):
    """Same plan, CRC verification on and off: the difference is what
    verification costs (it cannot be timed from outside any other way)."""
    with rec.span("extra.execute_verify"):
        execute_plan(ds, plan)
    with rec.span("extra.execute_noverify"):
        execute_plan(ds, plan, NO_VERIFY)


def _extras_kernel(rec, ds, lam, batch, c):
    """The other registered backend on the same inputs, and how many of
    the examined cells the isosurface actually crosses."""
    if batch is None:
        return
    values, origins = batch
    with rec.span("extra.mc.surface_nets"):
        get_backend("surface-nets").batch(
            values, lam, origins, spacing=ds.meta.spacing,
            world_origin=ds.meta.origin, chunk=DEFAULT_BATCH_CHUNK,
            with_normals=False,
        )
    _bump(c, active_cells=count_active_cells(values, lam))


def _dataset_statics(ds) -> dict:
    r = ds.report
    return {
        "grid.constant_share": r.n_metacells_culled / r.n_metacells_total,
        "core.compact_tree.index_bytes": float(r.index_bytes),
        "core.compact_tree.n_bricks": float(r.n_bricks),
    }


class Workload:
    """Interface the runner drives; ``st`` is whatever ``setup`` returned
    (it must carry the pass as ``st.ops``)."""

    name = ""
    inputs: "tuple[str, ...]" = ()
    #: Percentile reported as ``op_ms_tail``.  Declared per workload (p90
    #: where a run yields hundreds of samples, p75 where it yields tens)
    #: rather than derived from the sample count, so a slower machine
    #: cannot change what the metric means.
    tail_percentile = 90

    def setup(self, paths, workdir: Path, seed: int): ...
    def run_op(self, st, op): ...
    def observe(self, st, op, result) -> Observation: ...
    def expected(self, st) -> "list[dict]": ...
    def stored_ratio(self, st) -> float: ...
    def trace_op(self, st, op, rec) -> dict: ...
    def statics(self, st) -> dict: ...
    def teardown(self, st) -> None: ...


class OnDiskWorkload(Workload):
    """Ops against one dataset built into the work directory, closed, and
    reopened with ``load_dataset`` the way a later process would: every
    query of the run goes through the file-backed device."""

    inputs = ("rm250_193",)

    def open_dataset(self, paths, workdir):
        volume = load_volume(self.inputs[0], paths)
        build_persistent_dataset(volume, workdir).device.close()
        return SimpleNamespace(volume=volume, ds=load_dataset(workdir),
                               dir=workdir)

    def stored_ratio(self, st):
        return _dir_bytes(st.dir) / st.volume.nbytes

    def statics(self, st):
        return _dataset_statics(st.ds)

    def teardown(self, st):
        st.ds.device.close()
        shutil.rmtree(st.dir, ignore_errors=True)


class ClusterWorkload(Workload):
    """Ops against an in-memory ``SimulatedCluster`` kept as ``st.cluster``."""

    p = 4
    tail_percentile = 75

    def isovalue_range(self, cluster) -> "tuple[float, float]":
        ends = np.concatenate([d.tree.endpoints for d in cluster.datasets])
        return float(ends.min()), float(ends.max())

    def stored_ratio(self, st):
        return sum(d.device.size for d in st.cluster.datasets) / st.volume.nbytes

    def statics(self, st):
        return _dataset_statics(st.cluster.datasets[0])


class RetrieveSweep(OnDiskWorkload):
    name = "retrieve_sweep"
    n_ops = 400

    def setup(self, paths, workdir, seed):
        st = self.open_dataset(paths, workdir)
        ends = st.ds.tree.endpoints
        st.ops = stratified(np.random.default_rng(seed), float(ends[0]),
                            float(ends[-1]), self.n_ops)
        for lam in st.ops:
            self.run_op(st, lam)
        return st

    def run_op(self, st, lam):
        return execute_query(st.ds, lam)

    def observe(self, st, lam, qr):
        io = qr.io_stats
        return Observation(
            modeled_ms=[PAPER_CLUSTER.io_time(io) * 1e3],
            io_blocks=io.blocks_read + io.blocks_written,
            facts=checks.ids_fact(qr.records.ids),
        )

    def expected(self, st):
        return checks.retrieve_expected(st.volume, st.ds, st.ops)

    def trace_op(self, st, lam, rec):
        c: dict = {}
        with rec.span("op"):
            self.run_op(st, lam)
        with rec.span("replay"):
            plan, _ = _replay_query(rec, st.ds, lam, c)
        with rec.span("extras"):
            _extras_verify(rec, st.ds, plan)
        return c


class ExploreMesh(OnDiskWorkload):
    name = "explore_mesh"
    n_ops = 100
    n_warm = 25

    def setup(self, paths, workdir, seed):
        st = self.open_dataset(paths, workdir)
        st.pipe = IsosurfacePipeline(st.ds)
        st.ops = stratified(np.random.default_rng(seed),
                            *st.pipe.isovalue_range(), self.n_ops)
        for lam in st.ops[: self.n_warm]:
            self.run_op(st, lam)
        return st

    def run_op(self, st, lam):
        return st.pipe.extract(lam)

    def observe(self, st, lam, res):
        m = res.metrics
        return Observation(
            modeled_ms=[m.total_time * 1e3],
            io_blocks=m.io_stats.blocks_read + m.io_stats.blocks_written,
            facts=checks.mesh_fact(res.mesh),
        )

    def expected(self, st):
        return checks.mesh_expected(st.volume, st.ops)

    def trace_op(self, st, lam, rec):
        c: dict = {}
        with rec.span("op"):
            self.run_op(st, lam)
        with rec.span("replay"):
            plan, qr = _replay_query(rec, st.ds, lam, c)
            batch, _ = _replay_triangulate(rec, st.ds, lam, qr, c)
        with rec.span("extras"):
            _extras_verify(rec, st.ds, plan)
            _extras_kernel(rec, st.ds, lam, batch, c)
        return c


class ClusterFrame(ClusterWorkload):
    name = "cluster_frame"
    inputs = ("rm250_25",)
    n_ops = 10
    n_warm = 4
    image = (256, 256)
    #: Isovalues stay inside the mixing layer (the middle 60 % of the
    #: scalar range), where every frame has the full interface in view:
    #: frames near the range ends have next to no geometry and would
    #: make the pass bimodal.
    band = (0.2, 0.8)

    def setup(self, paths, workdir, seed):
        volume = load_volume(self.inputs[0], paths)
        cluster = SimulatedCluster(volume, self.p, metacell_shape=METACELL,
                                   image_size=self.image)
        lo, hi = self.isovalue_range(cluster)
        ops = stratified(np.random.default_rng(seed),
                         lo + self.band[0] * (hi - lo),
                         lo + self.band[1] * (hi - lo), self.n_ops)
        layout = TileLayout(2, 2, *self.image)
        st = SimpleNamespace(
            volume=volume, cluster=cluster, ops=ops, layout=layout,
            request=ExtractRequest(render=True, tile_layout=layout),
        )
        for lam in ops[: self.n_warm]:
            self.run_op(st, lam)
        return st

    def run_op(self, st, lam):
        return st.cluster.extract(lam, st.request)

    def observe(self, st, lam, res):
        return Observation(
            modeled_ms=[res.total_time * 1e3],
            io_blocks=sum(n.io_stats.blocks_read + n.io_stats.blocks_written
                          for n in res.nodes),
            facts=checks.frame_fact(res),
            bad=0 if checks.frame_ok(res) else 1,
        )

    def expected(self, st):
        return checks.frame_expected(st.volume, METACELL, st.ops)

    def trace_op(self, st, lam, rec):
        c: dict = {}
        with rec.span("op"):
            res = self.run_op(st, lam)
        meshes, batches = [], []
        with rec.span("replay"):
            for ds in st.cluster.datasets:
                _, qr = _replay_query(rec, ds, lam, c)
                batch, mesh = _replay_triangulate(rec, ds, lam, qr, c)
                meshes.append(mesh)
                batches.append((ds, batch))
            # Auto-framing is coordinator work: it stays unattributed
            # and lands in parallel.extract_overhead_ms.
            camera = Camera.fit_mesh(
                TriangleMesh.concat([m for m in meshes if m.n_triangles])
            )
            fbs = []
            for mesh in meshes:
                fb = Framebuffer(*self.image)
                with rec.span("render.rasterize"):
                    _bump(c, rasterized=render_mesh(fb, mesh, camera))
                fbs.append(fb)
            with rec.span("render.composite"):
                image, stats = direct_send(fbs, st.layout)
        with rec.span("extras"):
            # The render-free extraction is small enough for cluster
            # orchestration to show against its staged stages; inside a
            # rendered frame it drowns in the rasterizer's run-to-run
            # noise.
            with rec.span("extra.extract_mesh_only"):
                st.cluster.extract(lam)
            for ds, batch in batches:
                _extras_kernel(rec, ds, lam, batch, c)
        _bump(
            c, frames=1, composite_bytes=stats.total_bytes,
            image_coverage=image.coverage(),
            active_balance=res.metacell_balance().max_over_mean,
            triangle_balance=res.triangle_balance().max_over_mean,
        )
        return c


class PreprocessBuild(Workload):
    name = "preprocess_build"
    inputs = ("rm250_193", "rm130_193")
    tail_percentile = 75
    n_ops = 10

    def setup(self, paths, workdir, seed):
        volumes = [load_volume(n, paths) for n in self.inputs]
        if seed % 2:
            volumes.reverse()
        workdir.mkdir(parents=True, exist_ok=True)
        st = SimpleNamespace(
            volumes=volumes, dir=workdir, counter=0, raw=None,
            ops=[i % len(volumes) for i in range(self.n_ops)],
        )
        st.capture = lambda raw: setattr(st, "raw", raw) or raw
        for op in st.ops:
            self._discard(self.run_op(st, op))
        return st

    def run_op(self, st, which):
        st.counter += 1
        # wrap_device is the one public seam onto the staging device:
        # the identity wrapper keeps a reference so its write meter can
        # be read after the build closed it.
        return build_persistent_dataset(
            st.volumes[which], st.dir / f"b{st.counter}",
            wrap_device=st.capture,
        )

    @staticmethod
    def _discard(ds):
        ds.device.close()
        shutil.rmtree(ds.source_dir)

    def observe(self, st, which, ds):
        io = st.raw.stats
        obs = Observation(
            # One sequential stream: a single seek plus the blocks written.
            modeled_ms=[PAPER_CLUSTER.disk.time_for(io.blocks_written, 1) * 1e3],
            io_blocks=io.blocks_read + io.blocks_written,
            facts={
                "which": st.volumes[which].name,
                "bricks_crc": checks.file_crc(Path(ds.source_dir) / BRICKS_FILE),
                "stored_bytes": _dir_bytes(ds.source_dir),
            },
        )
        self._discard(ds)
        return obs

    def expected(self, st):
        """One reference build per time step must pass the deep fsck;
        every timed build must then reproduce its ``bricks.bin``."""
        per_step = []
        for which in range(len(st.volumes)):
            ds = self.run_op(st, which)
            checks.build_verified(ds)
            per_step.append({
                "bricks_crc": checks.file_crc(Path(ds.source_dir) / BRICKS_FILE),
                "stored_bytes": _dir_bytes(ds.source_dir),
            })
            self._discard(ds)
        st.stored = [f["stored_bytes"] for f in per_step]
        return [per_step[which] for which in st.ops]

    def stored_ratio(self, st):
        return sum(st.stored) / sum(v.nbytes for v in st.volumes)

    def statics(self, st):
        return st.statics

    def teardown(self, st):
        shutil.rmtree(st.dir, ignore_errors=True)

    def trace_op(self, st, which, rec):
        c: dict = {}
        volume = st.volumes[which]
        with rec.span("op"):
            ds = self.run_op(st, which)
        _add_io(c, st.raw.stats)
        with rec.span("replay"):
            # build_indexed_dataset is the in-memory build the persistent
            # one shares every step with except the commit protocol.
            with rec.span("core.builder.build"):
                mem = build_indexed_dataset(volume, METACELL)
        with rec.span("extras"):
            with rec.span("grid.partition"):
                part = partition_metacells(volume, METACELL)
            with rec.span("core.compact_tree.build"):
                CompactIntervalTree.build(IntervalSet.from_partition(part))
            with rec.span("extra.core.builder.stripe"):
                build_striped_datasets(volume, 4, METACELL)
            with rec.span("extra.core.persistence.load"):
                load_dataset(ds.source_dir).device.close()
        if volume.name == self.inputs[0]:
            # Index facts are reported for the first input, whichever
            # order the seed put the two time steps in.
            st.statics = _dataset_statics(mem)
        self._discard(ds)
        return c


class ServeZipf(ClusterWorkload):
    name = "serve_zipf"
    inputs = ("rm250_49",)
    n_lams = 128
    zipf_s = 1.1
    n_ops = 40          # segments per pass
    n_warm = 10         # segments served before timing, to fill the cache
    segment_units = 30  # segment length in service units
    load = 1.2          # arrivals per service unit: 0.6 of 2 executors
    cache = CacheOptions(result_cache_bytes=1 << 20,
                         block_cache_bytes=16 << 10, lambda_bucket=1.0)

    def _traces(self, st, seed, first, count, rng):
        """``count`` seeded Poisson segments whose isovalues are then
        re-dealt: the segment set as a whole carries the Zipf histogram
        exactly (inverse-CDF at evenly spaced quantiles), the seed
        decides which request gets which isovalue."""
        traces = [
            generate_trace(
                TrafficConfig(
                    duration=self.segment_units * st.unit,
                    base_rate=self.load / st.unit, isovalues=st.lams,
                    seed=seed * 1000 + first + k, zipf_s=self.zipf_s,
                ),
                st.config.tenants,
            )
            for k in range(count)
        ]
        total = sum(len(t.requests) for t in traces)
        w = np.asarray(zipf_weights(self.n_lams, self.zipf_s))
        ranks = np.searchsorted(np.cumsum(w) / w.sum(),
                                (np.arange(total) + 0.5) / total)
        deal = iter(rng.permutation(ranks))
        return [
            TrafficTrace(
                requests=tuple(
                    dataclasses.replace(q, lam=st.lams[next(deal)])
                    for q in t.requests
                ),
                config=t.config,
            )
            for t in traces
        ]

    def setup(self, paths, workdir, seed):
        volume = load_volume(self.inputs[0], paths)
        cluster = SimulatedCluster(volume, self.p, metacell_shape=METACELL,
                                   replication=2, cache=self.cache)
        lo, hi = self.isovalue_range(cluster)
        grid = [lo + (hi - lo) * (i + 1) / (self.n_lams + 1)
                for i in range(self.n_lams)]
        # Popularity rank -> isovalue is a fixed shuffle of the grid, the
        # same for every seed: which isovalues are hot decides how much
        # an average request costs.
        lams = tuple(grid[i] for i in
                     np.random.default_rng(0).permutation(self.n_lams))
        unit = max(cluster.estimate_extract_time(lam) for lam in lams)
        rate = self.load / unit
        tenants = (
            TenantSpec("gold-a", tier="gold", arrival_share=0.3, rate=rate,
                       burst=8, deadline_budget=4.0 * unit),
            TenantSpec("silver-b", tier="silver", arrival_share=0.4,
                       rate=rate, burst=8, deadline_budget=6.0 * unit),
            TenantSpec("bulk-c", tier="bulk", arrival_share=0.3, rate=rate,
                       burst=8, deadline_budget=12.0 * unit),
        )
        config = ServeConfig(
            tenants=tenants, n_executors=2, max_queue_depth=32,
            quantum=unit / 5.0,
            brownout=BrownoutConfig(eval_interval=2.0 * unit),
            cache=self.cache,
        )
        st = SimpleNamespace(volume=volume, cluster=cluster, lams=lams,
                             unit=unit, config=config)
        rng = np.random.default_rng(seed)
        warm = self._traces(st, seed, 0, self.n_warm, rng)
        st.ops = self._traces(st, seed, self.n_warm, self.n_ops, rng)
        for trace in warm:
            self.run_op(st, trace)
        return st

    def run_op(self, st, trace, cluster=None):
        before = self._blocks(st)
        report = QueryServer(cluster or st.cluster, st.config).serve(trace)
        return report, self._blocks(st) - before

    @staticmethod
    def _blocks(st) -> int:
        """Blocks the cost model has charged so far, over all node disks
        (logical reads, before the block cache: what modeled time uses)."""
        return sum(d.device.stats.blocks_read + d.device.stats.blocks_written
                   for d in st.cluster.datasets)

    def observe(self, st, trace, served):
        report, io_blocks = served
        return Observation(
            modeled_ms=[r.latency * 1e3 for r in report.completed],
            io_blocks=io_blocks,
            facts=checks.serve_fact(report),
            bad=checks.serve_bad_requests(report, trace, st.reference),
            units=len(trace.requests),
        )

    def expected(self, st):
        st.reference = checks.serve_reference(st.volume, self.p, METACELL,
                                              st.lams)
        return [{"n_requests": len(t.requests)} for t in st.ops]

    @staticmethod
    def _cache_counts(st):
        rc, bc = st.cluster.result_cache.stats, st.cluster.cache_stats()
        return np.asarray([rc.hits, rc.misses, rc.mesh_hits, rc.evictions,
                           bc.hits, bc.misses, bc.evictions])

    def trace_op(self, st, trace, rec):
        """The real call, over proxies on every seam it crosses."""
        before = self._cache_counts(st)
        proxy = ClusterProxy(st.cluster, rec)
        with proxied_devices(st.cluster, rec), proxied_backend("mc-batch", rec):
            with rec.span("op"):
                report, _ = self.run_op(st, trace, proxy)
        c = dict(zip(
            ("rcache_hits", "rcache_misses", "rcache_mesh_hits",
             "rcache_evictions", "cache_hits", "cache_misses",
             "cache_evictions"),
            self._cache_counts(st) - before,
        ))
        c.update(
            units=len(trace.requests), extract_calls=len(proxy.results),
            coalesced=sum(r.coalesced for r in report.records),
            shed=len(report.by_state("shed")),
            latency_p50_ms=report.latency_quantile(0.5) * 1e3,
        )
        for res in proxy.results:
            for n in res.nodes:
                _add_io(c, n.io_stats)
                _bump(c, cells=n.n_cells_examined,
                      records_active=n.n_active_metacells)
            _bump(c, triangles=res.n_triangles,
                  active_balance=res.metacell_balance().max_over_mean,
                  triangle_balance=res.triangle_balance().max_over_mean)
        return c


WORKLOADS = {w.name: w for w in (
    RetrieveSweep(), ExploreMesh(), ClusterFrame(), PreprocessBuild(),
    ServeZipf(),
)}
