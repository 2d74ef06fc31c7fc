"""Simulated visualization cluster (paper Sections 5.1, 6, 7).

:class:`SimulatedCluster` reproduces the paper's execution structure
exactly:

1. preprocessing stripes the bricks across ``p`` local (simulated)
   disks;
2. an isosurface query runs *independently* on every node against its
   local index and disk — zero communication;
3. each node triangulates its active metacells and (optionally) renders
   them into a local framebuffer;
4. the only communication is the final sort-last composite of the p
   framebuffers, which is byte-accounted through the interconnect model.

Per-node stage times are modeled from counted work via
:class:`~repro.parallel.perfmodel.PerformanceModel` (see that module for
the honesty contract); actual Python wall time is recorded alongside.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.builder import IndexedDataset, build_indexed_dataset, build_striped_datasets
from repro.chaos.netfaults import COORDINATOR
from repro.core.deadline import Deadline, DeadlineReport
from repro.core.query import QueryOptions, _checked
from repro.grid.volume import Volume
from repro.io.cache import CacheOptions
from repro.io.faults import (
    FaultInjectingDevice,
    FaultPlan,
    HedgedDevice,
    HedgePolicy,
    RetryPolicy,
    StorageFault,
)
from repro.mc.geometry import TriangleMesh
from repro.obs.tracer import coerce_tracer
from repro.parallel.health import HealthMonitor, HealthPolicy, Observation
from repro.parallel.metrics import LoadBalance, NodeMetrics
from repro.parallel.node import extract_node
from repro.parallel.perfmodel import PAPER_CLUSTER, PerformanceModel
from repro.parallel.scheduler import plan_speculation
from repro.render.camera import Camera
from repro.render.compositor import PIXEL_PAYLOAD_BYTES, direct_send
from repro.render.rasterizer import Framebuffer, render_mesh, render_mesh_smooth
from repro.render.tiled_display import TileLayout


@dataclass(frozen=True)
class OwnershipChange:
    """One recorded stripe reassignment (the ownership audit log row)."""

    epoch: int
    stripe: int
    old_owner: int
    new_owner: int
    reason: str = ""


class OwnershipMap:
    """Which node owns (serves the primary copy of) each brick stripe.

    The striping itself — which records land in which stripe — is fixed
    at preprocessing time exactly as in the paper; what this map makes
    dynamic is *who serves* each stripe.  The static cluster is the
    identity assignment (stripe ``s`` owned by node ``s``); the elastic
    cluster (:mod:`repro.elastic`) reassigns stripes on join / drain /
    failover.

    Every reassignment bumps :attr:`epoch` and appends an
    :class:`OwnershipChange` to :attr:`log`.  Queries are **epoch
    fenced**: :meth:`SimulatedCluster.extract` materializes its routing
    view once at entry (see ``_dataset_views``), so an in-flight query
    completes against one consistent ``(epoch, owners)`` snapshot even
    when a rebalance lands between queries, and the serving layer keys
    its cost estimates by ``(lam, epoch)`` so feasibility tracks live
    capacity.
    """

    def __init__(self, owners) -> None:
        self._owners = [int(o) for o in owners]
        self.epoch = 0
        self.log: "list[OwnershipChange]" = []
        #: Callbacks ``(stripe, new_owner, epoch, reason)`` fired after
        #: every epoch bump — how the result cache learns to fence out
        #: entries from the previous assignment.
        self.listeners: "list" = []

    @classmethod
    def identity(cls, n_stripes: int) -> "OwnershipMap":
        return cls(range(n_stripes))

    @property
    def n_stripes(self) -> int:
        return len(self._owners)

    def owner(self, stripe: int) -> int:
        return self._owners[stripe]

    def owners(self) -> "tuple[int, ...]":
        return tuple(self._owners)

    def stripes_of(self, node: int) -> "list[int]":
        return [s for s, o in enumerate(self._owners) if o == node]

    def counts(self) -> "dict[int, int]":
        """node -> number of stripes it currently owns."""
        out: "dict[int, int]" = {}
        for o in self._owners:
            out[o] = out.get(o, 0) + 1
        return out

    def snapshot(self) -> "tuple[int, tuple[int, ...]]":
        """The epoch fence: ``(epoch, owners)`` captured atomically."""
        return self.epoch, tuple(self._owners)

    def assign(self, stripe: int, new_owner: int, reason: str = "") -> int:
        """Reassign one stripe; returns the (possibly bumped) epoch."""
        old = self._owners[stripe]
        if old == int(new_owner):
            return self.epoch
        self.epoch += 1
        self._owners[stripe] = int(new_owner)
        self.log.append(OwnershipChange(
            epoch=self.epoch, stripe=stripe, old_owner=old,
            new_owner=int(new_owner), reason=reason,
        ))
        for cb in self.listeners:
            cb(stripe, int(new_owner), self.epoch, reason)
        return self.epoch


@dataclass(frozen=True)
class ExtractRequest:
    """Everything configurable about one cluster extraction, in one place.

    The only way to configure :meth:`SimulatedCluster.extract` /
    :meth:`~SimulatedCluster.sweep`.  Frozen: derive variants with
    :func:`dataclasses.replace`.  See :meth:`SimulatedCluster.extract`
    for the semantics of each field.
    """

    render: bool = False
    camera: "Camera | None" = None
    keep_meshes: bool = False
    tile_layout: "TileLayout | None" = None
    smooth: bool = False
    deadline: "Deadline | float | None" = None
    hedge: "HedgePolicy | bool | None" = None
    speculate: "bool | None" = None
    #: A :class:`~repro.obs.tracer.Tracer` receiving one track per node
    #: plus a ``cluster`` track, all on the modeled clock (None: the
    #: shared no-op tracer — zero overhead).
    tracer: "object | None" = None
    #: A :class:`~repro.obs.metrics.MetricsRegistry` absorbing per-node
    #: ``IOStats``, stage times, recovery reasons, deadline coverage,
    #: and health state (None: nothing is published).
    metrics: "object | None" = None
    #: Tenant this query is attributed to (the serving layer's
    #: multi-tenant accounting): carried through to
    #: :attr:`ClusterResult.tenant` and, with ``metrics`` set, published
    #: under ``tenant.<name>.*``.  None: unattributed (single-caller
    #: usage, the pre-serving behaviour).
    tenant: "str | None" = None
    #: A :class:`~repro.serve.rcache.ResultCache` this extraction may
    #: probe and populate (overrides the cluster's own, if any); the
    #: epoch-fenced view is bound inside :meth:`SimulatedCluster.extract`
    #: at the same fence as the routing snapshot.
    result_cache: "object | None" = None
    #: Whether this extraction may *populate* the result cache (lookups
    #: always work).  The serving layer clears it for bulk-tier work
    #: under brownout shed so the shed class cannot churn the cache.
    cache_populate: bool = True
    #: Extraction-kernel backend every node triangulates with, resolved
    #: through :mod:`repro.mc.backends` (``"mc-batch"``: exact vectorized
    #: MC; ``"surface-nets"``: smoothed dual kernel, ~2x throughput).
    #: Inexact backends get their own result-cache key space.
    backend: str = "mc-batch"
    #: Metacells per vectorized triangulation pass (``None``: the
    #: kernel's :data:`~repro.mc.marching_cubes.DEFAULT_BATCH_CHUNK`).
    batch_chunk: "int | None" = None

    def __post_init__(self) -> None:
        # The kernel fields are QueryOptions' own: one validator.
        QueryOptions(backend=self.backend, batch_chunk=self.batch_chunk)


#: Request used when a caller passes none.
DEFAULT_EXTRACT_REQUEST = ExtractRequest()


def _observation(m: NodeMetrics) -> Observation:
    """What the health monitor learns from one node's primary outcome."""
    return Observation(
        failed=m.failed,
        retries=m.io_stats.retries,
        checksum_failures=m.io_stats.checksum_failures,
        fault_delay=m.io_stats.fault_delay,
        deadline_expired=m.deadline_expired,
    )


@dataclass
class _QueryState:
    """Everything one :meth:`SimulatedCluster.extract` call mutates.

    One object shared by the phase helpers (primary pass, proactive
    routing, recovery, speculation, composite); nothing here outlives
    the call, which is what keeps ``extract`` re-entrant.  The per-slot
    lists are indexed by stripe rank and sized at entry.
    """

    lam: float
    req: ExtractRequest
    tracer: object
    deadline: "Deadline | None"
    hedge_policy: "HedgePolicy | None"
    #: The request's one QueryOptions (node stage budget, tracer, cache
    #: view, kernel); per-host variants come from dataclasses.replace.
    options: QueryOptions
    want_normals: bool
    #: Ownership epoch and routing view this query is fenced to.
    epoch: int
    views: "list[IndexedDataset]"
    per_node: "list[NodeMetrics]"
    meshes: "list[TriangleMesh]"
    normals: list
    #: Active metacells delivered per *layout* (whoever served it).
    delivered: "list[int]"
    failed_ranks: "list[int]" = field(default_factory=list)
    routed_ranks: "list[int]" = field(default_factory=list)

    def put(self, rank: int, metrics: NodeMetrics, mesh=None, normals=None) -> None:
        """Fill stripe ``rank``'s slot.  No mesh means an empty one: the
        node failed, its answer was lost in transit, or its circuit is
        open and a replica host has yet to serve it."""
        if mesh is None:
            mesh = TriangleMesh()
            normals = np.empty((0, 3)) if self.want_normals else None
        self.per_node[rank] = metrics
        self.meshes[rank] = mesh
        self.normals[rank] = normals
        self.delivered[rank] = metrics.n_active_metacells

    def fail(self, rank: int, failure: str, circuit_open: bool = False) -> None:
        """Mark stripe ``rank`` failed at its primary (recovery's input)."""
        self.put(rank, NodeMetrics(
            node_rank=rank, failed=True, failure=failure,
            circuit_open=circuit_open,
        ))
        self.failed_ranks.append(rank)


@dataclass
class ClusterResult:
    """Outcome of one isosurface extraction on the (simulated) cluster.

    ``failed_nodes`` lists every node whose device failed during the
    run, recovered or not.  ``degraded`` is True only when at least one
    failed node had no readable replica, i.e. the result is *partial*:
    triangle counts and the image cover the surviving bricks only.  With
    replication covering every failure the result is complete and
    bit-identical to a healthy run — ``degraded`` stays False.
    """

    lam: float
    p: int
    nodes: "list[NodeMetrics]"
    composite_time: float = 0.0
    composite_bytes: int = 0
    meshes: "list[TriangleMesh] | None" = None
    image: "Framebuffer | None" = None
    degraded: bool = False
    failed_nodes: "list[int]" = field(default_factory=list)
    #: Fraction of the query's active metacells actually delivered
    #: (1.0 unless a deadline cut reads short or a failure went
    #: unrecovered).
    coverage: float = 1.0
    #: Deadline accounting when the query ran under a budget, else None.
    deadline: "DeadlineReport | None" = None
    #: Tenant the query was attributed to (see
    #: :attr:`ExtractRequest.tenant`), or None.
    tenant: "str | None" = None
    #: Ownership epoch the query was fenced to (see :class:`OwnershipMap`);
    #: 0 on a static cluster that never reassigned a stripe.
    epoch: int = 0
    #: Stripe slots grouped by the physical node that served them, for
    #: clusters where several stripe slots share one disk (the elastic
    #: cluster).  None: each slot is its own node (the static cluster).
    node_groups: "list[list[int]] | None" = None
    #: Extraction-kernel backend the nodes triangulated with (see
    #: :attr:`ExtractRequest.backend`).
    backend: str = "mc-batch"
    #: Framebuffer ranks whose composite contribution the network lost
    #: past the retry budget (chaos network fault plan only; their
    #: pixels are missing and ``degraded`` is forced True).
    net_lost_ranks: "list[int]" = field(default_factory=list)

    @property
    def unrecovered_nodes(self) -> "list[int]":
        """Failed nodes whose bricks no surviving replica could serve."""
        return [k for k in self.failed_nodes if self.nodes[k].served_by is None]

    @property
    def skipped_bricks(self) -> "dict[int, list[int]]":
        """rank -> span-space brick ids a deadline left unread."""
        return {
            m.node_rank: list(m.skipped_bricks)
            for m in self.nodes
            if m.skipped_bricks
        }

    @property
    def n_hedged_reads(self) -> int:
        return sum(n.n_hedged_reads for n in self.nodes)

    @property
    def n_hedge_wins(self) -> int:
        return sum(n.n_hedge_wins for n in self.nodes)

    @property
    def n_active_metacells(self) -> int:
        return sum(n.n_active_metacells for n in self.nodes)

    @property
    def n_triangles(self) -> int:
        return sum(n.n_triangles for n in self.nodes)

    @property
    def total_time(self) -> float:
        """Modeled wall time: slowest node plus the composite step.

        With :attr:`node_groups` set, stripe slots sharing one physical
        disk run serially on it, so the makespan is the slowest *group
        sum* — the honest figure for an over-partitioned elastic
        cluster — instead of the slowest individual slot.
        """
        if self.node_groups:
            makespan = max(
                (sum(self.nodes[i].total_time for i in group)
                 for group in self.node_groups if group),
                default=0.0,
            )
        else:
            makespan = max((n.total_time for n in self.nodes), default=0.0)
        return makespan + self.composite_time

    @property
    def triangle_rate(self) -> float:
        """Modeled million-triangles-per-second figure of the run."""
        t = self.total_time
        return self.n_triangles / t if t > 0 else 0.0

    def metacell_balance(self) -> LoadBalance:
        return LoadBalance(np.asarray([n.n_active_metacells for n in self.nodes]))

    def triangle_balance(self) -> LoadBalance:
        return LoadBalance(np.asarray([n.n_triangles for n in self.nodes]))


class SimulatedCluster:
    """A p-node cluster with striped local disks.

    Parameters
    ----------
    volume:
        Input scalar field; preprocessed at construction.
    p:
        Node count.
    metacell_shape:
        Metacell vertex dimensions (the paper's 9x9x9 by default).
    perf:
        Stage-time calibration (defaults to the paper's hardware).
    image_size:
        Framebuffer dimensions used when rendering is requested.
    replication:
        Brick replication factor ``r``: each node's layout is copied to
        the ``r - 1`` following nodes (chained declustering), letting
        :meth:`extract` survive up to ``r - 1`` node failures with a
        bit-identical result.  ``1`` (default) reproduces the paper's
        unreplicated cluster.
    fault_plans:
        Optional ``rank -> FaultPlan`` wiring fault injection onto
        individual node disks at construction.
    retry_policy:
        Retry/backoff policy handed to every node query.
    health_policy:
        Thresholds for the per-node health state machine (see
        :mod:`repro.parallel.health`); the monitor persists across
        queries, so repeatedly failing nodes get routed around
        proactively instead of rediscovered every extraction.
    cache:
        A :class:`~repro.io.cache.CacheOptions` bundling every cache
        knob.  ``block_cache_bytes`` wraps each node disk in a
        :class:`~repro.io.cache.CachedDevice` LRU (cross-query block
        reuse shows up in :meth:`cache_stats` and, with a metrics
        registry on the request, under ``cache.*`` gauges);
        ``result_cache_bytes`` attaches a cluster-owned λ-keyed
        :class:`~repro.serve.rcache.ResultCache` that serves repeat
        record prefixes and whole stripe meshes from memory, fenced to
        the ownership epoch.

    Examples
    --------
    >>> from repro.grid.datasets import sphere_field
    >>> cluster = SimulatedCluster(sphere_field((24, 24, 24)), p=4,
    ...                            metacell_shape=(5, 5, 5))
    >>> result = cluster.extract(0.5)
    >>> result.n_triangles > 0 and len(result.nodes) == 4
    True
    """

    def __init__(
        self,
        volume: Volume,
        p: int,
        metacell_shape: tuple[int, int, int] = (9, 9, 9),
        perf: PerformanceModel = PAPER_CLUSTER,
        image_size: tuple[int, int] = (256, 256),
        replication: int = 1,
        fault_plans: "dict[int, FaultPlan] | None" = None,
        retry_policy: "RetryPolicy | None" = None,
        health_policy: "HealthPolicy | None" = None,
        cache: "CacheOptions | None" = None,
    ) -> None:
        if p < 1:
            raise ValueError(f"node count must be >= 1, got {p}")
        self.volume = volume
        self.p = p
        self.perf = perf
        self.image_size = image_size
        self.metacell_shape = metacell_shape
        self.replication = replication
        self.retry_policy = retry_policy
        self.health = HealthMonitor(p, health_policy)
        #: Chaos network fault session (see
        #: :meth:`install_network_faults`); None — the default — leaves
        #: every message path byte-identical to a faultless build.
        self.net = None
        self.datasets: list[IndexedDataset] = self._build_datasets(
            volume, p, metacell_shape, perf, replication
        )
        #: stripe -> owning node.  On the static cluster this is the
        #: identity assignment and never changes; the elastic subclass
        #: reassigns stripes (epoch-fenced routing, see OwnershipMap).
        self.ownership = OwnershipMap.identity(self.p)
        for rank, plan in (fault_plans or {}).items():
            self.inject_faults(rank, plan)
        #: The resolved CacheOptions this cluster was built with (None:
        #: every cache off — the pre-CacheOptions default).
        self.cache_options = cache
        #: Cluster-owned λ-keyed result cache, or None.
        self.result_cache = None
        self._rc_fingerprint = None
        if cache is not None:
            blocks = cache.block_cache_blocks(perf.disk.block_size)
            if blocks > 0:
                for rank in range(self.p):
                    self.enable_cache(rank, blocks)
            if cache.result_cache_bytes > 0:
                from repro.serve.rcache import ResultCache

                self.result_cache = ResultCache(
                    cache.result_cache_bytes,
                    lambda_bucket=cache.lambda_bucket,
                )
                self.add_ownership_listener(
                    self.result_cache.on_ownership_change
                )

    def _build_datasets(
        self,
        volume: Volume,
        p: int,
        metacell_shape: tuple[int, int, int],
        perf: PerformanceModel,
        replication: int,
    ) -> "list[IndexedDataset]":
        """Preprocess the volume into per-stripe datasets (one simulated
        disk per stripe).  The elastic cluster overrides this to stripe
        over a smaller pool of shared physical node devices."""
        if p == 1:
            if replication != 1:
                raise ValueError("replication needs p >= 2 nodes")
            return [
                build_indexed_dataset(volume, metacell_shape, cost_model=perf.disk)
            ]
        return build_striped_datasets(
            volume, p, metacell_shape, cost_model=perf.disk,
            replication=replication,
        )

    def install_network_faults(self, plan):
        """Install a :class:`~repro.chaos.netfaults.NetworkFaultPlan` on
        every message path (result returns, hedged/replica reads, tile
        contributions, elastic migration traffic); returns the live
        session or None.

        With ``None`` or an empty plan no session is created: no RNG
        exists, no ``chaos.*`` instants fire, and the cluster's traces
        and results are byte-identical to one that never saw this call.
        """
        self.net = None if plan is None else plan.session()
        return self.net

    def _net_blocked(self, src: int, dst: int) -> bool:
        """True when the installed network session partitions the link."""
        return self.net is not None and self.net.blocked(src, dst)

    def _rank_host(self, rank: int) -> int:
        """Physical endpoint id serving stripe slot ``rank`` (the rank
        itself on the static cluster; the owning node when stripes share
        disks)."""
        return self.ownership.owner(rank)

    @property
    def ownership_epoch(self) -> int:
        """Current epoch of the ownership map (0 = never reassigned)."""
        return self.ownership.epoch

    def add_ownership_listener(self, callback) -> None:
        """Register ``callback(stripe, new_owner, epoch, reason)`` to run
        after every ownership epoch bump.  Registration survives the
        elastic subclass swapping in its own ownership map (the swap
        carries listeners over)."""
        if callback not in self.ownership.listeners:
            self.ownership.listeners.append(callback)

    def _result_fingerprint(self):
        """Build-identity key for the result cache (lazy, cached)."""
        if self._rc_fingerprint is None:
            from repro.serve.rcache import cluster_fingerprint

            self._rc_fingerprint = cluster_fingerprint(self.datasets)
        return self._rc_fingerprint

    @property
    def report(self):
        """The shared preprocessing report."""
        return self.datasets[0].report

    # -- fault control -------------------------------------------------

    def inject_faults(self, rank: int, plan: FaultPlan) -> FaultInjectingDevice:
        """Wrap node ``rank``'s disk in a fault injector (idempotent:
        re-injecting replaces the plan on the existing wrapper)."""
        ds = self.datasets[rank]
        dev = ds.device
        if isinstance(dev, FaultInjectingDevice):
            dev.plan = plan
        else:
            dev = FaultInjectingDevice(dev, plan)
            ds.device = dev
        return dev

    def enable_cache(self, rank: int, capacity_blocks: int) -> None:
        """Put an LRU block cache in front of node ``rank``'s disk
        (idempotent: an existing cache just has its capacity kept)."""
        from repro.io.cache import CachedDevice

        ds = self.datasets[rank]
        if not isinstance(ds.device, CachedDevice):
            ds.device = CachedDevice(ds.device, capacity_blocks)

    def cache_stats(self):
        """Combined :class:`~repro.io.cache.CacheStats` across every
        cached node disk, or None when no node has a cache.

        Walks each node's device wrapper chain (fault injectors, hedged
        wrappers, and caches all expose ``backing``), so the caches are
        found regardless of stacking order.
        """
        from repro.io.cache import CachedDevice, CacheStats

        found = False
        total = CacheStats()
        for ds in self.datasets:
            dev = ds.device
            while dev is not None:
                if isinstance(dev, CachedDevice):
                    found = True
                    cs = dev.cache_stats
                    total.hits += cs.hits
                    total.misses += cs.misses
                    total.evictions += cs.evictions
                    total.invalidations += cs.invalidations
                dev = getattr(dev, "backing", None)
        return total if found else None

    def fail_node(self, rank: int) -> None:
        """Kill node ``rank``'s disk permanently (simulated node loss)."""
        dev = self.datasets[rank].device
        if not isinstance(dev, FaultInjectingDevice):
            dev = self.inject_faults(rank, FaultPlan())
        dev.fail()

    def heal_node(self, rank: int) -> None:
        """Bring a failed node back online."""
        dev = self.datasets[rank].device
        if isinstance(dev, FaultInjectingDevice):
            dev.heal()

    def retire_node(self, rank: int) -> None:
        """Permanently remove node ``rank`` from service.

        The health breaker enters its terminal ``retired`` state — the
        node is routed around forever and never probed again (unlike an
        open circuit, which half-opens after a cooldown).  Queries keep
        succeeding from the chained-declustering replica; with
        ``replication == 1`` the node's bricks become unreachable and
        results go degraded, exactly as an unrecovered failure would.
        """
        self.health.retire(rank)

    # -- routing views (epoch fencing) ---------------------------------

    def _dataset_views(self) -> "list[IndexedDataset]":
        """The per-stripe routing view one extraction runs against.

        Called exactly once at :meth:`extract` entry — the epoch fence.
        The static cluster's ownership never changes, so the datasets
        themselves are the view; the elastic cluster overrides this to
        materialize per-stripe views pointing at each stripe's *current*
        owner (device + base offset) under one ownership snapshot.
        """
        return list(self.datasets)

    def _result_node_groups(self) -> "list[list[int]] | None":
        """Stripe slots grouped by physical disk for makespan honesty
        (see :attr:`ClusterResult.node_groups`); None on the static
        cluster where every slot has its own disk."""
        return None

    def _default_hedge_policy(self) -> HedgePolicy:
        """Policy used when a request passes ``hedge=True``."""
        return HedgePolicy()

    def _replica_hosts(self, rank: int) -> "list[int]":
        """Surviving-candidate ranks holding a replica of ``rank``'s
        layout, nearest successor first."""
        hosts = [
            q for q in range(self.p) if rank in self.datasets[q].replica_stores
        ]
        return sorted(hosts, key=lambda q: (q - rank) % self.p)

    def _replica_location(self, rank: int, host: "int | None" = None):
        """``(device, byte offset)`` of a replica of stripe ``rank``'s
        layout: the copy ``host`` holds, or — ``host=None`` — the copy
        hedged reads race the primary against (the nearest replica
        host's).  None when there is no such copy.

        The one place replica addressing lives: :meth:`_replica_dataset`
        and :meth:`_hedged_dataset` are both built on it, so a cluster
        that keeps replicas elsewhere (the elastic one: a node-keyed
        copy per stripe) overrides this and :meth:`_replica_hosts` only.
        """
        if host is None:
            hosts = self._replica_hosts(rank)
            if not hosts:
                return None
            host = hosts[0]
            if self._net_blocked(self._rank_host(rank), self._rank_host(host)):
                # An active partition cuts the replica link: hedging
                # against an unreachable copy would model reads that
                # cannot happen.  (The elastic override never had this
                # gate; that difference is kept as found.)
                return None
        hosted = self.datasets[host]
        return hosted.device, hosted.replica_stores[rank]

    def _replica_dataset(self, rank: int, host: int) -> IndexedDataset:
        """A view of node ``rank``'s layout served from ``host``'s disk.

        Shares the failed node's tree, codec, and checksum tables (the
        replica bytes are identical, so the CRCs are too) but points at
        the replica region of the host device — the query plan, record
        stream, and verification behave exactly as on the lost disk.
        """
        device, offset = self._replica_location(rank, host)
        return replace(
            self.datasets[rank],
            device=device, base_offset=offset, replica_stores={},
        )

    def _hedged_dataset(
        self, rank: int, policy: HedgePolicy, tracer, dataset: IndexedDataset,
    ) -> "IndexedDataset | None":
        """``dataset`` (stripe ``rank``'s routing view) with its device
        wrapped for hedged replica reads, or None when no replica exists
        to hedge against."""
        loc = self._replica_location(rank)
        if loc is None:
            return None
        return replace(
            dataset,
            device=HedgedDevice(
                dataset.device, dataset.base_offset, *loc, policy,
                tracer=tracer,
            ),
        )

    # ------------------------------------------------------------------

    def _node_extract(
        self, q: _QueryState, dataset: IndexedDataset, host: int,
        options: "QueryOptions | None" = None,
    ) -> "tuple[NodeMetrics, TriangleMesh, np.ndarray | None]":
        """Run the node stage for ``dataset`` on ``host``'s trace track.

        The stage itself is :func:`~repro.parallel.node.extract_node`;
        cluster-specific is only the mesh tier of the epoch-fenced
        result cache around it.  A hit short-circuits the whole node
        query — the stripe's complete prior output replays with zero
        modeled I/O and triangulation time; a miss runs the stage (the
        view rides in the options, so record prefixes are served from
        and re-deposited into the cache) and admits full-coverage,
        verification-clean output.  Keys carry the backend, so inexact
        kernels never replay exact output.  ``options`` replaces the
        request's own for this run (speculation carries its own budget).
        """
        options = replace(options or q.options, track=f"node{host}")
        stripe = dataset.node_rank
        lam = q.lam
        rcache = options.result_cache
        if rcache is not None:
            t0 = time.perf_counter()
            hit = rcache.mesh_get(
                stripe, lam, q.want_normals, backend=options.backend
            )
            if hit is not None:
                if q.tracer.enabled:
                    q.tracer.instant(
                        "rcache.mesh_hit", track=options.track,
                        category="cache",
                        args={"stripe": stripe, "lam": float(lam)},
                    )
                metrics = NodeMetrics(node_rank=stripe)
                metrics.n_active_metacells = hit.n_active
                metrics.n_cells_examined = hit.n_cells_examined
                metrics.n_triangles = hit.n_triangles
                metrics.measured_seconds = time.perf_counter() - t0
                return metrics, hit.mesh, hit.normals
        metrics, mesh, normals, qr = extract_node(
            dataset, lam, options, perf=self.perf, with_normals=q.want_normals
        )
        if (
            rcache is not None
            and not qr.deadline_expired
            and not qr.n_records_skipped
            and dataset.checksums is not None
        ):
            from repro.serve.rcache import CachedNodeResult

            rcache.mesh_put(
                stripe, lam, q.want_normals,
                backend=options.backend,
                payload=CachedNodeResult(
                    mesh=mesh, normals=normals, n_active=qr.n_active,
                    n_cells_examined=metrics.n_cells_examined,
                    n_triangles=mesh.n_triangles,
                    n_records_read=qr.n_records_read,
                ),
            )
        return metrics, mesh, normals

    def _serve_from_replica(
        self, q: _QueryState, k: int, host: int, accept=None,
        options: "QueryOptions | None" = None,
    ) -> bool:
        """Re-run stripe ``k``'s exact query against ``host``'s replica
        copy and adopt the answer into ``k``'s slot — the one routine
        behind proactive routing, failure recovery and straggler
        speculation.

        The adopted mesh keeps the victim's framebuffer *slot*, so
        composite order — and hence the image — matches a healthy run
        bit for bit; the work is accounted to the host that did it.
        False when the host's disk faults too, or when ``accept(answer
        metrics)`` vetoes the finished re-run (its return was lost; it
        covered no more than the straggler).
        """
        try:
            m2, mesh2, normals2 = self._node_extract(
                q, self._replica_dataset(k, host), host, options
            )
        except StorageFault:
            return False
        if accept is not None and not accept(m2):
            return False
        # The work physically ran on the host: account it there.
        hm, vm = q.per_node[host], q.per_node[k]
        hm.n_active_metacells += m2.n_active_metacells
        hm.n_cells_examined += m2.n_cells_examined
        hm.n_triangles += m2.n_triangles
        hm.io_stats = hm.io_stats + m2.io_stats
        hm.io_time += m2.io_time
        hm.triangulation_time += m2.triangulation_time
        hm.measured_seconds += m2.measured_seconds
        hm.recovered_ranks.append(k)
        vm.served_by = host
        vm.coverage = m2.coverage
        vm.deadline_expired = m2.deadline_expired
        vm.skipped_bricks = m2.skipped_bricks
        q.delivered[k] = m2.n_active_metacells
        q.meshes[k] = mesh2
        q.normals[k] = normals2
        return True

    def extract(
        self,
        lam: float,
        request: "ExtractRequest | None" = None,
    ) -> ClusterResult:
        """Extract (and optionally render + composite) isosurface ``lam``.

        All configuration goes through ``request``
        (:class:`ExtractRequest`; ``None`` means the defaults).

        With ``render=True``, each node rasterizes its local mesh into
        its own framebuffer and the buffers are composited sort-last;
        the returned result carries the final image.  ``smooth=True``
        renders with Gouraud shading from payload-local gradient normals
        (each node computes them from its own records — no global volume
        exists anywhere, exactly as on the paper's cluster).  Without
        rendering, the GPU time is still modeled from the triangle
        counts, and the composite is byte-accounted analytically.

        Degraded mode: a node whose disk raises a permanent
        :class:`~repro.io.faults.StorageFault` is marked failed instead
        of crashing the extraction.  If a surviving node holds a replica
        of the lost layout (``replication >= 2``), it re-runs the failed
        node's exact query against the replica region — producing the
        identical records, mesh, and framebuffer, with the extra I/O and
        compute time charged to the serving node.  Failures with no
        replica yield a *partial* result flagged ``degraded=True``: the
        sort-last composite covers the surviving framebuffers only, and
        no exception escapes.

        Time-domain resilience (see ``docs/robustness.md``):

        * ``deadline`` — a :class:`~repro.core.deadline.Deadline` or a
          plain modeled-seconds budget.  Node queries are cut off at the
          stage budget; an expired run comes back *partial* with
          per-node coverage fractions, the skipped span-space bricks,
          and a :class:`~repro.core.deadline.DeadlineReport` attached —
          never blocking on a straggler.
        * ``hedge`` — a :class:`~repro.io.faults.HedgePolicy` (or
          ``True`` for defaults): brick reads whose primary attempt
          exceeds a quantile-derived threshold are re-issued against the
          chained-declustering replica and the first completion wins,
          with bit-identical payloads.  Needs ``replication >= 2``;
          silently inert otherwise.
        * ``speculate`` — stragglers that blow their stage budget have
          their query re-executed on the replica host inside the
          speculation window (defaults to on when both ``deadline`` and
          ``hedge`` are given).

        The per-node health state machine observes every extraction;
        nodes whose circuit is open are routed to their replica host
        without touching the primary disk at all.

        Re-entrancy: ``extract`` holds no state of its own between calls
        — everything per-query lives in one :class:`_QueryState`, and
        the only mutated members (the health monitor, device meters,
        cache contents) are updated once per call in a fixed order — so
        a serving layer may interleave extractions for many tenants back
        to back on one cluster and same-seed call sequences stay
        bit-deterministic.

        Observability: with ``request.tracer`` set, the run is traced on
        the modeled clock — live read spans per node track, post-hoc
        ``stage.io`` / ``stage.triangulate`` / ``stage.render`` summary
        spans whose totals reconcile exactly with the returned
        :class:`ClusterResult`, and a ``composite`` span on the
        ``cluster`` track.  With ``request.metrics`` set, every counter
        lands in the unified registry namespace.
        """
        q = self._begin_query(lam, _checked(
            request, DEFAULT_EXTRACT_REQUEST,
            "SimulatedCluster.extract() second argument",
        ))
        self._primary_pass(q)
        # Health observations are taken from the *primary* outcome, before
        # any speculative rescue rewrites the flags.
        observations = {
            k: _observation(q.per_node[k])
            for k in range(self.p)
            if k not in q.routed_ranks
        }
        self._routed_pass(q, observations)
        unrecovered = self._recovery_pass(q)
        expired_primary, speculated = self._speculation_pass(q)
        for k, obs in observations.items():
            self.health.observe(k, obs)

        result = self._account(q, unrecovered)
        #: Framebuffer slots that actually exist somewhere and get shipped.
        live = [i for i in range(self.p) if i not in unrecovered]
        if q.req.render:
            n_msgs = self._render_and_composite(q, result, live)
        else:
            # Analytic accounting, the dense upper bound: with no frame
            # there is no coverage to go on, so every live buffer ships
            # all its pixels once.
            n_msgs = len(live)
            w, h = self.image_size
            result.composite_bytes = n_msgs * w * h * PIXEL_PAYLOAD_BYTES
        result.composite_time = self.perf.network.transfer_time(
            result.composite_bytes, n_messages=n_msgs
        )
        if q.req.keep_meshes or q.req.render:
            result.meshes = q.meshes
        dl = q.deadline
        if dl is not None:
            result.deadline = DeadlineReport(
                budget=dl.budget,
                node_budget=dl.node_budget,
                modeled_total=result.total_time,
                coverage=result.coverage,
                met=result.coverage >= 1.0 - 1e-12
                and result.total_time <= dl.budget + 1e-12,
                expired_nodes=expired_primary,
                speculated_nodes=speculated,
            )
        if q.tracer.enabled:
            self._emit_summary_spans(q.tracer, result, n_msgs)
        if q.req.metrics is not None:
            self._publish_cluster_metrics(q.req.metrics, result)
        return result

    def _begin_query(self, lam: float, req: ExtractRequest) -> _QueryState:
        """Open one extraction: fence the routing view and the result
        cache to the current ownership epoch and build the request's one
        :class:`QueryOptions`."""
        tracer = coerce_tracer(req.tracer)
        dl = Deadline.coerce(req.deadline)
        hedge_policy = (
            self._default_hedge_policy() if req.hedge is True
            else (req.hedge or None)
        )
        self.health.begin_query()
        # Epoch fence: the routing view (who serves each stripe, from
        # which device region) is captured once, here — membership or
        # ownership changes landing after this point apply to the *next*
        # query, never to this one.
        epoch = self.ownership.epoch
        views = self._dataset_views()
        # The result cache binds at the same fence: every key this query
        # reads or writes embeds (fingerprint, epoch), so a rebalance
        # landing mid-flight can neither serve us stale entries nor be
        # polluted by ours.
        rc = (
            req.result_cache if req.result_cache is not None
            else self.result_cache
        )
        rview = None
        if rc is not None:
            rview = rc.view(
                self._result_fingerprint(), epoch,
                populate=req.cache_populate,
            )
        return _QueryState(
            lam=lam, req=req, tracer=tracer, deadline=dl,
            hedge_policy=hedge_policy,
            options=QueryOptions(
                retry_policy=self.retry_policy,
                time_budget=dl.node_budget if dl is not None else None,
                tracer=tracer, result_cache=rview,
                backend=req.backend, batch_chunk=req.batch_chunk,
            ),
            want_normals=req.render and req.smooth,
            epoch=epoch, views=views,
            per_node=[None] * self.p, meshes=[None] * self.p,
            normals=[None] * self.p, delivered=[0] * self.p,
        )

    def _primary_pass(self, q: _QueryState) -> None:
        """Every stripe's own node runs the node stage (hedged when the
        request asks); circuit-open stripes are left for
        :meth:`_routed_pass`, faulted ones for :meth:`_recovery_pass`."""
        for rank, dataset in enumerate(q.views):
            if self.health.routed_around(rank) and self._replica_hosts(rank):
                # Circuit open: don't touch the primary disk; the layout
                # is served from a replica host after this pass.
                q.routed_ranks.append(rank)
                q.put(rank, NodeMetrics(node_rank=rank, circuit_open=True))
                continue
            if q.hedge_policy is not None:
                dataset = self._hedged_dataset(
                    rank, q.hedge_policy, q.tracer, dataset
                ) or dataset
            try:
                m, mesh, normals = self._node_extract(q, dataset, rank)
            except StorageFault as exc:
                q.fail(rank, str(exc))
                q.tracer.instant(
                    "node.failed", track="cluster", category="fault",
                    args={"rank": rank, "error": str(exc)},
                )
                continue
            if self.net is not None:
                # The node's extracted result must cross the wire back
                # to the coordinator.  A return lost past the retry
                # budget is indistinguishable from a dead node at the
                # coordinator, so it takes the same recovery path
                # (replica re-run in the recovery pass).
                d = self.net.send(
                    self._rank_host(rank), COORDINATOR,
                    tracer=q.tracer, track="cluster", what="result",
                )
                if not d.delivered:
                    q.fail(rank, "network: result return lost")
                    continue
                m.net_delay += d.delay
            q.put(rank, m, mesh, normals)

    def _routed_pass(self, q: _QueryState, observations: dict) -> None:
        """Serve circuit-open stripes from their replica hosts
        (proactive routing: the primary disk is never asked)."""
        for k in q.routed_ranks:
            for host in self._replica_hosts(k):
                if q.per_node[host].failed:
                    continue
                if self._serve_from_replica(q, k, host):
                    q.tracer.instant(
                        "node.routed", track="cluster", category="health",
                        args={"rank": k, "host": host,
                              "reason": "circuit open (proactive routing)"},
                    )
                    self.health.tick_routed(k)
                    break
            else:
                # Every replica host is down: forced probe of the primary.
                try:
                    m, mesh, normals = self._node_extract(q, q.views[k], k)
                    m.circuit_open = True
                    q.put(k, m, mesh, normals)
                except StorageFault as exc:
                    q.fail(k, str(exc), circuit_open=True)
                observations[k] = _observation(q.per_node[k])

    def _recovery_pass(self, q: _QueryState) -> "list[int]":
        """Serve lost stripes from surviving replicas; returns the ranks
        no replica could serve (their coverage drops to zero)."""

        def returned(host: int) -> bool:
            # The re-run completed on the host, but its answer still has
            # to reach the coordinator; a lost return means trying the
            # next replica host.
            if self.net is None:
                return True
            d = self.net.send(
                self._rank_host(host), COORDINATOR,
                tracer=q.tracer, track="cluster", what="recovered-result",
            )
            if d.delivered:
                q.per_node[host].net_delay += d.delay
            return d.delivered

        for k in q.failed_ranks:
            for host in self._replica_hosts(k):
                if q.per_node[host].failed:
                    continue
                if self._net_blocked(self._rank_host(host), COORDINATOR):
                    # The replica host sits on the far side of an
                    # active partition: its re-run could never reach
                    # the coordinator, so don't burn its disk on it.
                    continue
                if self._serve_from_replica(
                    q, k, host, accept=lambda _m: returned(host)
                ):
                    q.tracer.instant(
                        "node.recovered", track="cluster", category="fault",
                        args={"rank": k, "host": host},
                    )
                    break
        unrecovered = [
            k for k in q.failed_ranks if q.per_node[k].served_by is None
        ]
        for k in unrecovered:
            q.per_node[k].coverage = 0.0
        return unrecovered

    def _speculation_pass(self, q: _QueryState) -> "tuple[list[int], list[int]]":
        """Straggler mitigation: nodes that blew their stage budget get
        their query speculatively re-executed on a replica host, the
        speculative task starting at the budget mark.  The victim's
        partial output is replaced (bit-identical records when both
        complete); its wasted metered I/O stays on its own record.
        Returns ``(expired primaries, speculated victims)``."""
        dl, per_node = q.deadline, q.per_node
        expired_primary = [
            k for k in range(self.p)
            if per_node[k].deadline_expired and not per_node[k].failed
        ]
        do_speculate = (
            q.req.speculate
            if q.req.speculate is not None
            else (dl is not None and q.hedge_policy is not None)
        )
        speculated: "list[int]" = []
        if dl is None or not do_speculate or not expired_primary:
            return expired_primary, speculated
        hosts_map = {
            k: [h for h in self._replica_hosts(k) if not per_node[h].failed]
            for k in expired_primary
        }
        options = replace(q.options, time_budget=dl.speculation_budget)
        for d in plan_speculation(expired_primary, hosts_map, dl.node_budget,
                                  tracer=q.tracer, track="cluster"):
            vm, hm = per_node[d.victim], per_node[d.host]
            # The speculative task launches *at* the stage-budget mark:
            # if the host finished its own work earlier, the gap is
            # modeled idle time on the host's clock.
            before = hm.io_time + hm.triangulation_time + hm.speculation_wait
            if not self._serve_from_replica(
                q, d.victim, d.host,
                # Keep the straggler's output unless the re-run covered more.
                accept=lambda m2: not (
                    m2.deadline_expired and m2.coverage <= vm.coverage
                ),
                options=options,
            ):
                continue
            hm.speculation_wait += max(0.0, d.launch_time - before)
            vm.n_active_metacells = 0
            vm.n_cells_examined = 0
            vm.n_triangles = 0
            # The straggler is cancelled at the budget mark — its
            # clock stops there even though its metered I/O (the
            # wasted attempt) stays on record.
            vm.io_time = min(vm.io_time, dl.node_budget)
            vm.triangulation_time = 0.0
            vm.speculated_to = d.host
            speculated.append(d.victim)
        return expired_primary, speculated

    def _account(self, q: _QueryState, unrecovered: "list[int]") -> ClusterResult:
        """Fold the per-node outcomes into a :class:`ClusterResult`:
        cluster coverage, per-node modeled render time, degraded flag."""
        per_node = q.per_node
        total_expected = sum(ds.tree.query_count(q.lam) for ds in q.views)
        if total_expected:
            coverage = sum(q.delivered) / total_expected
        else:
            # Zero predicted actives: full coverage only if no node's
            # own coverage was degraded (deadline cut / unrecovered
            # failure) — mirrors the per-node fallback in extract_node.
            coverage = min((m.coverage for m in per_node), default=1.0)

        w, h = self.image_size
        fb_bytes = w * h * PIXEL_PAYLOAD_BYTES  # readback
        for m in per_node:
            if m.failed:
                m.render_time = 0.0
            else:
                # A node renders one buffer per layout it served (its own
                # plus any recovered ranks), each read back over PCIe.
                m.render_time = self.perf.gpu.render_time(
                    m.n_triangles, fb_bytes * (1 + len(m.recovered_ranks))
                )
        return ClusterResult(
            lam=float(q.lam),
            p=self.p,
            nodes=per_node,
            degraded=bool(unrecovered) or coverage < 1.0 - 1e-12,
            failed_nodes=sorted(q.failed_ranks),
            coverage=coverage,
            tenant=q.req.tenant,
            epoch=q.epoch,
            node_groups=self._result_node_groups(),
            backend=q.req.backend,
        )

    def _render_and_composite(
        self, q: _QueryState, result: ClusterResult, live: "list[int]"
    ) -> int:
        """Each live slot rasterizes its mesh into its own framebuffer
        (auto-framed unless the request carries a camera); the buffers
        merge sort-last by direct send onto the request's tile layout,
        or one whole-image tile without one.  Fills ``result.image`` /
        ``composite_bytes`` and returns the message count."""
        req, dl, meshes = q.req, q.deadline, q.meshes
        cam = req.camera
        if cam is None:
            combined = TriangleMesh.concat([m for m in meshes if m.n_triangles])
            if combined.n_triangles == 0 and not result.degraded:
                raise ValueError(
                    f"no geometry at isovalue {q.lam}; cannot auto-frame a camera"
                )
            cam = Camera.fit_mesh(combined) if combined.n_triangles else None
        tile_layout = req.tile_layout or TileLayout(1, 1, *self.image_size)
        w, h = tile_layout.width, tile_layout.height
        fbs = []
        for i in live:
            fb = Framebuffer(w, h)
            if cam is not None:
                if req.smooth and q.normals[i] is not None:
                    render_mesh_smooth(fb, meshes[i], cam, q.normals[i])
                else:
                    render_mesh(fb, meshes[i], cam)
            fbs.append(fb)
        if not fbs:
            # Every node failed with no replicas: an empty frame.
            result.image = Framebuffer(w, h)
            result.composite_bytes = 0
            return 0
        comp_budget = None
        if dl is not None:
            node_makespan = max((n.total_time for n in q.per_node), default=0.0)
            comp_budget = max(dl.budget - node_makespan, 0.0)
        result.image, stats = direct_send(
            fbs,
            tile_layout,
            interconnect=self.perf.network if dl is not None else None,
            budget=comp_budget,
            tracer=q.tracer,
            track="cluster",
            network=self.net,
        )
        result.composite_bytes = stats.total_bytes
        if stats.lost_nodes:
            # A contribution the network lost past the retry budget is
            # missing from the frame: never silent.  (direct_send
            # indexes the live framebuffer list, so map back to cluster
            # ranks.)
            result.net_lost_ranks = [live[i] for i in stats.lost_nodes]
            result.degraded = True
        return (stats.n_nodes - len(stats.dropped_nodes)) * tile_layout.n_tiles

    def _emit_summary_spans(
        self, tracer, result: ClusterResult, n_msgs: int
    ) -> None:
        """Post-hoc stage spans built from the *final* per-node metrics.

        Live read spans cover the work as it happened (including wasted
        straggler attempts and replica work charged to its host); these
        summary spans cover the work as *accounted*, so their totals
        reconcile exactly with :class:`ClusterResult` — the contract the
        acceptance test pins (``stage.io`` durations sum to the nodes'
        ``io_time``, etc.).
        """
        for m in result.nodes:
            track = f"node{m.node_rank}"
            t = 0.0
            tracer.record(
                "stage.io", track, t, m.io_time, category="stage",
                args={
                    "blocks": m.io_stats.blocks_read,
                    "seeks": m.io_stats.seeks,
                    "active_metacells": m.n_active_metacells,
                    "retries": m.n_retries,
                    "hedged_reads": m.n_hedged_reads,
                    "hedge_wins": m.n_hedge_wins,
                },
            )
            t += m.io_time
            tracer.record(
                "stage.triangulate", track, t, m.triangulation_time,
                category="stage",
                args={"cells": m.n_cells_examined,
                      "triangles": m.n_triangles,
                      "backend": result.backend},
            )
            t += m.triangulation_time
            if m.speculation_wait:
                tracer.record(
                    "stage.speculation_wait", track, t, m.speculation_wait,
                    category="stage",
                    args={"recovered_ranks": list(m.recovered_ranks)},
                )
                t += m.speculation_wait
            tracer.record(
                "stage.render", track, t, m.render_time, category="stage",
                args={"triangles": m.n_triangles,
                      "buffers": 1 + len(m.recovered_ranks)},
            )
        makespan = max((n.total_time for n in result.nodes), default=0.0)
        tracer.record(
            "composite", "cluster", makespan, result.composite_time,
            category="stage",
            args={"bytes": result.composite_bytes, "messages": n_msgs},
        )
        tracer.record(
            "cluster.extract", "cluster", 0.0, result.total_time,
            category="cluster",
            args={
                "lam": result.lam, "p": result.p,
                "coverage": result.coverage,
                "triangles": result.n_triangles,
                "degraded": result.degraded,
                "backend": result.backend,
            },
        )

    def _publish_cluster_metrics(self, registry, result: ClusterResult) -> None:
        """Fold one extraction's accounting into the unified registry."""
        for m in result.nodes:
            registry.absorb_io_stats(m.io_stats)
            registry.inc("cluster.active_metacells", m.n_active_metacells)
            registry.inc("cluster.triangles", m.n_triangles)
            registry.observe("node.io_seconds", m.io_time)
            registry.observe("node.triangulation_seconds", m.triangulation_time)
            registry.observe("node.render_seconds", m.render_time)
            registry.set_gauge(f"node.{m.node_rank}.coverage", m.coverage)
            reason = m.recovery_reason
            if reason is not None:
                registry.inc(f"cluster.recovery.{reason}")
            if m.failed:
                registry.inc("cluster.node_failures")
            if m.deadline_expired:
                registry.inc("cluster.deadline_expired_nodes")
        registry.inc("cluster.extractions")
        registry.inc(f"kernel.{result.backend}.extractions")
        registry.inc(f"kernel.{result.backend}.triangles", result.n_triangles)
        registry.inc("cluster.composite_bytes", result.composite_bytes)
        registry.set_gauge("cluster.coverage", result.coverage)
        registry.observe("cluster.total_seconds", result.total_time)
        registry.observe("cluster.composite_seconds", result.composite_time)
        if result.deadline is not None:
            registry.inc("cluster.deadline_runs")
            if result.deadline.met:
                registry.inc("cluster.deadline_met")
            registry.set_gauge("cluster.deadline_coverage",
                               result.deadline.coverage)
        if result.tenant:
            t = f"tenant.{result.tenant}"
            registry.inc(f"{t}.extractions")
            registry.inc(f"{t}.triangles", result.n_triangles)
            registry.observe(f"{t}.total_seconds", result.total_time)
            registry.set_gauge(f"{t}.coverage", result.coverage)
        cache = self.cache_stats()
        if cache is not None:
            registry.absorb_cache_stats(cache)
        if self.result_cache is not None:
            from repro.serve.rcache import publish_result_cache_stats

            publish_result_cache_stats(registry, self.result_cache)
        self.health.publish(registry)

    def estimate_extract_time(
        self, lam: float, backend: str = "mc-batch"
    ) -> float:
        """Predicted modeled seconds for :meth:`extract` at ``lam``,
        without touching any disk.

        ``backend`` names the extraction kernel the request will run
        (validated against :mod:`repro.mc.backends`).  The I/O bill this
        estimate is built from is backend-independent — the kernel only
        changes triangulation time, which the estimate deliberately
        excludes — but callers that memoize the figure (the serving
        front-end) key their cache on it, so the parameter keeps the
        estimate's signature aligned with the request it predicts.

        The per-stripe I/O bill comes from
        :func:`~repro.core.analysis.estimate_query_cost` (block-exact on
        a healthy node), summed per *current owner* under the live
        ownership map — stripes sharing one physical disk serialize on
        it, so the slowest owner's total bounds the makespan and the
        analytic composite rides on top.  On the static cluster the
        ownership is the identity and this reduces to the slowest
        single node, but during elastic scale events the estimate
        tracks live capacity: admission's deadline-feasibility gate
        sees 8-node costs right after a scale-out and 3-node costs
        after a scale-in, not the build-time node count.
        Triangulation/render time and fault mitigation are *not*
        predicted, so this is a lower bound — admission control treats
        it as "the query costs at least this much" when sizing
        backlogs, which only ever errs toward admitting.
        """
        from repro.core.analysis import estimate_query_cost
        from repro.mc.backends import validate_backend

        validate_backend(backend)
        views = self._dataset_views()
        owners = self.ownership.owners()
        per_owner: "dict[int, float]" = {}
        for s, ds in enumerate(views):
            est = estimate_query_cost(
                ds.tree, lam, ds.codec.record_size, ds.device.cost_model,
                ds.base_offset,
            )
            per_owner[owners[s]] = (
                per_owner.get(owners[s], 0.0) + est.io_time(ds.device.cost_model)
            )
        worst = max(per_owner.values(), default=0.0)
        w, h = self.image_size
        n_buffers = len(views)
        composite = self.perf.network.transfer_time(
            n_buffers * w * h * PIXEL_PAYLOAD_BYTES, n_messages=n_buffers
        )
        return worst + composite

    def sweep(
        self,
        isovalues,
        request: "ExtractRequest | None" = None,
    ) -> "list[ClusterResult]":
        """Run :meth:`extract` over a sequence of isovalues."""
        return [self.extract(lam, request) for lam in isovalues]
