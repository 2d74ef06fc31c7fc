"""Elastic cluster: over-partitioned stripes on a changing node pool.

The static :class:`~repro.parallel.cluster.SimulatedCluster` is the
paper's machine — stripe ``s`` lives on node ``s``'s disk forever.
:class:`ElasticCluster` keeps the paper's preprocessing *exactly* (the
stripes, trees, and record layouts are built once by
:func:`~repro.core.builder.build_striped_datasets` and never rewritten)
but decouples stripes from nodes:

* The volume is striped into ``n_stripes`` logical stripes — more
  stripes than nodes (*over-partitioning*), so a rebalance moves whole
  stripes instead of re-striping bricks.
* ``nodes`` physical disks each serve several stripes; the
  :class:`~repro.parallel.cluster.OwnershipMap` says who serves what,
  and :class:`~repro.elastic.membership.Membership` tracks each node's
  lifecycle.
* Every stripe keeps one chained-declustering replica on a *different*
  node.  Failover promotes the replica to primary (a metadata flip —
  zero data motion) and backfills a fresh replica; live migration
  copies a stripe to its new owner CRC-verified end to end while reads
  keep flowing from the old copy.

Epoch fencing (inherited contract): :meth:`extract` materializes its
routing view once at entry, so membership changes landing mid-workload
apply to the *next* query, never a running one.  Per-query makespans
are honest about disk sharing via ``ClusterResult.node_groups`` —
stripes on one disk serialize.

Migration I/O is metered separately from serving I/O
(:meth:`serving_io_seconds`) so the :class:`~repro.elastic.rebalance.Rebalancer`
can bound data motion to a fraction of useful work.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.builder import IndexedDataset, build_striped_datasets
from repro.grid.volume import Volume
from repro.io.blockdevice import SimulatedBlockDevice
from repro.io.faults import (
    BrickCorruptionError,
    FaultInjectingDevice,
    FaultPlan,
    HedgePolicy,
    RetryPolicy,
    StorageFault,
)
from repro.obs.tracer import coerce_tracer
from repro.parallel.cluster import OwnershipMap, SimulatedCluster
from repro.parallel.health import HealthPolicy
from repro.parallel.perfmodel import PAPER_CLUSTER, PerformanceModel

from .membership import (
    MemberState,
    Membership,
    StaleCopy,
    TARGET_STATES,
)

#: Membership state codes for gauges, in lifecycle order.
MEMBER_STATE_CODES = {
    MemberState.JOINING: 0,
    MemberState.SYNCING: 1,
    MemberState.ACTIVE: 2,
    MemberState.DRAINING: 3,
    MemberState.GONE: 4,
}


@dataclass(frozen=True)
class MigrationRecord:
    """One completed data movement (audit log row + pacing input)."""

    time: float
    #: ``primary`` (stripe ownership moved), ``replica`` (replica copy
    #: placed or moved).
    kind: str
    stripe: int
    #: Node the bytes were read from.
    src_node: int
    #: Node the bytes now live on.
    dst_node: int
    nbytes: int
    #: Modeled seconds of migration I/O: source read + destination
    #: write + CRC read-back.
    modeled_seconds: float
    #: Ownership epoch after the move (unchanged for replica moves).
    epoch: int
    reason: str = ""


class ElasticCluster(SimulatedCluster):
    """A cluster whose node count changes under live queries.

    Parameters
    ----------
    volume:
        Input scalar field, preprocessed once at construction.
    nodes:
        Initial physical node count (>= 2; replication needs a second
        disk).
    n_stripes:
        Logical stripe count (defaults to ``3 * nodes``).  More stripes
        than any node count you intend to scale to keeps rebalances
        whole-stripe; the count is fixed for the cluster's lifetime.
    tracer / metrics:
        Optional :class:`~repro.obs.tracer.Tracer` /
        :class:`~repro.obs.metrics.MetricsRegistry` receiving
        ``elastic.*`` instants and gauges for membership, migration,
        and failover events (query-time observability still rides on
        each request's own tracer/metrics).
    cache:
        A :class:`~repro.io.cache.CacheOptions`.  Only the λ-keyed
        result cache is honoured here (``result_cache_bytes``); block
        caches are rejected by :meth:`enable_cache` because stripe
        migrations would need cross-device invalidation.  Result-cache
        keys embed the ownership epoch, so scale events invalidate
        stale entries automatically.

    Examples
    --------
    >>> from repro.grid.datasets import sphere_field
    >>> ec = ElasticCluster(sphere_field((24, 24, 24)), nodes=2,
    ...                     n_stripes=6, metacell_shape=(5, 5, 5))
    >>> ec.extract(0.5).coverage
    1.0
    """

    def __init__(
        self,
        volume: Volume,
        nodes: int = 4,
        n_stripes: "int | None" = None,
        metacell_shape: tuple[int, int, int] = (9, 9, 9),
        perf: PerformanceModel = PAPER_CLUSTER,
        image_size: tuple[int, int] = (256, 256),
        retry_policy: "RetryPolicy | None" = None,
        health_policy: "HealthPolicy | None" = None,
        tracer=None,
        metrics=None,
        cache=None,
    ) -> None:
        if nodes < 2:
            raise ValueError(f"elastic cluster needs >= 2 nodes, got {nodes}")
        S = n_stripes if n_stripes is not None else 3 * nodes
        if S < nodes:
            raise ValueError(
                f"n_stripes ({S}) must be >= initial nodes ({nodes})"
            )
        if (S - 1) % nodes == 0 and S > 1:
            # Round-robin replica placement (stripe s's replica rides on
            # dataset (s+1) % S) would collocate stripe S-1's replica
            # with its own primary.
            raise ValueError(
                f"n_stripes={S} with nodes={nodes} collocates a replica "
                f"with its primary; pick n_stripes not congruent to 1 "
                f"mod nodes"
            )
        self._initial_nodes = nodes
        super().__init__(
            volume, p=S, metacell_shape=metacell_shape, perf=perf,
            image_size=image_size, replication=2,
            retry_policy=retry_policy, health_policy=health_policy,
            cache=cache,
        )
        self.elastic_tracer = coerce_tracer(tracer)
        self.elastic_metrics = metrics

        self.membership = Membership()
        for dev in self._node_devices:
            self.membership.add(dev, state=MemberState.ACTIVE)
        # Ownership starts at the build-time round-robin assignment,
        # epoch 0 (stripe s served by node s % nodes).  Listeners the
        # base constructor registered (the result cache's epoch fence)
        # are carried onto the replacement map.
        carried = self.ownership.listeners
        self.ownership = OwnershipMap([s % nodes for s in range(S)])
        self.ownership.listeners.extend(carried)
        #: stripe -> byte offset of the authoritative copy on its
        #: owner's disk (the ownership map says *which* disk).
        self._primary_offset: "dict[int, int]" = {
            s: self.datasets[s].base_offset for s in range(S)
        }
        #: stripe -> (node_id, offset) of the chained-declustering
        #: replica, or None while a failover backfill is pending.
        self._replica: "dict[int, tuple[int, int] | None]" = {
            s: (((s + 1) % S) % nodes, self.datasets[(s + 1) % S].replica_stores[s])
            for s in range(S)
        }
        #: Completed data movements, oldest first.
        self.migrations: "list[MigrationRecord]" = []
        #: Migrations a network fault forced to abort-and-retry (dicts:
        #: stripe/src/dst/time/reason).  Aborts never flip ownership —
        #: the rebalancer simply re-plans the move on a later step.
        self.migrations_aborted: "list[dict]" = []
        #: Stripes with no live copy left (both the owner and the
        #: replica host died); queries over them come back degraded.
        self.lost_stripes: "list[int]" = []
        self.migration_bytes = 0
        self.migration_seconds = 0.0
        self._migration_read_seconds = 0.0

    # -- construction hook ---------------------------------------------

    def _build_datasets(self, volume, p, metacell_shape, perf, replication):
        nodes = self._initial_nodes
        self._node_devices = [
            SimulatedBlockDevice(perf.disk) for _ in range(nodes)
        ]
        return build_striped_datasets(
            volume, p, metacell_shape,
            devices=[self._node_devices[s % nodes] for s in range(p)],
            cost_model=perf.disk, replication=replication,
        )

    # -- basic views ----------------------------------------------------

    @property
    def n_stripes(self) -> int:
        return self.p

    @property
    def n_serving_nodes(self) -> int:
        return len(self.membership.serving_ids())

    def _member_device(self, node_id: int):
        return self.membership.members[node_id].device

    def _view(self, s: int) -> IndexedDataset:
        """Stripe ``s``'s routing view: its tree/codec/CRCs bound to the
        current owner's device and the authoritative copy's offset."""
        node = self.ownership.owner(s)
        return replace(
            self.datasets[s],
            device=self._member_device(node),
            base_offset=self._primary_offset[s],
            replica_stores={},
        )

    def _dataset_views(self):
        # The epoch fence: one consistent owner snapshot per extraction.
        return [self._view(s) for s in range(self.p)]

    def _result_node_groups(self):
        groups: "dict[int, list[int]]" = {}
        for s in range(self.p):
            groups.setdefault(self.ownership.owner(s), []).append(s)
        return [groups[n] for n in sorted(groups)]

    def _default_hedge_policy(self) -> HedgePolicy:
        # Elastic requests that ask for hedging also get fail-over
        # reads: a primary that dies mid-read (node killed between the
        # epoch fence and the read) falls back to the replica instead
        # of failing the stripe.
        return HedgePolicy(failover=True)

    # -- replica routing (the base extract's recovery hooks) ------------

    def _live_replica(self, rank: int) -> "tuple[int, int] | None":
        loc = self._replica.get(rank)
        if loc is None:
            return None
        member = self.membership.members[loc[0]]
        return loc if member.serving else None

    def _replica_hosts(self, rank: int) -> "list[int]":
        """Representative stripe slot of the replica-holding node.

        The base cluster charges replica-served work to ``per_node[host]``
        where ``host`` is a stripe slot, so we return the smallest slot
        the replica's node currently owns.  A replica on a node that
        owns no primaries has no slot to charge — treated as no replica
        for this query (failover, not per-query recovery, is the path
        that handles real node loss).
        """
        loc = self._live_replica(rank)
        if loc is None:
            return []
        slots = self.ownership.stripes_of(loc[0])
        return [min(slots)] if slots else []

    def _replica_location(self, rank: int, host: "int | None" = None):
        # One node-keyed copy per stripe, wherever ``host``'s slot lives;
        # hedged reads (``host=None``) race the same copy.
        loc = self._live_replica(rank)
        return None if loc is None else (self._member_device(loc[0]), loc[1])

    # -- fault / membership control (node-id keyed) ----------------------

    def inject_faults(self, node_id: int, plan: FaultPlan) -> FaultInjectingDevice:
        """Wrap *physical node* ``node_id``'s disk in a fault injector.

        Note the key change versus the base cluster: ranks here are
        member node ids, not stripe slots — one injection covers every
        stripe the node serves.
        """
        if not hasattr(self, "membership"):
            # Called from the base constructor (fault_plans kwarg) before
            # membership exists; the elastic API wires faults post-init.
            return super().inject_faults(node_id, plan)
        member = self.membership.members[node_id]
        if isinstance(member.device, FaultInjectingDevice):
            member.device.plan = plan
        else:
            member.device = FaultInjectingDevice(member.device, plan)
        return member.device

    def enable_cache(self, rank: int, capacity_blocks: int) -> None:
        """Per-node *block* caches are unsupported here — migrations
        would need cross-device invalidation.  The λ-keyed *result*
        cache (``cache=CacheOptions(result_cache_bytes=...)``) is safe
        and supported: its keys embed the ownership epoch, so every
        rebalance, failover, and migration fences it automatically."""
        raise NotImplementedError(
            "per-node block caches are not supported on the elastic "
            "cluster (migrations would need cross-device invalidation); "
            "use CacheOptions(result_cache_bytes=...) for the "
            "epoch-fenced result cache instead"
        )

    def fail_node(self, node_id: int, now: float = 0.0) -> None:
        """Kill physical node ``node_id`` (simulated node loss).

        The disk starts raising on every access, the member goes GONE,
        and failover promotes each of its stripes' replicas to primary
        — a metadata flip — then backfills fresh replicas so one more
        failure stays survivable.  Promotion happens here, at
        notification time; a node that dies *silently* is still
        handled per-query by the base recovery machinery until the
        next failover notice.
        """
        member = self.membership.members[node_id]
        if not isinstance(member.device, FaultInjectingDevice):
            member.device = FaultInjectingDevice(member.device, FaultPlan())
        member.device.fail()
        if member.state is not MemberState.GONE:
            self.membership.transition(
                node_id, MemberState.GONE, now=now, reason="failed"
            )
            self._failover(node_id, now)
        self._note("elastic.node_failed", now, node=node_id)

    def heal_node(self, node_id: int) -> None:
        """Bring the *disk* back online.  Membership is not resurrected
        — GONE is terminal; a recovered machine re-enters via
        :meth:`join` under a fresh node id, and its old bytes show up
        as stale copies in ``repro fsck``."""
        member = self.membership.members[node_id]
        if isinstance(member.device, FaultInjectingDevice):
            member.device.heal()

    def join(self, now: float = 0.0) -> int:
        """Add a fresh, empty node; returns its id.  The node starts
        JOINING and begins owning stripes only once the rebalancer
        migrates them in."""
        dev = SimulatedBlockDevice(self.perf.disk)
        node = self.membership.add(
            dev, state=MemberState.JOINING, now=now, reason="scale-out"
        )
        self._note("elastic.join", now, node=node.node_id)
        return node.node_id

    def drain(self, node_id: int, now: float = 0.0) -> None:
        """Schedule ``node_id`` for removal.  It keeps serving every
        stripe it owns; the rebalancer migrates them away, after which
        the controller marks it GONE (bytes left behind become stale
        copies, not corruption)."""
        member = self.membership.members[node_id]
        if member.state is MemberState.GONE:
            return
        if member.state is MemberState.JOINING and not self._holds_data(node_id):
            self.membership.transition(
                node_id, MemberState.GONE, now=now, reason="drained (empty)"
            )
        else:
            if member.state is MemberState.JOINING:
                self.membership.transition(
                    node_id, MemberState.SYNCING, now=now, reason="drain requested"
                )
            self.membership.transition(
                node_id, MemberState.DRAINING, now=now, reason="scale-in"
            )
        self._note("elastic.drain", now, node=node_id)

    def _holds_data(self, node_id: int) -> bool:
        if self.ownership.stripes_of(node_id):
            return True
        return any(
            loc is not None and loc[0] == node_id
            for loc in self._replica.values()
        )

    # -- data movement ---------------------------------------------------

    def _stripe_nbytes(self, s: int) -> int:
        ds = self.datasets[s]
        if ds.checksums is None:
            raise ValueError(
                "elastic migration needs checksummed layouts "
                "(build with checksum=True)"
            )
        return len(ds.checksums.record_crcs) * ds.codec.record_size

    def _read_copy(self, s: int, node_id: int, offset: int):
        """Read stripe ``s``'s full span from one copy, metered as
        migration I/O; returns ``(buf, modeled_seconds)``."""
        dev = self._member_device(node_id)
        nbytes = self._stripe_nbytes(s)
        before = dev.stats
        buf = dev.read(offset, nbytes)
        secs = (dev.stats - before).read_time(dev.cost_model)
        self._migration_read_seconds += secs
        return buf, secs

    def _verify_stripe(self, s: int, buf, where: str) -> None:
        ds = self.datasets[s]
        ok = ds.checksums.verify_span(0, buf, ds.codec.record_size)
        if ok is None:
            ok = len(ds.checksums.find_corrupt(0, buf, ds.codec.record_size)) == 0
        if not ok:
            raise BrickCorruptionError(
                f"stripe {s} failed CRC verification {where}"
            )

    def _write_copy(self, s: int, node_id: int, buf):
        """Append stripe ``s``'s bytes to a node's disk, CRC-verified
        before the write and again on read-back (PR 5's repair
        contract); returns ``(offset, modeled_seconds)``."""
        self._verify_stripe(s, buf, "reading the source copy")
        dev = self._member_device(node_id)
        before = dev.stats
        offset = dev.allocate(len(buf))
        dev.write(offset, buf)
        back = dev.read(offset, len(buf))
        self._verify_stripe(s, back, f"on read-back from node {node_id}")
        delta = dev.stats - before
        secs = (
            dev.cost_model.time_for(delta.blocks_written, 1)
            + delta.read_time(dev.cost_model)
        )
        self._migration_read_seconds += delta.read_time(dev.cost_model)
        return offset, secs

    def _abort_migration(
        self, s: int, src_node: int, dst_node: int, now: float, reason: str,
    ) -> None:
        """Record a network-forced migration abort (no ownership flip,
        no destination write; the move stays in the rebalancer's plan)."""
        self.migrations_aborted.append({
            "time": now, "stripe": s, "src_node": src_node,
            "dst_node": dst_node, "reason": reason,
        })
        if self.elastic_metrics is not None:
            self.elastic_metrics.inc("chaos.migration.aborted")
        self.elastic_tracer.instant(
            "chaos.migration.aborted", track="elastic", category="chaos",
            args={"stripe": s, "src": src_node, "dst": dst_node,
                  "reason": reason},
        )

    def _record_migration(self, rec: MigrationRecord) -> MigrationRecord:
        self.migrations.append(rec)
        self.migration_bytes += rec.nbytes
        self.migration_seconds += rec.modeled_seconds
        if self.elastic_metrics is not None:
            self.elastic_metrics.inc("elastic.migrations")
            self.elastic_metrics.inc(f"elastic.migrations.{rec.kind}")
            self.elastic_metrics.inc("elastic.migration.bytes", rec.nbytes)
            self.elastic_metrics.inc(
                "elastic.migration.seconds", rec.modeled_seconds
            )
        self.elastic_tracer.instant(
            "elastic.migrate", track="elastic", category="elastic",
            args={
                "kind": rec.kind, "stripe": rec.stripe,
                "src": rec.src_node, "dst": rec.dst_node,
                "bytes": rec.nbytes, "reason": rec.reason,
            },
        )
        return rec

    def migrate_primary(
        self, s: int, dst_node: int, now: float = 0.0,
        reason: str = "rebalance",
    ) -> "MigrationRecord | None":
        """Move stripe ``s``'s authoritative copy to ``dst_node``.

        Reads keep flowing from the old owner (or the replica) the
        whole time: the ownership flip is the *last* step, after the
        new copy is written and CRC-verified in place, so any query
        fenced to the pre-move epoch still completes against intact
        bytes.  The old copy is recorded stale, never overwritten.
        """
        owner = self.ownership.owner(s)
        if owner == dst_node:
            return None
        dst = self.membership.members[dst_node]
        if dst.state not in TARGET_STATES:
            raise ValueError(
                f"cannot migrate stripe {s} to node {dst_node} "
                f"in state {dst.state}"
            )
        if self.net is not None and self.net.blocked(owner, dst_node, now=now):
            # Split-brain between source and destination: abort before
            # touching a disk.  Ownership is untouched; the rebalancer
            # re-plans the move once the partition heals.
            self._abort_migration(s, owner, dst_node, now, "partition")
            return None
        try:
            src_node, buf, read_secs = self._read_best_copy(s)
        except StorageFault as exc:
            # Every readable copy is faulted or corrupt right now: abort
            # rather than flip ownership onto bytes nobody can verify.
            # The I/O already spent stays charged and the move stays in
            # the rebalancer's plan for when the burst passes.
            self._abort_migration(
                s, owner, dst_node, now, f"storage: {type(exc).__name__}"
            )
            return None
        if self.net is not None:
            # The stripe's bytes cross the wire src -> dst before the
            # destination can write them.  A transfer lost past the
            # retry budget (or a partition racing the read) aborts the
            # move cleanly: the read I/O is already charged — chaos is
            # paid for, not free — but nothing was written and the
            # ownership map never saw the attempt, so the unverified
            # copy can never become authoritative.
            d = self.net.send(
                src_node, dst_node, now=now, tracer=self.elastic_tracer,
                track="elastic", what=f"stripe-{s}",
            )
            if not d.delivered:
                self._abort_migration(
                    s, src_node, dst_node, now,
                    "partition" if d.blocked else "transfer lost",
                )
                return None
            read_secs += d.delay
            self._migration_read_seconds += d.delay
        try:
            offset, write_secs = self._write_copy(s, dst_node, buf)
        except StorageFault as exc:
            # Destination write or read-back verification failed: the
            # ownership map never saw the attempt, so the unverified
            # copy can never become authoritative.
            self._abort_migration(
                s, src_node, dst_node, now, f"storage: {type(exc).__name__}"
            )
            return None

        old_offset = self._primary_offset[s]
        if self.membership.members[owner].serving:
            self.membership.members[owner].stale.append(StaleCopy(
                stripe=s, node_id=owner, offset=old_offset,
                nbytes=len(buf), reason=f"primary moved to node {dst_node}",
            ))
        self._primary_offset[s] = offset
        epoch = self.ownership.assign(s, dst_node, reason=reason)
        if dst.state is MemberState.JOINING:
            self.membership.transition(
                dst_node, MemberState.SYNCING, now=now, reason="first stripe"
            )
        rec = self._record_migration(MigrationRecord(
            time=now, kind="primary", stripe=s, src_node=src_node,
            dst_node=dst_node, nbytes=len(buf),
            modeled_seconds=read_secs + write_secs, epoch=epoch,
            reason=reason,
        ))
        # A replica collocated with the new primary protects nothing:
        # retire it (stale) and re-place on another node.
        loc = self._replica.get(s)
        if loc is not None and loc[0] == dst_node:
            self._replica[s] = None
            self.membership.members[dst_node].stale.append(StaleCopy(
                stripe=s, node_id=dst_node, offset=loc[1], nbytes=len(buf),
                reason="replica collocated with migrated primary",
            ))
            self.place_replica(s, now=now, reason="re-place after primary move")
        return rec

    def _read_best_copy(self, s: int):
        """Bytes of stripe ``s`` from the primary, falling back to the
        replica when the primary's disk is unreadable — or when its
        bytes fail CRC verification (silent corruption must never be
        the copy that migration propagates)."""
        owner = self.ownership.owner(s)
        try:
            buf, secs = self._read_copy(s, owner, self._primary_offset[s])
            self._verify_stripe(s, buf, "reading the primary copy")
            return owner, buf, secs
        except StorageFault:
            loc = self._live_replica(s)
            if loc is None:
                raise
            buf, secs = self._read_copy(s, loc[0], loc[1])
            self._verify_stripe(s, buf, "reading the replica copy")
            return loc[0], buf, secs

    def place_replica(
        self, s: int, now: float = 0.0, reason: str = "backfill",
        exclude: "frozenset[int] | set[int]" = frozenset(),
    ) -> "MigrationRecord | None":
        """Write a fresh replica of stripe ``s`` on the best candidate
        node (not the owner, fewest replicas first, primaries-holding
        nodes preferred so replica-served work has a slot to charge)."""
        owner = self.ownership.owner(s)
        candidates = [
            n for n in self.membership.target_ids()
            if n != owner and n not in exclude
        ]
        if not candidates or not self.membership.members[owner].serving:
            return None
        rep_counts: "dict[int, int]" = {n: 0 for n in candidates}
        for loc in self._replica.values():
            if loc is not None and loc[0] in rep_counts:
                rep_counts[loc[0]] += 1
        owned = self.ownership.counts()
        candidates.sort(
            key=lambda n: (0 if owned.get(n, 0) else 1, rep_counts[n], n)
        )
        dst_node = candidates[0]
        try:
            src_node, buf, read_secs = self._read_best_copy(s)
            offset, write_secs = self._write_copy(s, dst_node, buf)
        except StorageFault as exc:
            # No verifiable source (or the destination faulted): skip
            # the placement — replication is re-attempted by later
            # failover/rebalance passes rather than propagating a
            # mid-rebalance crash.
            self._abort_migration(
                s, owner, dst_node, now, f"storage: {type(exc).__name__}"
            )
            return None
        self._replica[s] = (dst_node, offset)
        return self._record_migration(MigrationRecord(
            time=now, kind="replica", stripe=s, src_node=src_node,
            dst_node=dst_node, nbytes=len(buf),
            modeled_seconds=read_secs + write_secs,
            epoch=self.ownership.epoch, reason=reason,
        ))

    def move_replica(
        self, s: int, now: float = 0.0, reason: str = "drain",
    ) -> "MigrationRecord | None":
        """Re-host stripe ``s``'s replica (e.g. off a draining node).
        The new copy is placed first; only then is the old one retired
        as stale, so the stripe never has fewer live copies than now."""
        old = self._replica.get(s)
        if old is None:
            return self.place_replica(s, now=now, reason=reason)
        self._replica[s] = None
        rec = self.place_replica(s, now=now, reason=reason, exclude={old[0]})
        if rec is None:
            self._replica[s] = old
            return None
        self.membership.members[old[0]].stale.append(StaleCopy(
            stripe=s, node_id=old[0], offset=old[1],
            nbytes=self._stripe_nbytes(s), reason=reason,
        ))
        return rec

    # -- failover --------------------------------------------------------

    def _failover(self, node_id: int, now: float = 0.0) -> "list[int]":
        """Recover from the loss of ``node_id``: promote replicas of its
        stripes to primary (metadata only — the bytes are already on
        the replica host) and backfill fresh replicas so the
        replication factor is re-established.  Backfill I/O is *not*
        paced: durability beats the migration budget."""
        promoted: "list[int]" = []
        for s in self.ownership.stripes_of(node_id):
            loc = self._live_replica(s)
            if loc is None:
                if s not in self.lost_stripes:
                    self.lost_stripes.append(s)
                continue
            self._primary_offset[s] = loc[1]
            self.ownership.assign(s, loc[0], reason="failover-promotion")
            self._replica[s] = None
            promoted.append(s)
        # Replicas that lived on the dead node are gone.
        for s, loc in self._replica.items():
            if loc is not None and loc[0] == node_id:
                self._replica[s] = None
        # Re-establish r=2 wherever a live primary has no replica.
        for s in range(self.p):
            if self._replica.get(s) is None and s not in self.lost_stripes:
                if self.membership.members[self.ownership.owner(s)].serving:
                    self.place_replica(s, now=now, reason="failover-backfill")
        if self.elastic_metrics is not None:
            self.elastic_metrics.inc("elastic.failovers")
            self.elastic_metrics.inc("elastic.promotions", len(promoted))
        self.elastic_tracer.instant(
            "elastic.failover", track="elastic", category="elastic",
            args={"node": node_id, "promoted": promoted,
                  "lost": list(self.lost_stripes)},
        )
        return promoted

    # -- accounting ------------------------------------------------------

    def serving_io_seconds(self) -> float:
        """Cumulative modeled read seconds spent on *queries* across
        every member disk — migration traffic metered through
        :meth:`_read_copy` / :meth:`_write_copy` is subtracted out.
        The rebalancer paces itself against this figure."""
        total = 0.0
        for member in self.membership.members.values():
            dev = member.device
            total += dev.stats.read_time(dev.cost_model)
        return max(0.0, total - self._migration_read_seconds)

    def replica_locations(self) -> "dict[int, tuple[int, int] | None]":
        """stripe -> (node, offset) of its replica (None while pending)."""
        return dict(self._replica)

    def primary_location(self, s: int) -> "tuple[int, int]":
        return self.ownership.owner(s), self._primary_offset[s]

    def publish_elastic_metrics(self, registry=None) -> None:
        """Write membership / ownership gauges into the registry.

        Gone nodes have their ``elastic.node.<id>.*`` gauges *removed*
        (see ``MetricsRegistry.remove_prefix``) rather than frozen at
        their last value.
        """
        reg = registry if registry is not None else self.elastic_metrics
        if reg is None:
            return
        reg.set_gauge("elastic.epoch", self.ownership.epoch)
        reg.set_gauge("elastic.stripes", self.p)
        reg.set_gauge("elastic.stripes.lost", len(self.lost_stripes))
        for state, count in sorted(self.membership.counts().items()):
            reg.set_gauge(f"elastic.nodes.{state}", count)
        for state in MEMBER_STATE_CODES:
            if str(state) not in self.membership.counts():
                reg.set_gauge(f"elastic.nodes.{state}", 0)
        counts = self.ownership.counts()
        rep_counts: "dict[int, int]" = {}
        for loc in self._replica.values():
            if loc is not None:
                rep_counts[loc[0]] = rep_counts.get(loc[0], 0) + 1
        for nid, member in sorted(self.membership.members.items()):
            if member.state is MemberState.GONE:
                reg.remove_prefix(f"elastic.node.{nid}")
                continue
            reg.set_gauge(f"elastic.node.{nid}.state_code",
                          MEMBER_STATE_CODES[member.state])
            reg.set_gauge(f"elastic.node.{nid}.stripes", counts.get(nid, 0))
            reg.set_gauge(f"elastic.node.{nid}.replicas",
                          rep_counts.get(nid, 0))
            reg.set_gauge(f"elastic.node.{nid}.stale_copies",
                          len(member.stale))

    def _note(self, name: str, now: float, **args) -> None:
        if self.elastic_metrics is not None:
            self.elastic_metrics.inc(name)
        self.elastic_tracer.instant(
            name, track="elastic", category="elastic",
            args=dict(args, time=now),
        )
