"""Preprocessing pipeline (paper Section 4 and Section 7 preamble).

The input is a *slab source*: a volume delivered as slabs along axis 0,
each whole metacell layers plus the boundary plane it shares with the
next.  An in-memory :class:`~repro.grid.volume.Volume` is the trivial
source, one slab; :class:`FunctionSlabSource` evaluates one metacell
layer at a time, so no full-volume array ever exists.  Two passes over
the slabs produce:

1. (pass 1, :func:`plan_layout`) the per-metacell ``(vmin, vmax)``, the
   culling of constant metacells (the ~50% disk saving on the
   Richtmyer–Meshkov data), the compact interval tree over the
   surviving intervals and, for a multi-slab source, the running CRC of
   its planes slab by slab;
2. (pass 2, :meth:`LayoutPlan.write_groups`) the on-disk brick layout —
   each slab's records encoded and written at their final offsets in
   tree layout order, on one device (serial) or striped round-robin
   across ``p`` devices (parallel, Section 5.1).

The output is an :class:`IndexedDataset`: everything a query needs — the
in-memory index, the device, the record codec, and the grid metadata that
maps metacell ids back to world coordinates at triangulation time.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Callable, Iterator, Protocol

import numpy as np

from repro.core.compact_tree import CompactIntervalTree
from repro.core.intervals import IntervalSet
from repro.core.striping import StripedNodeLayout, stripe_brick_records
from repro.grid.metacell import MetacellPartition, metacell_grid_shape, partition_metacells
from repro.grid.volume import Volume
from repro.io.blockdevice import SimulatedBlockDevice
from repro.io.cost_model import IOCostModel
from repro.io.layout import BrickChecksums, MetacellCodec, compute_crc_tables

#: Records serialized per chunk during the layout write, bounding resident
#: memory during preprocessing of large volumes.
WRITE_CHUNK_RECORDS = 8192

#: Bytes read back per call when a record group written out of order (a
#: multi-slab source) is checksummed, so the read-back stays far below
#: one slab whatever the group size.
READBACK_BYTES = 1 << 20


class SlabSource(Protocol):
    """A scalar volume that preprocessing reads as slabs along axis 0."""

    shape: tuple[int, int, int]
    dtype: np.dtype
    nbytes: int
    spacing: tuple[float, float, float]
    origin: tuple[float, float, float]
    name: str

    def slabs(self, metacell_shape) -> "Iterator[tuple[int, Volume]]":
        """Yield ``(x0, slab)``: planes ``[x0, x0 + len(slab))``, whole
        metacell layers plus the shared boundary plane (the last slab
        may end at the volume's last plane), in order, once per call."""
        ...


@dataclass
class FunctionSlabSource:
    """A volume evaluated slab by slab: ``fn(x0, x1)`` returns planes
    ``[x0, x1)`` along axis 0, shape ``(x1 - x0, ny, nz)``.

    Each slab is one metacell layer — ``m - 1`` planes plus the boundary
    plane it shares with the next — so the full volume never
    materializes: this is how a simulation output larger than memory (a
    memory-mapped file, or the RM generator) streams into preprocessing.
    """

    fn: Callable[[int, int], np.ndarray]
    shape: tuple[int, int, int]
    dtype: np.dtype
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0)
    name: str = "streamed"

    def __post_init__(self) -> None:
        self.shape = tuple(int(s) for s in self.shape)
        self.dtype = np.dtype(self.dtype)

    @property
    def nbytes(self) -> int:
        return int(np.prod(self.shape)) * self.dtype.itemsize

    def slabs(self, metacell_shape):
        nx, ny, nz = self.shape
        step = metacell_shape[0] - 1
        for x0 in range(0, nx - 1, step):
            x1 = min(x0 + step + 1, nx)
            data = np.asarray(self.fn(x0, x1))
            if data.shape != (x1 - x0, ny, nz) or data.dtype != self.dtype:
                raise ValueError(
                    f"slab fn returned shape {data.shape} {data.dtype}, expected "
                    f"{(x1 - x0, ny, nz)} {self.dtype}"
                )
            yield x0, Volume(data, self.spacing, self.origin, self.name)


def _slab_partitions(source, metacell_shape):
    """Partition each slab of ``source`` in turn.

    Yields ``(id0, partition, fresh)``: the slab's first metacell id, its
    metacell partition and its planes not shared with the previous slab.
    Slabs run along axis 0, the outermost of the C-order metacell ids, so
    a slab of whole metacell layers covers the one id range ``[id0, id0 +
    partition.n_metacells)`` and the running CRC of the ``fresh`` planes
    is the CRC of the whole C-order volume.
    """
    nx = source.shape[0]
    step = metacell_shape[0] - 1
    _, gy, gz = metacell_grid_shape(source.shape, metacell_shape)
    end = 0
    for x0, slab in source.slabs(metacell_shape):
        stop = x0 + slab.shape[0]
        if (x0 != max(end - 1, 0) or x0 % step or slab.shape[1:] != source.shape[1:]
                or not (stop == nx or (stop < nx and (stop - 1) % step == 0))):
            raise ValueError(
                f"slab of planes [{x0}, {stop}) does not continue the metacell "
                f"layers of a {source.shape} volume at plane {max(end - 1, 0)}"
            )
        yield x0 // step * gy * gz, partition_metacells(slab, metacell_shape), slab.data[end - x0 :]
        end = stop
    if end != nx:
        raise ValueError(f"slabs of a {source.shape} volume stop at plane {end}")


@dataclass(frozen=True)
class DatasetMeta:
    """Grid metadata carried alongside the on-disk records.

    Lets the extraction stage place each metacell's triangles in world
    coordinates knowing only the metacell id from its record.
    """

    grid_shape: tuple[int, int, int]
    metacell_shape: tuple[int, int, int]
    volume_shape: tuple[int, int, int]
    spacing: tuple[float, float, float]
    origin: tuple[float, float, float]
    name: str

    def id_to_ijk(self, ids: np.ndarray) -> np.ndarray:
        """Metacell ids -> metacell-grid coordinates, shape (n, 3)."""
        ids = np.asarray(ids, dtype=np.int64)
        gx, gy, gz = self.grid_shape
        i = ids // (gy * gz)
        j = (ids // gz) % gy
        k = ids % gz
        return np.stack([i, j, k], axis=1)

    def vertex_origins(self, ids: np.ndarray) -> np.ndarray:
        """Vertex-index origin of each metacell in the (padded) volume."""
        steps = np.asarray([m - 1 for m in self.metacell_shape], dtype=np.int64)
        return self.id_to_ijk(ids) * steps

    @property
    def n_metacells(self) -> int:
        return int(np.prod(self.grid_shape))


@dataclass
class PreprocessReport:
    """Statistics of one preprocessing run (the paper's Section 7 numbers)."""

    n_metacells_total: int
    n_metacells_culled: int
    n_metacells_stored: int
    original_bytes: int
    stored_bytes: int
    index_bytes: int
    n_distinct_endpoints: int
    n_bricks: int
    tree_height: int

    @property
    def space_saving(self) -> float:
        """Fraction of the raw volume size saved by culling, in [0, 1]."""
        if self.original_bytes == 0:
            return 0.0
        return 1.0 - self.stored_bytes / self.original_bytes


@dataclass
class IndexedDataset:
    """A preprocessed dataset ready for isosurface queries.

    Attributes
    ----------
    tree:
        The (possibly processor-local) compact interval tree.
    device:
        Block device holding the brick layout.
    codec:
        Record codec (defines record size and decoding).
    base_offset:
        Byte offset of record position 0 on the device.
    meta:
        Grid metadata for world placement.
    report:
        Preprocessing statistics (shared across striped nodes).
    node_rank, n_cluster_nodes:
        Placement of this layout in a striped cluster (0/1 for serial).
    checksums:
        Per-record/per-brick CRC32 tables (``None`` for legacy layouts
        written without them); queries verify against these.
    replica_stores:
        ``source_rank -> base_offset`` of replica copies of *other*
        nodes' layouts held on this node's device (chained declustering;
        empty without replication).
    source_dir:
        Directory this dataset was loaded from / persisted to (``None``
        for purely in-memory builds).  Multiprocessing backends ship
        this path to workers, which reopen the store with
        :func:`repro.core.persistence.load_dataset` instead of
        unpickling the whole dataset.
    """

    tree: CompactIntervalTree
    device: object
    codec: MetacellCodec
    base_offset: int
    meta: DatasetMeta
    report: PreprocessReport
    node_rank: int = 0
    n_cluster_nodes: int = 1
    checksums: "BrickChecksums | None" = None
    replica_stores: "dict[int, int]" = field(default_factory=dict)
    source_dir: "str | None" = None

    def record_offset(self, position: int) -> int:
        """Byte offset of a record position (the index entry 'pointer')."""
        return self.base_offset + position * self.codec.record_size

    @property
    def n_records(self) -> int:
        return self.tree.n_records


def _make_meta(volume, grid_shape, metacell_shape) -> DatasetMeta:
    """Grid metadata of ``volume``, any slab source."""
    return DatasetMeta(
        grid_shape=tuple(grid_shape),
        metacell_shape=tuple(metacell_shape),
        volume_shape=volume.shape,
        spacing=volume.spacing,
        origin=volume.origin,
        name=volume.name,
    )


def _make_report(
    n_metacells: int,
    original_bytes: int,
    intervals: IntervalSet,
    tree: CompactIntervalTree,
    codec: MetacellCodec,
) -> PreprocessReport:
    stored = len(intervals)
    return PreprocessReport(
        n_metacells_total=n_metacells,
        n_metacells_culled=n_metacells - stored,
        n_metacells_stored=stored,
        original_bytes=original_bytes,
        stored_bytes=stored * codec.record_size,
        index_bytes=tree.index_size_bytes(),
        n_distinct_endpoints=len(tree.endpoints),
        n_bricks=tree.n_bricks,
        tree_height=tree.height(),
    )


@dataclass(frozen=True)
class LayoutPlan:
    """What a build decides before it writes a byte: pure, deterministic
    compute that a resumed journaled build reruns to the same record order.
    ``tree`` is the global tree; its stripes share ``meta`` and ``report``.
    ``partition`` is kept only for a one-slab source (an in-memory
    volume); pass 2 re-streams any other ``source``, and ``slab_crcs[k]``
    is then the running CRC of its planes through slab ``k`` (empty for a
    one-slab source)."""

    source: SlabSource
    partition: "MetacellPartition | None"
    tree: CompactIntervalTree
    codec: MetacellCodec
    meta: DatasetMeta
    report: PreprocessReport
    slab_crcs: "tuple[int, ...]"

    @property
    def volume_crc(self) -> int:
        """CRC32 of the whole C-order volume, the fingerprint's: from pass 1
        for a multi-slab source, hashed on demand for a one-slab one (an
        in-memory build never needs it)."""
        if self.slab_crcs:
            return self.slab_crcs[-1]
        _, slab = next(iter(self.source.slabs(self.codec.metacell_shape)))
        # In place through the buffer protocol: ``tobytes()`` would copy
        # the whole volume (7.5 GB per time step at paper scale).
        return zlib.crc32(np.ascontiguousarray(slab.data))

    def dataset(self, tree, device, base_offset, checksums, **placement) -> IndexedDataset:
        """The dataset of ``tree`` (global or one stripe) as laid out on ``device``."""
        return IndexedDataset(
            tree=tree, device=device, codec=self.codec, base_offset=base_offset,
            meta=self.meta, report=self.report, checksums=checksums, **placement,
        )

    def slab_runs(self, tree, group: int, start: int = 0):
        """Pass 2: re-stream the slabs and encode ``tree``'s records.

        Yields, per slab, an iterator of ``(position, bytes)``: each run
        of consecutive layout positions ``>= start`` whose records lie in
        the slab, cut at every multiple of ``group``.  The one slab of an
        in-memory volume is one run per group, in layout order.  A
        multi-slab source must hand back the planes pass 1 planned: each
        re-streamed slab's running CRC is checked against
        :attr:`slab_crcs` before any of its records is encoded, and a
        mismatch raises ``ValueError``.
        """
        ids = tree.record_ids
        by_id = np.argsort(ids, kind="stable")
        sorted_ids = ids[by_id]
        if self.partition is not None:
            slabs = [(0, self.partition, None)]
        else:
            slabs = _slab_partitions(self.source, self.codec.metacell_shape)
        crc = 0
        for k, (id0, part, fresh) in enumerate(slabs):
            if fresh is not None:
                crc = zlib.crc32(np.ascontiguousarray(fresh), crc)
                if k >= len(self.slab_crcs) or crc != self.slab_crcs[k]:
                    raise ValueError(
                        f"slab {k} of source {self.source.name!r} changed between "
                        f"the plan pass and the write pass"
                    )
            lo, hi = np.searchsorted(sorted_ids, (id0, id0 + part.n_metacells))
            positions = np.sort(by_id[lo:hi])
            yield _encode_runs(self.codec, part, id0, tree, positions[positions >= start], group)

    def write_groups(self, tree, group, start, write, peek, crcs, cum, crash=None):
        """Pass 2's one record loop: ``write(position, bytes)`` each run
        of :meth:`slab_runs`, slab by slab (``crash`` gets a
        ``slab_boundary:<k>`` point between slabs).

        Yields ``(g, e)`` once group ``g`` and every group before it are
        written — records ``[0, e)`` — with ``crcs[:e]`` and
        ``cum[:e + 1]`` filled.  A group written as one run (every group
        of a one-slab source) is checksummed from that run's bytes; one
        assembled from several slabs' runs is read back through
        ``peek(offset, nbytes)``, :data:`READBACK_BYTES` at a time.
        """
        rec, n = self.codec.record_size, tree.n_records
        starts = np.arange(0, n, group)
        ends = np.minimum(starts + group, n)
        todo = np.maximum(ends - np.maximum(starts, start), 0)  # records unwritten
        g, done = int(np.searchsorted(ends, start, side="right")), start
        step = max(1, READBACK_BYTES // rec)
        for k, runs in enumerate(self.slab_runs(tree, group, start)):
            if k and crash is not None:
                crash.point(f"slab_boundary:{k}")
            for s, blob in runs:
                write(s, blob)
                todo[s // group] -= len(blob) // rec
                while g < len(ends) and todo[g] == 0:
                    e = int(ends[g])
                    whole = s == done and len(blob) == (e - done) * rec
                    for a in range(done, e, e - done if whole else step):
                        b = e if whole else min(a + step, e)
                        chunk = blob if whole else peek(a * rec, (b - a) * rec)
                        crcs[a:b], cum[a : b + 1] = compute_crc_tables(chunk, rec, int(cum[a]))
                    done = e
                    yield g, e
                    g += 1


def plan_layout(source, metacell_shape=(9, 9, 9), drop_constant=True) -> LayoutPlan:
    """Pass 1, the one plan step of the in-memory, striped and journaled
    builders: each slab of ``source`` is partitioned in turn into the
    global per-metacell extrema (and, for a multi-slab source, the
    running volume CRC); then intervals → compact tree → codec."""
    metacell_shape = tuple(int(m) for m in metacell_shape)
    grid = metacell_grid_shape(source.shape, metacell_shape)
    vmins, vmaxs, crcs, first = [], [], [], None
    for k, (_id0, part, fresh) in enumerate(_slab_partitions(source, metacell_shape)):
        if k == 1:  # a streamed source: pass 2 checks every slab's CRC
            crcs.append(zlib.crc32(np.ascontiguousarray(first)))
        if k:
            crcs.append(zlib.crc32(np.ascontiguousarray(fresh), crcs[-1]))
        first = fresh if k == 0 else None
        vmins.append(part.vmin)
        vmaxs.append(part.vmax)
    one_slab = len(vmins) == 1
    vmin, vmax = (v[0] if one_slab else np.concatenate(v) for v in (vmins, vmaxs))
    keep = vmin != vmax if drop_constant else np.ones(len(vmin), dtype=bool)
    ids = np.arange(len(vmin), dtype=np.uint32)
    intervals = IntervalSet(vmin=vmin[keep], vmax=vmax[keep], ids=ids[keep])
    tree = CompactIntervalTree.build(intervals)
    codec = MetacellCodec(metacell_shape, source.dtype)
    return LayoutPlan(
        source, part if one_slab else None, tree, codec,
        _make_meta(source, grid, metacell_shape),
        _make_report(len(vmin), source.nbytes, intervals, tree, codec),
        tuple(crcs),
    )


def encode_group(
    codec: MetacellCodec,
    partition: MetacellPartition,
    id0: int,
    ids: np.ndarray,
    vmins: np.ndarray,
) -> bytes:
    """Gather and encode the records of metacells ``ids`` (global ids,
    with their ``vmins``) from ``partition``, a slab whose first metacell
    id is ``id0``: the one record encoder of every layout write."""
    return codec.encode(ids, vmins, partition.extract_values(ids - id0))


def _encode_runs(codec, partition, id0, tree, positions, group):
    """``(position, bytes)`` of each run of consecutive ``positions``
    (sorted layout positions of records in one slab), cut at every
    multiple of ``group``."""
    if not len(positions):
        return
    cuts = np.flatnonzero((np.diff(positions) != 1) | (positions[1:] % group == 0)) + 1
    for run in np.split(positions, cuts):
        s, e = int(run[0]), int(run[-1]) + 1
        yield s, encode_group(
            codec, partition, id0, tree.record_ids[s:e], tree.record_vmins[s:e]
        )


def _write_records(
    device, plan: LayoutPlan, tree: CompactIntervalTree, checksum: bool = True
) -> "tuple[int, BrickChecksums | None]":
    """Serialize ``tree``'s records of ``plan`` to ``device``, slab by
    slab, each at its layout offset (a multi-slab source reads its
    groups back through ``device.peek``).

    Returns ``(base_offset, checksums)``: the CRC32 of every record, the
    cumulative stream CRC table that makes span verification one call,
    and the per-brick rollup (``None`` with ``checksum=False``).
    """
    rec, n = plan.codec.record_size, tree.n_records
    base = device.allocate(n * rec)
    crcs = np.empty(n, dtype=np.uint32)
    cum = np.zeros(n + 1, dtype=np.uint32)
    for _ in plan.write_groups(
        tree, WRITE_CHUNK_RECORDS, 0,
        lambda s, blob: device.write(base + s * rec, blob),
        lambda offset, nbytes: device.peek(base + offset, nbytes), crcs, cum,
    ):
        pass
    if not checksum:
        return base, None
    return base, BrickChecksums.from_record_crcs(
        crcs, tree.brick_start, tree.brick_count, cum_crcs=cum
    )


def build_indexed_dataset(
    volume: SlabSource,
    metacell_shape: tuple[int, int, int] = (9, 9, 9),
    device=None,
    cost_model: IOCostModel | None = None,
    drop_constant: bool = True,
    checksum: bool = True,
) -> IndexedDataset:
    """Preprocess a volume (any slab source) for serial (single-disk) querying.

    ``checksum=True`` (default) records CRC32 integrity tables alongside
    the layout; pass False to reproduce the paper's bare format.
    """
    plan = plan_layout(volume, metacell_shape, drop_constant)
    if device is None:
        device = SimulatedBlockDevice(cost_model or IOCostModel())
    base, checksums = _write_records(device, plan, plan.tree, checksum)
    return plan.dataset(plan.tree, device, base, checksums)


def build_striped_datasets(
    volume: SlabSource,
    p: int,
    metacell_shape: tuple[int, int, int] = (9, 9, 9),
    devices=None,
    cost_model: IOCostModel | None = None,
    drop_constant: bool = True,
    stagger: bool = True,
    checksum: bool = True,
    replication: int = 1,
) -> "list[IndexedDataset]":
    """Preprocess a volume (any slab source) striped across the local
    disks of ``p`` nodes.  A multi-slab source is streamed once for the
    plan and once per layout written (each node's, each replica).

    Returns one :class:`IndexedDataset` per node.  All nodes share the
    same preprocessing report and grid metadata; each holds its own
    processor-local tree and device, exactly as in the paper's cluster
    where every node's index points at bricks on its own disk.

    ``replication=r`` additionally writes, on each node ``q``, full
    replica copies of the layouts of nodes ``q-1 .. q-(r-1)`` (mod p) —
    chained declustering — so any ``r-1`` node losses leave every brick
    readable somewhere.  The primary layout is byte-identical to the
    unreplicated one: healthy-path queries, balance, and I/O counts are
    unchanged; replicas occupy a separate device region reachable
    through :attr:`IndexedDataset.replica_stores`.
    """
    if p < 1:
        raise ValueError(f"node count must be >= 1, got {p}")
    if not 1 <= replication <= p:
        raise ValueError(
            f"replication must be in [1, p={p}], got {replication}"
        )
    plan = plan_layout(volume, metacell_shape, drop_constant)
    if devices is None:
        devices = [SimulatedBlockDevice(cost_model or IOCostModel()) for _ in range(p)]
    if len(devices) != p:
        raise ValueError(f"expected {p} devices, got {len(devices)}")

    layouts: list[StripedNodeLayout] = stripe_brick_records(plan.tree, p, stagger=stagger)
    out = []
    for lay, device in zip(layouts, devices):
        base, checksums = _write_records(device, plan, lay.tree, checksum)
        out.append(plan.dataset(
            lay.tree, device, base, checksums,
            node_rank=lay.node_rank, n_cluster_nodes=p,
        ))

    # Replica pass, after all primaries: node q hosts copies of the full
    # local layouts of the replication-1 nodes preceding it in rank order.
    for i in range(1, replication):
        for q in range(p):
            src = (q - i) % p
            out[q].replica_stores[src], _ = _write_records(
                devices[q], plan, layouts[src].tree, checksum=False
            )
    return out
