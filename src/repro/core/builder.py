"""Preprocessing pipeline (paper Section 4 and Section 7 preamble).

One pass over the input volume produces:

1. the metacell decomposition with per-metacell ``(vmin, vmax)``;
2. culling of constant metacells (the ~50% disk saving on the
   Richtmyer–Meshkov data);
3. the compact interval tree over the surviving intervals;
4. the on-disk brick layout — metacell records written in tree layout
   order to one device (serial) or striped round-robin across ``p``
   devices (parallel, Section 5.1).

The output is an :class:`IndexedDataset`: everything a query needs — the
in-memory index, the device, the record codec, and the grid metadata that
maps metacell ids back to world coordinates at triangulation time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.compact_tree import CompactIntervalTree
from repro.core.intervals import IntervalSet
from repro.core.striping import StripedNodeLayout, stripe_brick_records
from repro.grid.metacell import MetacellPartition, partition_metacells
from repro.grid.volume import Volume
from repro.io.blockdevice import SimulatedBlockDevice
from repro.io.cost_model import IOCostModel
from repro.io.layout import BrickChecksums, MetacellCodec, compute_crc_tables

#: Records serialized per chunk during the layout write, bounding resident
#: memory during preprocessing of large volumes.
WRITE_CHUNK_RECORDS = 8192


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
    """Grid metadata of ``volume`` (a :class:`Volume` or a slab source)."""
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
    ``tree`` is the global tree; its stripes share ``meta`` and ``report``."""

    partition: MetacellPartition
    tree: CompactIntervalTree
    codec: MetacellCodec
    meta: DatasetMeta
    report: PreprocessReport

    def dataset(self, tree, device, base_offset, checksums, **placement) -> IndexedDataset:
        """The dataset of ``tree`` (global or one stripe) as laid out on ``device``."""
        return IndexedDataset(
            tree=tree, device=device, codec=self.codec, base_offset=base_offset,
            meta=self.meta, report=self.report, checksums=checksums, **placement,
        )


def plan_layout(volume: Volume, metacell_shape=(9, 9, 9), drop_constant=True) -> LayoutPlan:
    """Partition → intervals → compact tree → codec: the one plan step of
    the in-memory, striped and journaled builders."""
    partition = partition_metacells(volume, metacell_shape)
    intervals = IntervalSet.from_partition(partition, drop_constant=drop_constant)
    tree = CompactIntervalTree.build(intervals)
    codec = MetacellCodec(partition.metacell_shape, volume.dtype)
    return LayoutPlan(
        partition, tree, codec,
        _make_meta(volume, partition.grid_shape, partition.metacell_shape),
        _make_report(partition.n_metacells, volume.nbytes, intervals, tree, codec),
    )


def encode_group(
    codec: MetacellCodec,
    partition: MetacellPartition,
    ids: np.ndarray,
    vmins: np.ndarray,
    crcs: np.ndarray,
    cum: np.ndarray,
    s: int,
    e: int,
) -> bytes:
    """Gather, encode and checksum layout records ``[s, e)``.

    The one group routine of every layout write: returns the bytes to
    write and fills ``crcs[s:e]`` and ``cum[s + 1 : e + 1]`` (continuing
    the stream CRC from ``cum[s]``) from exactly those bytes, so the
    checksum tables are the layout's ground truth from the moment they
    exist.
    """
    values = partition.extract_values(ids[s:e])
    blob = codec.encode(ids[s:e], vmins[s:e], values)
    crcs[s:e], group_cum = compute_crc_tables(blob, codec.record_size, int(cum[s]))
    cum[s + 1 : e + 1] = group_cum[1:]
    return blob


def _write_records(
    device, plan: LayoutPlan, tree: CompactIntervalTree, checksum: bool = True
) -> "tuple[int, BrickChecksums | None]":
    """Serialize ``tree``'s records of ``plan``, in layout order, to ``device``.

    Returns ``(base_offset, checksums)``: the CRC32 of every record, the
    cumulative stream CRC table that makes span verification one call,
    and the per-brick rollup (``None`` with ``checksum=False``).
    """
    codec, partition = plan.codec, plan.partition
    ids, vmins = tree.record_ids, tree.record_vmins
    n = len(ids)
    base = device.allocate(n * codec.record_size)
    crcs = np.empty(n, dtype=np.uint32)
    cum = np.zeros(n + 1, dtype=np.uint32)
    for s in range(0, n, WRITE_CHUNK_RECORDS):
        e = min(s + WRITE_CHUNK_RECORDS, n)
        blob = encode_group(codec, partition, ids, vmins, crcs, cum, s, e)
        device.write(base + s * codec.record_size, blob)
    if not checksum:
        return base, None
    return base, BrickChecksums.from_record_crcs(
        crcs, tree.brick_start, tree.brick_count, cum_crcs=cum
    )


def build_indexed_dataset(
    volume: Volume,
    metacell_shape: tuple[int, int, int] = (9, 9, 9),
    device=None,
    cost_model: IOCostModel | None = None,
    drop_constant: bool = True,
    checksum: bool = True,
) -> IndexedDataset:
    """Preprocess a volume for serial (single-disk) querying.

    ``checksum=True`` (default) records CRC32 integrity tables alongside
    the layout; pass False to reproduce the paper's bare format.
    """
    plan = plan_layout(volume, metacell_shape, drop_constant)
    if device is None:
        device = SimulatedBlockDevice(cost_model or IOCostModel())
    base, checksums = _write_records(device, plan, plan.tree, checksum)
    return plan.dataset(plan.tree, device, base, checksums)


def build_striped_datasets(
    volume: Volume,
    p: int,
    metacell_shape: tuple[int, int, int] = (9, 9, 9),
    devices=None,
    cost_model: IOCostModel | None = None,
    drop_constant: bool = True,
    stagger: bool = True,
    checksum: bool = True,
    replication: int = 1,
) -> "list[IndexedDataset]":
    """Preprocess a volume striped across the local disks of ``p`` nodes.

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
