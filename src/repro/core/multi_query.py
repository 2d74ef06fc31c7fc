"""Multi-isovalue batch queries and region-of-interest extraction.

Two exploration-oriented extensions of the single-isovalue query:

* :func:`execute_multi_query` answers several isovalues in one disk
  pass: the per-isovalue plans are unioned into non-overlapping record
  ranges, read once, and each isovalue's active subset is carved out in
  memory.  For nearby isovalues (the interactive slider case) the plans
  overlap heavily and the shared read pays for itself many times over.

* :func:`extract_region_of_interest` restricts an extraction to a
  world-space axis-aligned box.  The span-space layout cannot skip the
  I/O for out-of-box metacells (it orders records by value, not space),
  but the triangulation — the pipeline's bottleneck — only runs on the
  metacells whose bounds intersect the box.

* :func:`execute_sweep_query` serves an *ordered parameter sweep* (the
  λ-slider, a Zipf-hot serving mix, a batch render of nearby frames)
  incrementally: each isovalue's plan is diffed against the ranges
  already materialised by earlier isovalues and only the **delta** is
  read from disk.  Where :func:`execute_multi_query` needs the whole
  batch up front to union the plans, the sweep planner streams — the
  first answer costs one cold query, every later answer costs only its
  delta.  Per-isovalue answers are bit-identical to
  :func:`~repro.core.query.execute_query` either way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.builder import IndexedDataset
from repro.core.compact_tree import BrickPrefixScan, SequentialRun
from repro.core.query import QueryResult, execute_query
from repro.io.blockdevice import IOStats
from repro.io.layout import MetacellRecords
from repro.mc.geometry import TriangleMesh
from repro.mc.backends import triangulate_records


def _merge_ranges(ranges: "list[tuple[int, int]]") -> "list[tuple[int, int]]":
    """Union of half-open integer ranges, sorted and coalesced."""
    if not ranges:
        return []
    ranges = sorted(ranges)
    out = [ranges[0]]
    for a, b in ranges[1:]:
        la, lb = out[-1]
        if a <= lb:
            out[-1] = (la, max(lb, b))
        else:
            out.append((a, b))
    return out


@dataclass
class MultiQueryResult:
    """Shared-read answer for several isovalues."""

    lams: "list[float]"
    results: "dict[float, MetacellRecords]"
    io_stats: IOStats
    n_records_read: int

    def records_for(self, lam: float) -> MetacellRecords:
        """The active records of one of the batched isovalues."""
        return self.results[float(lam)]


def execute_multi_query(dataset: IndexedDataset, lams) -> MultiQueryResult:
    """Answer all ``lams`` with one pass over the union of their plans.

    Equivalent to running :func:`~repro.core.query.execute_query` per
    isovalue (asserted by tests) but reading every shared record once.
    """
    lams = [float(l) for l in lams]
    if not lams:
        raise ValueError("need at least one isovalue")
    tree = dataset.tree
    per_lam_ranges = {lam: tree.active_record_ranges(lam) for lam in lams}
    union = _merge_ranges([r for rs in per_lam_ranges.values() for r in rs])

    codec = dataset.codec
    rec = codec.record_size
    device = dataset.device
    before = device.stats.copy()
    chunks: dict[int, MetacellRecords] = {}
    n_read = 0
    for a, b in union:
        buf = device.read(dataset.record_offset(a), (b - a) * rec)
        chunks[a] = codec.decode(buf)
        n_read += b - a
    io = device.stats.copy() - before

    union_starts = [a for a, _ in union]
    results: dict[float, MetacellRecords] = {}
    for lam in lams:
        picks = []
        for a, b in per_lam_ranges[lam]:
            # Locate the union chunk containing [a, b).
            j = int(np.searchsorted(union_starts, a, side="right")) - 1
            ua, _ = union[j]
            batch = chunks[ua]
            picks.append(
                MetacellRecords(
                    ids=batch.ids[a - ua : b - ua],
                    vmins=batch.vmins[a - ua : b - ua],
                    values=batch.values[a - ua : b - ua],
                )
            )
        results[lam] = (
            MetacellRecords.concat(picks) if picks else MetacellRecords.empty(codec)
        )
    return MultiQueryResult(
        lams=lams, results=results, io_stats=io, n_records_read=n_read
    )


def _subtract_ranges(
    ranges: "list[tuple[int, int]]", coverage: "list[tuple[int, int]]"
) -> "list[tuple[int, int]]":
    """Parts of ``ranges`` not covered by the (merged, sorted) ``coverage``."""
    out: "list[tuple[int, int]]" = []
    starts = [a for a, _ in coverage]
    for a, b in ranges:
        pos = a
        # First coverage interval that could overlap [a, b).
        j = max(0, int(np.searchsorted(starts, a, side="right")) - 1)
        while pos < b and j < len(coverage):
            ca, cb = coverage[j]
            if cb <= pos:
                j += 1
                continue
            if ca >= b:
                break
            if ca > pos:
                out.append((pos, min(ca, b)))
            pos = max(pos, cb)
            j += 1
        if pos < b:
            out.append((pos, b))
    return out


@dataclass
class SweepStep:
    """One isovalue's answer within a sweep, plus its marginal cost."""

    lam: float
    records: MetacellRecords
    n_active: int
    n_delta_records: int  #: records read from disk *for this step*
    n_reused_records: int  #: records served from earlier steps' reads


@dataclass
class SweepQueryResult:
    """Incremental delta-read answer for an isovalue sweep."""

    steps: "list[SweepStep]"
    io_stats: IOStats
    n_records_read: int  #: total records that touched the disk (once each)
    n_records_served: int  #: sum of per-step active counts (with reuse)

    def records_for(self, lam: float) -> MetacellRecords:
        """The active records of one of the swept isovalues (first
        occurrence, for sweeps that revisit a value)."""
        lam = float(lam)
        for s in self.steps:
            if s.lam == lam:
                return s.records
        raise KeyError(f"isovalue {lam} was not part of the sweep")

    @property
    def reuse_fraction(self) -> float:
        """Fraction of served records that never touched the disk."""
        if self.n_records_served == 0:
            return 0.0
        return 1.0 - self.n_records_read / max(self.n_records_served, 1)


def execute_sweep_query(dataset: IndexedDataset, lams) -> SweepQueryResult:
    """Answer ``lams`` in the given order, reading only each plan's delta.

    The planner keeps the union of record ranges materialised so far;
    each isovalue's :meth:`~repro.core.compact_tree.CompactIntervalTree.
    active_record_ranges` plan is diffed against that coverage and only
    the uncovered sub-ranges are read (Case-1 nesting makes the deltas
    of nearby isovalues tiny).  Every step's records are bit-identical
    to a standalone :func:`~repro.core.query.execute_query` — asserted
    by ``tests/test_result_cache.py``.

    Sweep order is preserved: the interactive slider sweeps in user
    order, not sorted order, and reuse works either way.
    """
    lams = [float(l) for l in lams]
    if not lams:
        raise ValueError("need at least one isovalue")
    tree = dataset.tree
    codec = dataset.codec
    rec = codec.record_size
    device = dataset.device
    before = device.stats.copy()

    coverage: "list[tuple[int, int]]" = []  # merged ranges read so far
    chunks: "list[tuple[int, int, MetacellRecords]]" = []  # sorted, disjoint
    chunk_starts: "list[int]" = []
    steps: "list[SweepStep]" = []
    n_read = 0
    n_served = 0

    def carve(a: int, b: int) -> "list[MetacellRecords]":
        """Slice [a, b) out of the materialised chunks (coverage ⊇ [a, b))."""
        picks = []
        j = max(0, int(np.searchsorted(np.asarray(chunk_starts), a,
                                       side="right")) - 1)
        pos = a
        while pos < b:
            ca, cb, batch = chunks[j]
            if cb <= pos:
                j += 1
                continue
            lo, hi = max(pos, ca), min(b, cb)
            picks.append(
                MetacellRecords(
                    ids=batch.ids[lo - ca : hi - ca],
                    vmins=batch.vmins[lo - ca : hi - ca],
                    values=batch.values[lo - ca : hi - ca],
                )
            )
            pos = hi
            j += 1
        return picks

    for lam in lams:
        ranges = tree.active_record_ranges(lam)
        deltas = _subtract_ranges(ranges, coverage)
        for a, b in deltas:
            buf = device.read(dataset.record_offset(a), (b - a) * rec)
            idx = int(np.searchsorted(np.asarray(chunk_starts, dtype=np.int64), a)) \
                if chunk_starts else 0
            chunks.insert(idx, (a, b, codec.decode(buf)))
            chunk_starts.insert(idx, a)
            n_read += b - a
        coverage = _merge_ranges(coverage + deltas)
        picks = []
        for a, b in ranges:
            picks.extend(carve(a, b))
        records = (
            MetacellRecords.concat(picks) if picks else MetacellRecords.empty(codec)
        )
        n_active = len(records.ids)
        n_delta = sum(b - a for a, b in deltas)
        n_served += n_active
        steps.append(SweepStep(
            lam=lam, records=records, n_active=n_active,
            n_delta_records=n_delta,
            n_reused_records=n_active - n_delta,
        ))

    io = device.stats.copy() - before
    return SweepQueryResult(
        steps=steps, io_stats=io, n_records_read=n_read,
        n_records_served=n_served,
    )


@dataclass
class ROIResult:
    """Region-of-interest extraction outcome."""

    lam: float
    box_lo: np.ndarray
    box_hi: np.ndarray
    mesh: TriangleMesh
    n_active_total: int
    n_active_in_box: int
    query: QueryResult


def extract_region_of_interest(
    dataset: IndexedDataset, lam: float, box_lo, box_hi
) -> ROIResult:
    """Extract only the part of the isosurface inside a world-space box.

    ``box_lo``/``box_hi`` are world coordinates.  Metacells whose bounds
    do not intersect the box are discarded *before* triangulation; the
    emitted triangles are those of the intersecting metacells (so the
    surface may extend slightly past the box, by at most one metacell).
    """
    box_lo = np.asarray(box_lo, dtype=np.float64)
    box_hi = np.asarray(box_hi, dtype=np.float64)
    if np.any(box_lo > box_hi):
        raise ValueError(f"empty box: lo {box_lo} > hi {box_hi}")
    qr = execute_query(dataset, lam)
    meta = dataset.meta
    origins = meta.vertex_origins(qr.records.ids).astype(np.float64)
    spacing = np.asarray(meta.spacing, dtype=np.float64)
    world_origin = np.asarray(meta.origin, dtype=np.float64)
    mc_lo = origins * spacing + world_origin
    extent = (np.asarray(meta.metacell_shape, dtype=np.float64) - 1) * spacing
    mc_hi = mc_lo + extent
    inside = np.all(mc_hi >= box_lo, axis=1) & np.all(mc_lo <= box_hi, axis=1)

    r = qr.records
    mesh, _ = triangulate_records(
        dataset,
        MetacellRecords(ids=r.ids[inside], vmins=r.vmins[inside],
                        values=r.values[inside]),
        lam,
    )
    return ROIResult(
        lam=float(lam), box_lo=box_lo, box_hi=box_hi, mesh=mesh,
        n_active_total=qr.n_active, n_active_in_box=int(inside.sum()), query=qr,
    )
