"""Streaming (slab-based) preprocessing for volumes larger than memory.

The in-memory builder assumes the whole time step fits in RAM; the
paper's 7.5 GB steps do not (and 2048^2 x 1920 barely fits anywhere in
2006).  The paper's preprocessing "scans the data once"; this module
implements that scan in two out-of-core passes over *z-slabs*, each one
metacell layer thick (``m`` vertex planes plus the shared boundary
plane):

* **pass 1** computes every metacell's (vmin, vmax) — a few bytes per
  metacell — and builds the compact interval tree;
* **pass 2** re-streams the slabs and writes each surviving metacell's
  record directly at its final layout offset (records of one slab land
  in bulk; the device sees one write per record run).

Peak memory is one slab plus the interval arrays — independent of the
volume's depth.  The result is byte-identical in content to the
in-memory builder's output (asserted by the tests).

A :class:`SlabSource` is anything that can yield the volume's z-slabs
twice (two passes); :class:`VolumeSlabSource` adapts an in-memory
volume (for tests), :class:`FunctionSlabSource` evaluates a field
lazily per slab — e.g. the RM generator — so *no* full-volume array
ever exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Protocol

import numpy as np

from repro.core.builder import (
    WRITE_CHUNK_RECORDS,
    IndexedDataset,
    _make_meta,
    _make_report,
)
from repro.core.compact_tree import CompactIntervalTree
from repro.core.intervals import IntervalSet
from repro.grid.metacell import metacell_grid_shape
from repro.io.blockdevice import SimulatedBlockDevice
from repro.io.cost_model import IOCostModel
from repro.io.layout import (
    BrickChecksums,
    MetacellCodec,
    compute_crc_tables,
    compute_record_crcs,
)


class SlabSource(Protocol):
    """A re-iterable source of z-slabs of a scalar volume."""

    @property
    def shape(self) -> tuple[int, int, int]: ...

    @property
    def dtype(self) -> np.dtype: ...

    @property
    def spacing(self) -> tuple[float, float, float]: ...

    @property
    def origin(self) -> tuple[float, float, float]: ...

    @property
    def name(self) -> str: ...

    def slabs(self, thickness: int, overlap: int) -> "Iterator[tuple[int, np.ndarray]]":
        """Yield ``(z_start, data)`` slabs covering the volume.

        Successive slabs start ``thickness - overlap`` planes apart; the
        final slab may be thinner.
        """
        ...


@dataclass
class VolumeSlabSource:
    """Slab view of an in-memory volume (testing / small data)."""

    volume: object

    @property
    def shape(self):
        return self.volume.shape

    @property
    def dtype(self):
        return self.volume.dtype

    @property
    def spacing(self):
        return self.volume.spacing

    @property
    def origin(self):
        return self.volume.origin

    @property
    def name(self):
        return self.volume.name

    def slabs(self, thickness: int, overlap: int):
        nz = self.shape[2]
        step = thickness - overlap
        z = 0
        while z < nz - overlap or z == 0:
            yield z, np.ascontiguousarray(self.volume.data[:, :, z : z + thickness])
            z += step


@dataclass
class FunctionSlabSource:
    """Lazy slab evaluation: ``fn(z_start, z_stop) -> (nx, ny, dz) array``.

    The full volume never materializes; this is how a terabyte-scale
    simulation output (or the RM generator) streams into preprocessing.
    """

    fn: Callable[[int, int], np.ndarray]
    shape: tuple[int, int, int]
    dtype: np.dtype
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0)
    name: str = "streamed"

    def slabs(self, thickness: int, overlap: int):
        nz = self.shape[2]
        step = thickness - overlap
        z = 0
        while z < nz - overlap or z == 0:
            stop = min(z + thickness, nz)
            data = np.asarray(self.fn(z, stop))
            expect = (self.shape[0], self.shape[1], stop - z)
            if data.shape != expect:
                raise ValueError(
                    f"slab fn returned shape {data.shape}, expected {expect}"
                )
            yield z, data
            z += step


def _slab_metacell_stats(slab: np.ndarray, m: tuple[int, int, int]):
    """Metacell partition of one slab (edge-replicated padding as needed)."""
    from repro.grid.metacell import partition_metacells
    from repro.grid.volume import Volume

    if min(slab.shape) < 2:  # final slab one plane thick: replicate it
        slab = np.pad(slab, [(0, max(0, 2 - s)) for s in slab.shape], mode="edge")
    return partition_metacells(Volume(slab), m)


def build_indexed_dataset_streaming(
    source: SlabSource,
    metacell_shape: tuple[int, int, int] = (9, 9, 9),
    device=None,
    cost_model: IOCostModel | None = None,
    drop_constant: bool = True,
) -> IndexedDataset:
    """Two-pass streaming preprocessing over a slab source."""
    mx, my, mz = metacell_shape
    nx, ny, nz = source.shape
    grid = metacell_grid_shape(source.shape, metacell_shape)
    gx, gy, gz = grid
    n_total = gx * gy * gz

    # ---- pass 1: per-metacell extrema ------------------------------------
    vmin = np.empty(n_total, dtype=source.dtype)
    vmax = np.empty(n_total, dtype=source.dtype)
    seen = np.zeros(gz, dtype=bool)
    for z_start, slab in source.slabs(thickness=mz, overlap=1):
        layer = z_start // (mz - 1)
        if layer >= gz:
            break
        part = _slab_metacell_stats(slab, (mx, my, mz))
        if part.grid_shape[:2] != (gx, gy) or part.grid_shape[2] != 1:
            raise ValueError(
                f"slab at z={z_start} produced metacell grid {part.grid_shape}, "
                f"expected ({gx}, {gy}, 1) — slab thickness/overlap mismatch"
            )
        # Slab-local flat order (i*gy + j) maps to global id local*gz + layer.
        idx = np.arange(gx * gy, dtype=np.int64) * gz + layer
        vmin[idx] = part.vmin
        vmax[idx] = part.vmax
        seen[layer] = True
    if not seen.all():
        missing = np.flatnonzero(~seen)
        raise ValueError(f"slab source skipped metacell layers {missing.tolist()}")

    ids = np.arange(n_total, dtype=np.uint32)
    if drop_constant:
        keep = vmin != vmax
        intervals = IntervalSet(vmin=vmin[keep], vmax=vmax[keep], ids=ids[keep])
    else:
        intervals = IntervalSet(vmin=vmin.copy(), vmax=vmax.copy(), ids=ids)
    tree = CompactIntervalTree.build(intervals)
    codec = MetacellCodec(metacell_shape, source.dtype)
    if device is None:
        device = SimulatedBlockDevice(cost_model or IOCostModel())
    n, rec = tree.n_records, codec.record_size
    base = device.allocate(n * rec)
    crcs = np.empty(n, dtype=np.uint32)

    # Layout position of each metacell id (for pass-2 scatter writes).
    position_of_id = np.full(n_total, -1, dtype=np.int64)
    position_of_id[tree.record_ids] = np.arange(tree.n_records)

    # ---- pass 2: write records at their layout offsets --------------------
    for z_start, slab in source.slabs(thickness=mz, overlap=1):
        layer = z_start // (mz - 1)
        if layer >= gz:
            break
        part = _slab_metacell_stats(slab, (mx, my, mz))
        slab_ids = (np.arange(gx * gy, dtype=np.int64) * gz + layer).astype(np.uint32)
        pos = position_of_id[slab_ids]
        live = pos >= 0
        if not live.any():
            continue
        live_local = np.flatnonzero(live)
        values = part.extract_values(live_local.astype(np.uint32))
        live_ids = slab_ids[live]
        live_pos = pos[live]
        order = np.argsort(live_pos)
        live_ids, live_pos, values = live_ids[order], live_pos[order], values[order]
        # Coalesce runs of consecutive layout positions into bulk writes.
        breaks = np.flatnonzero(np.diff(live_pos) != 1) + 1
        starts = np.concatenate([[0], breaks])
        stops = np.concatenate([breaks, [len(live_pos)]])
        for s_run, e_run in zip(starts, stops):
            blob = codec.encode(
                live_ids[s_run:e_run],
                vmin[live_ids[s_run:e_run]],
                values[s_run:e_run],
            )
            p_run = int(live_pos[s_run])
            device.write(base + p_run * rec, blob)
            crcs[p_run : p_run + (e_run - s_run)] = compute_record_crcs(blob, rec)

    # Record CRCs came from the bytes as written; records landed out of
    # layout order, so the stream CRC takes one sequential (unmetered)
    # read-back of the finished store.
    cum = np.zeros(n + 1, dtype=np.uint32)
    for s in range(0, n, WRITE_CHUNK_RECORDS):
        e = min(s + WRITE_CHUNK_RECORDS, n)
        chunk = device.peek(base + s * rec, (e - s) * rec)
        cum[s + 1 : e + 1] = compute_crc_tables(chunk, rec, int(cum[s]))[1][1:]

    original_bytes = int(np.prod(source.shape)) * np.dtype(source.dtype).itemsize
    return IndexedDataset(
        tree=tree, device=device, codec=codec, base_offset=base,
        meta=_make_meta(source, grid, metacell_shape),
        report=_make_report(n_total, original_bytes, intervals, tree, codec),
        checksums=BrickChecksums.from_record_crcs(
            crcs, tree.brick_start, tree.brick_count, cum_crcs=cum
        ),
    )
