"""On-disk metacell record format (paper Section 7, preprocessing).

Each metacell is stored as one fixed-size record::

    +------------+---------------+----------------------------------+
    | id: uint32 | vmin: scalar  | vertex scalars, predefined order |
    +------------+---------------+----------------------------------+

For the Richtmyer–Meshkov configuration of the paper (9x9x9 one-byte
metacells) this is exactly 4 + 1 + 729 = 734 bytes per record.  The
``vmax`` of a metacell is *not* stored in the record: all records in one
brick share their ``vmax``, which lives in the index entry — this is part
of what makes the compact layout compact.

Records are fixed-size so a query can read a brick prefix block by block
and decode incrementally, stopping at the first record whose ``vmin``
exceeds the isovalue (Case 2 of the query algorithm) without knowing the
record count in advance.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

import numpy as np


@dataclass
class MetacellRecords:
    """A decoded batch of metacell records.

    Attributes
    ----------
    ids:
        ``uint32`` array of metacell ids (row-major metacell-grid index).
    vmins:
        Per-record minimum scalar value (same dtype as the field).
    values:
        ``(n, m0*m1*m2)`` array of vertex scalars in predefined
        (C row-major) order.
    """

    ids: np.ndarray
    vmins: np.ndarray
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)

    @staticmethod
    def empty(codec: "MetacellCodec") -> "MetacellRecords":
        return MetacellRecords(
            ids=np.empty(0, dtype=np.uint32),
            vmins=np.empty(0, dtype=codec.scalar_dtype),
            values=np.empty((0, codec.values_per_record), dtype=codec.scalar_dtype),
        )

    @staticmethod
    def concat(batches: "list[MetacellRecords]") -> "MetacellRecords":
        if not batches:
            raise ValueError("cannot concatenate zero batches (codec unknown)")
        return MetacellRecords(
            ids=np.concatenate([b.ids for b in batches]),
            vmins=np.concatenate([b.vmins for b in batches]),
            values=np.concatenate([b.values for b in batches]),
        )


#: struct's standard-size code of a record scalar, by numpy (kind,
#: itemsize): numpy's own type chars name platform C types.
_STRUCT_CODES = {(kind, size): code for kind, codes in (("u", "BHIQ"), ("i", "bhiq"), ("f", "-efd"))
                 for size, code in zip((1, 2, 4, 8), codes) if code != "-"}


class MetacellCodec:
    """Encoder/decoder for fixed-size metacell records.

    Parameters
    ----------
    metacell_shape:
        Vertex dimensions of a metacell, e.g. ``(9, 9, 9)``.
    scalar_dtype:
        Numpy dtype of the scalar field (uint8, uint16, float32, ...).
    """

    def __init__(
        self,
        metacell_shape: tuple[int, int, int] = (9, 9, 9),
        scalar_dtype: np.dtype | type = np.uint8,
    ) -> None:
        if len(metacell_shape) != 3 or any(int(s) < 2 for s in metacell_shape):
            raise ValueError(
                f"metacell_shape must be 3 dims of >= 2 vertices, got {metacell_shape}"
            )
        self.metacell_shape = tuple(int(s) for s in metacell_shape)
        self._init_record(int(np.prod(self.metacell_shape)), scalar_dtype)

    def _init_record(self, values_per_record: int, scalar_dtype) -> None:
        self.scalar_dtype = np.dtype(scalar_dtype)
        self.values_per_record = int(values_per_record)
        self._record_dtype = np.dtype(
            [
                ("id", "<u4"),
                ("vmin", self.scalar_dtype.newbyteorder("<")),
                ("values", self.scalar_dtype.newbyteorder("<"), (self.values_per_record,)),
            ]
        )
        code = _STRUCT_CODES.get((self.scalar_dtype.kind, self.scalar_dtype.itemsize))
        if code is None:
            raise ValueError(f"scalar_dtype must be an int or float of <= 8 bytes: {scalar_dtype}")
        self._vmin_fmt = "<" + code  # a string, so the codec pickles (struct caches it)
        self._vmin_offset = self._record_dtype.fields["vmin"][1]

    @classmethod
    def flat(
        cls, values_per_record: int, scalar_dtype: np.dtype | type
    ) -> "MetacellCodec":
        """A codec over flat payloads of ``values_per_record`` scalars with
        no grid interpretation — used by the unstructured-grid pipeline,
        where a record holds a cluster of denormalized tetrahedra rather
        than a vertex grid.  :meth:`values_grid` is unavailable."""
        if values_per_record < 1:
            raise ValueError(f"values_per_record must be >= 1, got {values_per_record}")
        codec = cls.__new__(cls)
        codec.metacell_shape = None  # type: ignore[assignment]
        codec._init_record(values_per_record, scalar_dtype)
        return codec

    @property
    def record_size(self) -> int:
        """Bytes per record (734 for the paper's 9x9x9 uint8 metacells)."""
        return self._record_dtype.itemsize

    def encode(self, ids: np.ndarray, vmins: np.ndarray, values: np.ndarray) -> bytes:
        """Serialize a batch of records.

        ``values`` may be ``(n, m0, m1, m2)`` or already flattened to
        ``(n, m0*m1*m2)``.
        """
        n = len(ids)
        values = np.asarray(values).reshape(n, self.values_per_record)
        if len(vmins) != n or len(values) != n:
            raise ValueError(
                f"length mismatch: {n} ids, {len(vmins)} vmins, {len(values)} value rows"
            )
        out = np.empty(n, dtype=self._record_dtype)
        out["id"] = ids
        out["vmin"] = vmins
        out["values"] = values
        return out.tobytes()

    def decode(self, buf, take=None) -> MetacellRecords:
        """Decode all complete records contained in ``buf`` (or only
        those ``take`` selects: an index array or boolean mask).

        ``buf`` may be any C-contiguous buffer object (``bytes``,
        ``bytearray``, ``memoryview``) — the record stream is viewed in
        place via ``np.frombuffer`` and only the decoded field arrays
        are materialized, so callers can hand in live views of a read
        buffer without an intermediate ``bytes`` copy.

        Trailing bytes that do not form a complete record are ignored —
        this is what allows incremental, block-granular brick reads.
        """
        n = len(buf) // self.record_size
        arr = np.frombuffer(buf, dtype=self._record_dtype, count=n)
        if take is None:
            return MetacellRecords(
                ids=arr["id"].copy(),
                vmins=arr["vmin"].copy(),
                values=arr["values"].copy(),
            )
        return MetacellRecords(
            ids=arr["id"][take], vmins=arr["vmin"][take], values=arr["values"][take]
        )

    def decode_vmins(self, buf) -> np.ndarray:
        """Zero-copy strided view of the ``vmin`` column of ``buf``.

        Used by the Case-2 early-stop scan: deciding *where* to stop
        only needs vmins, so the scan peeks at this view and defers full
        decoding until the stop point is known.  The view aliases
        ``buf`` — read it before the buffer is recycled.
        """
        n = len(buf) // self.record_size
        return np.frombuffer(buf, dtype=self._record_dtype, count=n)["vmin"]

    def vmin_at(self, buf, offset: int) -> float:
        """The ``vmin`` of the record starting at byte ``offset`` of
        ``buf``, as a Python float — one field read, no array built."""
        return float(struct.unpack_from(self._vmin_fmt, buf, offset + self._vmin_offset)[0])

    def decode_count(self, buf) -> int:
        """Number of complete records in ``buf``."""
        return len(buf) // self.record_size

    def values_grid(self, records: MetacellRecords) -> np.ndarray:
        """Reshape decoded values back to ``(n, m0, m1, m2)`` grids."""
        if self.metacell_shape is None:
            raise TypeError("flat codec payloads have no grid interpretation")
        n = len(records)
        return records.values.reshape((n, *self.metacell_shape))


# ---------------------------------------------------------------------------
# Checksums
# ---------------------------------------------------------------------------


def _make_crc32_tables() -> np.ndarray:
    """Slicing-by-4 lookup tables for the reflected CRC-32 (poly
    0xEDB88320) that :func:`zlib.crc32` implements.

    ``tables[0]`` is the classic byte-at-a-time table; ``tables[k]`` is
    the k-bytes-ahead variant, letting one vectorized pass consume four
    input bytes per iteration.
    """
    t0 = np.empty(256, dtype=np.uint32)
    for b in range(256):
        c = b
        for _ in range(8):
            c = (c >> 1) ^ 0xEDB88320 if c & 1 else c >> 1
        t0[b] = c
    tables = np.empty((4, 256), dtype=np.uint32)
    tables[0] = t0
    for k in range(1, 4):
        prev = tables[k - 1]
        tables[k] = (prev >> np.uint32(8)) ^ t0[prev & np.uint32(0xFF)]
    return tables


_CRC_TABLES = _make_crc32_tables()

#: Below this many records the per-record ``zlib.crc32`` loop beats the
#: column-wise vectorized pass (each vector iteration touches every
#: record, so small batches pay full table-gather cost per byte).
VECTOR_CRC_MIN_RECORDS = 1024

#: Records wider than this verify faster through the per-record
#: ``zlib.crc32`` loop: the vectorized kernel's cost grows with
#: ``record_size`` (one numpy table-gather pass per 4 byte columns)
#: while zlib's C loop runs at memory speed, so past ~64 bytes the
#: column passes cost more than the interpreter overhead they save.
#: Measured crossover on the reference container: 2-7x wins at 8-32
#: bytes, ~1.3x at 64, below parity from 128 up.
VECTOR_CRC_MAX_RECORD_SIZE = 64


def _vectorized_record_crcs(view: np.ndarray, record_size: int) -> np.ndarray:
    """CRC32 of every row of an ``(n, record_size)`` uint8 matrix.

    Column-wise slicing-by-4: each iteration folds four bytes of *all*
    records into the running CRC vector, so total Python-level work is
    ``record_size / 4`` numpy passes instead of ``n`` interpreter-loop
    iterations.  Bit-identical to ``zlib.crc32`` per record.
    """
    t0, t1, t2, t3 = _CRC_TABLES
    n4 = record_size // 4
    words = np.ascontiguousarray(view[:, : n4 * 4]).view("<u4")
    crc = np.full(len(view), 0xFFFFFFFF, dtype=np.uint32)
    mask = np.uint32(0xFF)
    for i in range(n4):
        crc ^= words[:, i]
        crc = (
            t3[crc & mask]
            ^ t2[(crc >> np.uint32(8)) & mask]
            ^ t1[(crc >> np.uint32(16)) & mask]
            ^ t0[crc >> np.uint32(24)]
        )
    for j in range(n4 * 4, record_size):
        crc = (crc >> np.uint32(8)) ^ t0[(crc ^ view[:, j]) & mask]
    return crc ^ np.uint32(0xFFFFFFFF)


def compute_record_crcs(blob, record_size: int) -> np.ndarray:
    """CRC32 of each complete ``record_size``-byte record in ``blob``.

    Large batches of *narrow* records go through the vectorized
    column-wise pass; everything else keeps the per-record
    ``zlib.crc32`` loop, which is faster for wide records (see
    :data:`VECTOR_CRC_MAX_RECORD_SIZE`).  Both produce the same values.
    """
    if record_size < 1:
        raise ValueError(f"record_size must be >= 1, got {record_size}")
    view = memoryview(blob)
    n = len(view) // record_size
    if n >= VECTOR_CRC_MIN_RECORDS and 4 <= record_size <= VECTOR_CRC_MAX_RECORD_SIZE:
        rows = np.frombuffer(view, dtype=np.uint8, count=n * record_size)
        return _vectorized_record_crcs(rows.reshape(n, record_size), record_size)
    out = np.empty(n, dtype=np.uint32)
    for i in range(n):
        out[i] = zlib.crc32(view[i * record_size : (i + 1) * record_size])
    return out


def compute_crc_tables(
    blob, record_size: int, initial: int = 0
) -> "tuple[np.ndarray, np.ndarray]":
    """Per-record and cumulative CRC32 tables of ``blob`` in one loop.

    Returns ``(record_crcs, cum)``.  ``record_crcs`` equals
    :func:`compute_record_crcs`; ``cum[p]`` is the CRC32 of records
    ``[0, p)`` continued from ``initial`` (the running CRC of everything
    before ``blob``), so the table of a chunked layout write is built by
    threading ``cum[-1]`` into the next chunk's ``initial``.  It turns
    span verification into a single C call: the bytes of records
    ``[a, b)`` are intact iff ``zlib.crc32(span, cum[a]) == cum[b]``.
    The layout write needs both tables for every record it serializes,
    so each record is sliced out once and hashed twice while in cache.
    """
    if record_size < 1:
        raise ValueError(f"record_size must be >= 1, got {record_size}")
    view = memoryview(blob)
    c = initial & 0xFFFFFFFF
    crcs, cum = [], [c]
    for lo in range(0, len(view) - record_size + 1, record_size):
        record = view[lo : lo + record_size]
        crcs.append(zlib.crc32(record))
        c = zlib.crc32(record, c)
        cum.append(c)
    return np.array(crcs, dtype=np.uint32), np.array(cum, dtype=np.uint32)


@dataclass
class BrickChecksums:
    """Integrity metadata for one node's brick layout (format version 2).

    Two levels, both CRC32:

    * ``record_crcs[p]`` — checksum of the record at layout position
      ``p``.  Verified by the query executor on every decoded record, so
      a torn or bit-flipped record surfaces as a typed
      ``BrickCorruptionError`` instead of being triangulated silently.
    * ``brick_crcs[b]`` — checksum *of the record-CRC slice* of brick
      ``b`` (little-endian uint32 bytes).  A compact whole-brick rollup
      used by ``repro verify`` without rehashing payload bytes twice.

    Optionally a third, redundant table:

    * ``cum_crcs[p]`` — CRC32 of the concatenated record bytes
      ``[0, p)`` (length ``n_records + 1``, ``cum_crcs[0] == 0``).
      Lets :meth:`verify_span` validate an arbitrary record span with
      one ``zlib.crc32`` call instead of one per record; the per-record
      table is only consulted when that fast check fails and the
      corrupt record must be located.

    All arrays live in the in-memory index (persisted in ``index.npz``),
    not in the record stream — record size and the paper's layout
    arithmetic are unchanged, and a prefix read can verify exactly the
    records it decoded.
    """

    record_crcs: np.ndarray
    brick_crcs: np.ndarray
    cum_crcs: "np.ndarray | None" = None

    def __post_init__(self) -> None:
        self.record_crcs = np.ascontiguousarray(self.record_crcs, dtype=np.uint32)
        self.brick_crcs = np.ascontiguousarray(self.brick_crcs, dtype=np.uint32)
        if self.cum_crcs is not None:
            self.cum_crcs = np.ascontiguousarray(self.cum_crcs, dtype=np.uint32)
            if len(self.cum_crcs) != len(self.record_crcs) + 1:
                raise ValueError(
                    f"cum_crcs must have n_records + 1 entries, got "
                    f"{len(self.cum_crcs)} for {len(self.record_crcs)} records"
                )

    @classmethod
    def from_record_crcs(
        cls,
        record_crcs: np.ndarray,
        brick_start: np.ndarray,
        brick_count: np.ndarray,
        cum_crcs: "np.ndarray | None" = None,
    ) -> "BrickChecksums":
        """Roll per-record CRCs up into per-brick CRCs."""
        record_crcs = np.ascontiguousarray(record_crcs, dtype=np.uint32)
        le = record_crcs.astype("<u4")
        brick_crcs = np.empty(len(brick_start), dtype=np.uint32)
        for b in range(len(brick_start)):
            s, c = int(brick_start[b]), int(brick_count[b])
            brick_crcs[b] = zlib.crc32(le[s : s + c].tobytes())
        return cls(record_crcs=record_crcs, brick_crcs=brick_crcs,
                   cum_crcs=cum_crcs)

    @property
    def n_records(self) -> int:
        return len(self.record_crcs)

    def verify_span(self, start_pos: int, buf, record_size: int,
                    head=b"") -> "bool | None":
        """Fast whole-span check of the complete records in ``head + buf``.

        ``head`` is the start of a record split by a read boundary (the
        rest of it opens ``buf``); it is hashed first, so the span needs
        no joined copy.  Returns ``True``/``False`` when the cumulative
        table is present (one ``zlib.crc32`` over the span), ``None``
        when it is not and the caller must fall back to per-record
        comparison.
        """
        if self.cum_crcs is None:
            return None
        size = len(buf)
        n = (len(head) + size) // record_size
        end_pos = start_pos + n
        if end_pos >= len(self.cum_crcs):
            raise ValueError(
                f"checksum table holds {self.n_records} records; cannot verify "
                f"[{start_pos}, {end_pos})"
            )
        crc = self.cum_crcs.item(start_pos)
        if head:
            crc = zlib.crc32(head, crc)
        span = n * record_size - len(head)
        got = zlib.crc32(buf if span == size else memoryview(buf)[:span], crc)
        return got == self.cum_crcs.item(end_pos)

    def find_corrupt(self, start_pos: int, buf, record_size: int) -> np.ndarray:
        """Indices (relative to ``start_pos``) of records in ``buf`` whose
        CRC32 disagrees with the table."""
        got = compute_record_crcs(buf, record_size)
        expected = self.record_crcs[start_pos : start_pos + len(got)]
        if len(expected) != len(got):
            raise ValueError(
                f"checksum table holds {self.n_records} records; cannot verify "
                f"[{start_pos}, {start_pos + len(got)})"
            )
        return np.flatnonzero(got != expected)

    def verify_brick(self, brick_id: int, start: int, count: int) -> bool:
        """Check one brick's rollup CRC against its record-CRC slice."""
        le = self.record_crcs[start : start + count].astype("<u4")
        return int(self.brick_crcs[brick_id]) == zlib.crc32(le.tobytes())
