"""Simulated block devices with external-memory-model accounting.

The paper's analysis (Section 3) counts I/O operations — block reads —
rather than seconds.  :class:`SimulatedBlockDevice` stores data in memory
but *meters* every access exactly the way a disk controller would see it:

* an access to an extent ``[offset, offset+length)`` touches
  ``ceil``-spanning blocks (partial blocks cost a whole block);
* an access whose first block is not the block following the previous
  access's last block incurs a *seek*;
* statistics accumulate in an :class:`IOStats` that the cost model can
  turn into modeled seconds.

The device is deliberately append-oriented: the preprocessing step of the
paper writes bricks once, in layout order, and queries only ever read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

from repro.io.cost_model import IOCostModel


@dataclass
class IOStats:
    """Accumulated I/O accounting for one device.

    Attributes
    ----------
    read_ops:
        Number of read calls issued.
    blocks_read:
        Total blocks touched by reads (the external-memory cost).
    bytes_read:
        Total bytes requested by reads (useful payload; <= blocks_read * B).
    seeks:
        Reads that were not sequential continuations of the previous read.
    write_ops, blocks_written, bytes_written:
        Same accounting for writes (preprocessing cost).
    """

    read_ops: int = 0
    blocks_read: int = 0
    bytes_read: int = 0
    seeks: int = 0
    write_ops: int = 0
    blocks_written: int = 0
    bytes_written: int = 0
    #: Read attempts repeated after a transient fault or checksum mismatch
    #: (the re-issued blocks/seeks are charged above as usual).
    retries: int = 0
    #: Records whose CRC32 did not match the index (each detection counts,
    #: including repeated failures of the same record across re-reads).
    checksum_failures: int = 0
    #: Reads whose primary attempt exceeded the hedge threshold, causing
    #: the same extent to be issued against a replica (see
    #: :class:`repro.io.faults.HedgedDevice`).
    hedged_reads: int = 0
    #: Hedged reads where the replica completed before the primary (the
    #: replica's cost is what the consumer paid).
    hedge_wins: int = 0
    #: Extra modeled seconds the consumer *waited* without moving data:
    #: fault-injected latency spikes, retry backoff, and hedge-threshold
    #: waits.  Every producer charges through :meth:`charge_delay` so the
    #: three sources share one modeled clock; added to :meth:`read_time`.
    fault_delay: float = 0.0

    def charge_delay(self, seconds: float) -> None:
        """Charge modeled waiting time to this meter.

        The single entry point for every source of non-transfer delay
        (latency spikes, retry/repair backoff, hedge waits): charging
        here keeps them additive and lets a deadline clock observe all
        of them through one counter.
        """
        if seconds < 0:
            raise ValueError(f"cannot charge negative delay {seconds}")
        self.fault_delay += seconds

    def __add__(self, other: "IOStats") -> "IOStats":
        return IOStats(
            **{k: getattr(self, k) + getattr(other, k) for k in vars(self)}
        )

    def __sub__(self, other: "IOStats") -> "IOStats":
        return IOStats(
            **{k: getattr(self, k) - getattr(other, k) for k in vars(self)}
        )

    def copy(self) -> "IOStats":
        return IOStats(**vars(self))

    def as_dict(self) -> "dict[str, int | float]":
        """Counter name -> value, for the metrics namespace.

        Field names are kept verbatim (``blocks_read``, ``seeks``,
        ``hedge_wins``, ...) so ``io.<field>`` in a
        :class:`~repro.obs.metrics.MetricsRegistry` is always exactly
        this struct, unified across every device in a run.
        """
        return dict(vars(self))

    def reset(self) -> None:
        for name in vars(self):
            setattr(self, name, 0.0 if name == "fault_delay" else 0)

    def read_time(self, model: IOCostModel) -> float:
        """Modeled seconds spent reading, under ``model``.

        Includes any fault-injected latency and retry backoff accumulated
        in :attr:`fault_delay`."""
        return model.time_for(self.blocks_read, self.seeks) + self.fault_delay


class BlockDevice(Protocol):
    """Minimal interface the index/query layers need from storage."""

    cost_model: IOCostModel
    stats: IOStats

    def allocate(self, nbytes: int) -> int:
        """Reserve ``nbytes`` and return the starting byte offset."""
        ...

    def write(self, offset: int, data: bytes) -> None:
        """Write ``data`` at ``offset`` (must lie in an allocated region)."""
        ...

    def read(self, offset: int, nbytes: int) -> bytes:
        """Read ``nbytes`` starting at ``offset``, with accounting."""
        ...

    @property
    def size(self) -> int:
        """Total allocated bytes."""
        ...


@dataclass
class _Meter:
    """Shared metering logic for simulated and file-backed devices."""

    cost_model: IOCostModel
    stats: IOStats = field(default_factory=IOStats)
    _next_sequential_block: int = -1

    def record_read(self, offset: int, nbytes: int) -> None:
        if nbytes <= 0:
            return
        bs = self.cost_model.block_size
        first = offset // bs
        blocks = self.cost_model.blocks_for_extent(offset, nbytes)
        self.stats.read_ops += 1
        self.stats.bytes_read += nbytes
        self.stats.blocks_read += blocks
        if first != self._next_sequential_block:
            self.stats.seeks += 1
        self._next_sequential_block = first + blocks

    def record_write(self, offset: int, nbytes: int) -> None:
        if nbytes <= 0:
            return
        self.stats.write_ops += 1
        self.stats.bytes_written += nbytes
        self.stats.blocks_written += self.cost_model.blocks_for_extent(offset, nbytes)


class SimulatedBlockDevice:
    """In-memory block device with external-memory accounting.

    Parameters
    ----------
    cost_model:
        Block size and timing calibration.  Defaults to the paper's disk.

    Examples
    --------
    >>> dev = SimulatedBlockDevice()
    >>> off = dev.allocate(10)
    >>> dev.write(off, b"0123456789")
    >>> dev.read(off, 4)
    b'0123'
    >>> dev.stats.read_ops
    1
    """

    def __init__(self, cost_model: IOCostModel | None = None) -> None:
        self.cost_model = cost_model or IOCostModel()
        self._buf = bytearray()
        self._meter = _Meter(self.cost_model)

    @property
    def stats(self) -> IOStats:
        return self._meter.stats

    @property
    def size(self) -> int:
        return len(self._buf)

    def allocate(self, nbytes: int) -> int:
        if nbytes < 0:
            raise ValueError(f"cannot allocate {nbytes} bytes")
        offset = len(self._buf)
        self._buf.extend(b"\x00" * nbytes)
        return offset

    def write(self, offset: int, data: bytes) -> None:
        end = offset + len(data)
        if offset < 0 or end > len(self._buf):
            raise ValueError(
                f"write [{offset}, {end}) outside allocated region of {len(self._buf)} bytes"
            )
        self._buf[offset:end] = data
        self._meter.record_write(offset, len(data))

    def read(self, offset: int, nbytes: int) -> bytes:
        end = offset + nbytes
        if offset < 0 or nbytes < 0 or end > len(self._buf):
            raise ValueError(
                f"read [{offset}, {end}) outside allocated region of {len(self._buf)} bytes"
            )
        self._meter.record_read(offset, nbytes)
        return bytes(self._buf[offset:end])

    def peek(self, offset: int, nbytes: int) -> memoryview:
        """Zero-copy, *unmetered* read-only view of ``[offset, offset+nbytes)``.

        A maintenance read: the build paths use it to checksum bytes
        they have just written (:mod:`repro.core.persistence` resume
        re-verification, the read-back of record groups a multi-slab
        source writes out of order) without charging a
        query's meter.  Query execution never calls it — every query
        read is a metered :meth:`read`.  Only the raw devices define it.
        """
        end = offset + nbytes
        if offset < 0 or nbytes < 0 or end > len(self._buf):
            raise ValueError(
                f"peek [{offset}, {end}) outside allocated region of {len(self._buf)} bytes"
            )
        return memoryview(self._buf)[offset:end].toreadonly()

    def truncate(self, nbytes: int) -> None:
        """Shrink the device to ``nbytes``, discarding the tail.

        Public damage-injection API for tests and fault drills: a
        truncated store is how a half-copied or interrupted layout
        manifests in the wild.  Subsequent reads past ``nbytes`` raise
        ``ValueError`` exactly like reads past the allocated region.
        """
        if nbytes < 0 or nbytes > len(self._buf):
            raise ValueError(
                f"cannot truncate to {nbytes} bytes (store holds {len(self._buf)})"
            )
        del self._buf[nbytes:]

    def reset_stats(self) -> None:
        """Zero the counters and forget the head position."""
        self._meter.stats.reset()
        self._meter._next_sequential_block = -1
