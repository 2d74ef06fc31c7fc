"""File-backed block device: the genuinely out-of-core storage path.

:class:`FileBackedDevice` implements the same :class:`~repro.io.blockdevice.BlockDevice`
interface as the in-memory simulator but persists data in a real file, so
datasets larger than memory can be preprocessed once and queried later
with bounded resident set — the paper's actual operating regime.  All
accesses run through the same block/seek metering, so modeled I/O times
agree between the two backends.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.io.blockdevice import IOStats, _Meter
from repro.io.cost_model import IOCostModel


class FileBackedDevice:
    """Block device backed by a file on the local filesystem.

    Parameters
    ----------
    path:
        File to create or open.  Created (truncated) when ``create=True``.
    cost_model:
        Block size / timing calibration (defaults to the paper's disk).
    create:
        When True (default) start from an empty file; when False, open an
        existing store read-write and resume allocation at its end.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        cost_model: IOCostModel | None = None,
        create: bool = True,
    ) -> None:
        self.cost_model = cost_model or IOCostModel()
        self.path = Path(path)
        mode = "w+b" if create or not self.path.exists() else "r+b"
        self._fh = open(self.path, mode)
        self._fh.seek(0, os.SEEK_END)
        self._size = self._fh.tell()
        self._meter = _Meter(self.cost_model)

    @property
    def stats(self) -> IOStats:
        return self._meter.stats

    @property
    def size(self) -> int:
        return self._size

    def allocate(self, nbytes: int) -> int:
        if nbytes < 0:
            raise ValueError(f"cannot allocate {nbytes} bytes")
        offset = self._size
        self._size += nbytes
        self._fh.truncate(self._size)
        return offset

    def write(self, offset: int, data: bytes) -> None:
        end = offset + len(data)
        if offset < 0 or end > self._size:
            raise ValueError(
                f"write [{offset}, {end}) outside allocated region of {self._size} bytes"
            )
        self._fh.seek(offset)
        self._fh.write(data)
        self._meter.record_write(offset, len(data))

    def read(self, offset: int, nbytes: int) -> bytes:
        end = offset + nbytes
        if offset < 0 or nbytes < 0 or end > self._size:
            raise ValueError(
                f"read [{offset}, {end}) outside allocated region of {self._size} bytes"
            )
        self._fh.seek(offset)
        data = self._fh.read(nbytes)
        if len(data) != nbytes:
            raise IOError(
                f"short read at offset {offset}: wanted {nbytes} bytes, got {len(data)} "
                f"(store truncated or corrupted)"
            )
        self._meter.record_read(offset, nbytes)
        return data

    def peek(self, offset: int, nbytes: int) -> memoryview:
        """Unmetered maintenance read of ``[offset, offset+nbytes)``.

        Same contract as
        :meth:`repro.io.blockdevice.SimulatedBlockDevice.peek`: data
        moves, the meter does not.  The file backend has no resident
        buffer to alias, so this materializes one copy.
        """
        end = offset + nbytes
        if offset < 0 or nbytes < 0 or end > self._size:
            raise ValueError(
                f"peek [{offset}, {end}) outside allocated region of {self._size} bytes"
            )
        self._fh.seek(offset)
        data = self._fh.read(nbytes)
        if len(data) != nbytes:
            raise IOError(
                f"short read at offset {offset}: wanted {nbytes} bytes, got {len(data)} "
                f"(store truncated or corrupted)"
            )
        return memoryview(data)

    def truncate(self, nbytes: int) -> None:
        """Shrink the backing file to ``nbytes`` (damage-injection API)."""
        if nbytes < 0 or nbytes > self._size:
            raise ValueError(
                f"cannot truncate to {nbytes} bytes (store holds {self._size})"
            )
        self._fh.truncate(nbytes)
        self._size = nbytes

    def reset_stats(self) -> None:
        self._meter.stats.reset()
        self._meter._next_sequential_block = -1

    def flush(self) -> None:
        self._fh.flush()

    def fsync(self) -> None:
        """Flush userspace buffers and ask the OS to reach the media.

        Durability barrier for the journaled build's commit points: after
        ``fsync`` returns, everything written so far survives a crash of
        the process (and, on a real disk, of the machine).
        """
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "FileBackedDevice":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- pickling: the path travels, not the bytes -------------------------
    # Lets multiprocessing workers reopen the same store instead of
    # shipping its contents (see repro.parallel.mp_backend).

    def __getstate__(self) -> dict:
        return {
            "path": str(self.path),
            "cost_model": self.cost_model,
            "size": self._size,
        }

    def __setstate__(self, state: dict) -> None:
        self.cost_model = state["cost_model"]
        self.path = Path(state["path"])
        self._fh = open(self.path, "r+b")
        self._size = state["size"]
        if self.path.stat().st_size < self._size:
            raise IOError(
                f"reopened store {self.path} holds {self.path.stat().st_size} "
                f"bytes, expected {self._size}"
            )
        self._meter = _Meter(self.cost_model)
