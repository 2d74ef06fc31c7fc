"""LRU block cache over any block device.

Interactive exploration replays similar isovalues: consecutive queries
share most of their active bricks, so a block cache converts the repeat
traffic into memory hits.  :class:`CachedDevice` wraps any
:class:`~repro.io.blockdevice.BlockDevice` with an LRU cache of whole
blocks and separates the accounting:

* ``stats`` (on the wrapper) counts the *logical* reads the query layer
  issued;
* ``backing.stats`` counts what actually reached the disk;
* ``cache_stats`` counts hits/misses/evictions.

The cache is read-only-after-write in spirit: writes invalidate the
affected blocks, keeping reads coherent (asserted by tests).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.io.blockdevice import IOStats, _Meter
from repro.io.cost_model import IOCostModel


@dataclass
class CacheStats:
    """Hit/miss accounting for a :class:`CachedDevice`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


@dataclass(frozen=True)
class CacheOptions:
    """Every cache knob of a query or cluster, in one frozen value.

    Pass it as ``SimulatedCluster(..., cache=...)`` /
    ``ServeConfig(cache=...)``; the owning layer attaches the block
    caches and builds the result cache from it.

    Parameters
    ----------
    block_cache_bytes:
        Per-node LRU block-cache budget in bytes (0 disables); converted
        to whole blocks against the device's block size at attach time.
    result_cache_bytes:
        Byte budget of the λ-keyed :class:`~repro.serve.rcache.ResultCache`
        holding verified decoded records and per-stripe triangle batches
        (0 disables result reuse).
    lambda_bucket:
        Width of the λ-bucket used in result-cache keys and request
        coalescing: isovalues in the same bucket
        (``floor(lam / lambda_bucket)``) may share one in-flight
        extraction.  0 restricts coalescing to exactly-equal isovalues.
    coalesce:
        Whether concurrent requests for the same λ-bucket attach to one
        in-flight extraction instead of re-reading.
    """

    block_cache_bytes: int = 0
    result_cache_bytes: int = 0
    lambda_bucket: float = 0.0
    coalesce: bool = True

    def __post_init__(self) -> None:
        if self.block_cache_bytes < 0:
            raise ValueError(
                f"block_cache_bytes must be >= 0, got {self.block_cache_bytes}"
            )
        if self.result_cache_bytes < 0:
            raise ValueError(
                f"result_cache_bytes must be >= 0, got {self.result_cache_bytes}"
            )
        if self.lambda_bucket < 0:
            raise ValueError(
                f"lambda_bucket must be >= 0, got {self.lambda_bucket}"
            )

    def block_cache_blocks(self, block_size: int) -> int:
        """Whole-block capacity implied by ``block_cache_bytes``."""
        if block_size <= 0:
            raise ValueError(f"block_size must be > 0, got {block_size}")
        return self.block_cache_bytes // block_size

    def bucket_of(self, lam: float) -> float:
        """The λ-bucket key ``lam`` falls in (``lam`` itself when the
        bucket width is 0 — exact-match coalescing only)."""
        if self.lambda_bucket <= 0.0:
            return float(lam)
        return float(math.floor(float(lam) / self.lambda_bucket))


#: Cache-free defaults (what every query ran with before CacheOptions).
DEFAULT_CACHE_OPTIONS = CacheOptions()


class CachedDevice:
    """LRU block cache in front of a block device.

    Parameters
    ----------
    backing:
        The device to cache (its cost model defines the block size).
    capacity_blocks:
        Cache size in blocks; this times the block size is the memory
        the cache is allowed (the paper's nodes have 8 GB against 60 GB
        disks — a ~13% cache, easily enough for a working set of hot
        bricks).
    """

    def __init__(self, backing, capacity_blocks: int) -> None:
        if capacity_blocks < 1:
            raise ValueError(f"capacity must be >= 1 block, got {capacity_blocks}")
        self.backing = backing
        self.capacity_blocks = capacity_blocks
        self.cost_model: IOCostModel = backing.cost_model
        self._meter = _Meter(self.cost_model)
        self.cache_stats = CacheStats()
        self._lru: "OrderedDict[int, bytes]" = OrderedDict()

    # -- BlockDevice interface -------------------------------------------------

    @property
    def stats(self) -> IOStats:
        """Logical (pre-cache) read accounting."""
        return self._meter.stats

    @property
    def size(self) -> int:
        return self.backing.size

    def allocate(self, nbytes: int) -> int:
        return self.backing.allocate(nbytes)

    def write(self, offset: int, data: bytes) -> None:
        self.backing.write(offset, data)
        bs = self.cost_model.block_size
        first = offset // bs
        last = (offset + max(len(data), 1) - 1) // bs
        for b in range(first, last + 1):
            if b in self._lru:
                del self._lru[b]
                self.cache_stats.invalidations += 1

    def _block(self, block_id: int) -> bytes:
        if block_id in self._lru:
            self._lru.move_to_end(block_id)
            self.cache_stats.hits += 1
            return self._lru[block_id]
        self.cache_stats.misses += 1
        bs = self.cost_model.block_size
        start = block_id * bs
        length = min(bs, self.backing.size - start)
        data = self.backing.read(start, length)
        self._lru[block_id] = data
        if len(self._lru) > self.capacity_blocks:
            self._lru.popitem(last=False)
            self.cache_stats.evictions += 1
        return data

    def read(self, offset: int, nbytes: int) -> bytes:
        end = offset + nbytes
        if offset < 0 or nbytes < 0 or end > self.size:
            raise ValueError(
                f"read [{offset}, {end}) outside allocated region of {self.size} bytes"
            )
        self._meter.record_read(offset, nbytes)
        if nbytes == 0:
            return b""
        bs = self.cost_model.block_size
        first = offset // bs
        last = (end - 1) // bs
        if first == last:
            # Single-block read (the Case-2 prefix-scan common case):
            # slice the cached block directly, no join round trip.
            lo = offset - first * bs
            return self._block(first)[lo : lo + nbytes]
        parts = [self._block(b) for b in range(first, last + 1)]
        blob = b"".join(parts)
        lo = offset - first * bs
        return blob[lo : lo + nbytes]

    def reset_stats(self) -> None:
        self._meter.stats.reset()
        self._meter._next_sequential_block = -1

    def clear_cache(self) -> None:
        self._lru.clear()
