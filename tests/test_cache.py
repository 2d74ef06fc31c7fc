"""Tests for the LRU block cache device."""

import numpy as np
import pytest

from repro.core.builder import build_indexed_dataset
from repro.core.query import execute_query
from repro.grid.datasets import sphere_field
from repro.io.blockdevice import SimulatedBlockDevice
from repro.io.cache import CachedDevice
from repro.io.cost_model import IOCostModel


@pytest.fixture()
def pair(small_cost_model):
    backing = SimulatedBlockDevice(small_cost_model)  # 512-byte blocks
    cached = CachedDevice(backing, capacity_blocks=4)
    off = cached.allocate(512 * 16)
    rng = np.random.default_rng(0)
    cached.write(off, rng.integers(0, 255, 512 * 16).astype(np.uint8).tobytes())
    backing.reset_stats()
    cached.reset_stats()
    return backing, cached


class TestCorrectness:
    def test_reads_match_backing(self, pair):
        backing, cached = pair
        for off, n in [(0, 100), (500, 600), (512 * 3, 512), (512 * 15, 512)]:
            assert cached.read(off, n) == bytes(backing._buf[off : off + n])

    def test_repeat_read_is_a_hit(self, pair):
        backing, cached = pair
        cached.read(0, 512)
        misses0 = cached.cache_stats.misses
        cached.read(0, 512)
        assert cached.cache_stats.misses == misses0
        assert cached.cache_stats.hits >= 1

    def test_backing_traffic_reduced(self, pair):
        backing, cached = pair
        for _ in range(5):
            cached.read(0, 1024)
        assert cached.stats.read_ops == 5
        assert backing.stats.read_ops == 2  # two blocks fetched once each

    def test_eviction_at_capacity(self, pair):
        backing, cached = pair
        for b in range(6):  # capacity is 4
            cached.read(b * 512, 512)
        assert cached.cache_stats.evictions == 2
        # Block 0 was evicted: reading it again misses.
        misses0 = cached.cache_stats.misses
        cached.read(0, 512)
        assert cached.cache_stats.misses == misses0 + 1

    def test_lru_order(self, pair):
        backing, cached = pair
        for b in range(4):
            cached.read(b * 512, 512)
        cached.read(0, 512)  # touch block 0 -> most recent
        cached.read(4 * 512, 512)  # evicts block 1, not 0
        misses0 = cached.cache_stats.misses
        cached.read(0, 512)
        assert cached.cache_stats.misses == misses0  # still cached

    def test_write_invalidates(self, pair):
        backing, cached = pair
        cached.read(0, 512)
        cached.write(10, b"\xff" * 8)
        assert cached.cache_stats.invalidations == 1
        assert cached.read(10, 8) == b"\xff" * 8

    def test_bounds_checked(self, pair):
        _, cached = pair
        with pytest.raises(ValueError):
            cached.read(512 * 16 - 4, 8)

    def test_bad_capacity(self, pair):
        backing, _ = pair
        with pytest.raises(ValueError):
            CachedDevice(backing, capacity_blocks=0)

    def test_hit_rate_and_clear(self, pair):
        _, cached = pair
        cached.read(0, 512)
        cached.read(0, 512)
        assert cached.cache_stats.hit_rate == pytest.approx(0.5)
        cached.clear_cache()
        cached.read(0, 512)
        assert cached.cache_stats.misses == 2


class TestWithQueries:
    def test_repeated_isovalue_hits_cache(self):
        backing = SimulatedBlockDevice(IOCostModel(block_size=1024))
        cached = CachedDevice(backing, capacity_blocks=512)
        ds = build_indexed_dataset(sphere_field((25, 25, 25)), (5, 5, 5), device=cached)
        backing.reset_stats()

        r1 = execute_query(ds, 0.7)
        disk_first = backing.stats.blocks_read
        r2 = execute_query(ds, 0.7)
        disk_second = backing.stats.blocks_read - disk_first
        assert np.array_equal(r1.records.ids, r2.records.ids)
        assert disk_second == 0  # fully cached replay
        assert r2.io_stats.blocks_read == r1.io_stats.blocks_read  # logical equal

    def test_nearby_isovalues_share_blocks(self):
        backing = SimulatedBlockDevice(IOCostModel(block_size=1024))
        cached = CachedDevice(backing, capacity_blocks=512)
        ds = build_indexed_dataset(sphere_field((25, 25, 25)), (5, 5, 5), device=cached)
        backing.reset_stats()
        execute_query(ds, 0.70)
        first = backing.stats.blocks_read
        execute_query(ds, 0.72)
        second = backing.stats.blocks_read - first
        assert second < first  # most of the working set was shared


class TestCacheMetricsExport:
    """Satellite: CacheStats surfaced through MetricsRegistry as
    ``cache.*`` gauges (the ``repro metrics`` view)."""

    def test_absorb_cache_stats_publishes_gauges(self):
        from repro.io.cache import CacheStats
        from repro.obs.metrics import MetricsRegistry

        m = MetricsRegistry()
        m.absorb_cache_stats(CacheStats(hits=8, misses=4, evictions=2,
                                        invalidations=1))
        assert m.value("cache.hits") == 8
        assert m.value("cache.misses") == 4
        assert m.value("cache.evictions") == 2
        assert m.value("cache.invalidations") == 1
        assert m.value("cache.hit_rate") == pytest.approx(8 / 12)
        # Gauges carry cumulative snapshots: re-absorbing the same stats
        # must not double-count.
        m.absorb_cache_stats(CacheStats(hits=8, misses=4, evictions=2,
                                        invalidations=1))
        assert m.value("cache.hits") == 8

    def test_cluster_cache_stats_aggregates_and_publishes(self):
        from repro.io.cache import CacheOptions
        from repro.obs.metrics import MetricsRegistry
        from repro.parallel.cluster import ExtractRequest, SimulatedCluster
        from repro.parallel.perfmodel import PAPER_CLUSTER

        block_size = PAPER_CLUSTER.disk.block_size
        cluster = SimulatedCluster(
            sphere_field((25, 25, 25)), 4, metacell_shape=(5, 5, 5),
            cache=CacheOptions(block_cache_bytes=64 * block_size),
        )
        m = MetricsRegistry()
        cluster.extract(0.8, ExtractRequest(metrics=m))
        cluster.extract(0.8, ExtractRequest(metrics=m))
        stats = cluster.cache_stats()
        assert stats is not None
        assert stats.hits > 0  # the replay hit the per-node caches
        assert m.value("cache.hits") == stats.hits
        assert m.value("cache.misses") == stats.misses

    def test_cluster_without_cache_reports_none(self):
        from repro.parallel.cluster import SimulatedCluster

        cluster = SimulatedCluster(
            sphere_field((25, 25, 25)), 2, metacell_shape=(5, 5, 5)
        )
        assert cluster.cache_stats() is None


class TestCacheOptions:
    """The unified cache-configuration value (API redesign satellite)."""

    def test_defaults_disable_everything(self):
        from repro.io.cache import DEFAULT_CACHE_OPTIONS

        assert DEFAULT_CACHE_OPTIONS.block_cache_bytes == 0
        assert DEFAULT_CACHE_OPTIONS.result_cache_bytes == 0
        assert DEFAULT_CACHE_OPTIONS.lambda_bucket == 0.0
        assert DEFAULT_CACHE_OPTIONS.coalesce

    def test_validation(self):
        from repro.io.cache import CacheOptions

        with pytest.raises(ValueError):
            CacheOptions(block_cache_bytes=-1)
        with pytest.raises(ValueError):
            CacheOptions(result_cache_bytes=-1)
        with pytest.raises(ValueError):
            CacheOptions(lambda_bucket=-0.5)

    def test_block_conversion_and_buckets(self):
        from repro.io.cache import CacheOptions

        co = CacheOptions(block_cache_bytes=10_000, lambda_bucket=0.1)
        assert co.block_cache_blocks(1024) == 9
        with pytest.raises(ValueError):
            co.block_cache_blocks(0)
        assert co.bucket_of(0.42) == co.bucket_of(0.49)
        assert co.bucket_of(0.42) != co.bucket_of(0.51)
        # Zero width: the bucket is the isovalue itself (exact matching).
        exact = CacheOptions()
        assert exact.bucket_of(0.42) == 0.42

    def test_cache_blocks_ctor_alias_is_gone(self):
        # CacheOptions is the one spelling of a block-cache budget
        # (exercised by test_cluster_cache_stats_aggregates_and_publishes).
        from repro.parallel.cluster import SimulatedCluster

        with pytest.raises(TypeError, match="cache_blocks"):
            SimulatedCluster(
                sphere_field((20, 20, 20)), 2, metacell_shape=(5, 5, 5),
                cache_blocks=8,
            )
