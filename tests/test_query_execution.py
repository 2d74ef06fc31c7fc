"""Tests for out-of-core query execution against block devices."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.builder import build_indexed_dataset
from repro.core.intervals import IntervalSet
from repro.core.persistence import build_persistent_dataset, load_dataset
from repro.core.query import QueryOptions, execute_query
from repro.grid.datasets import gyroid_field, sphere_field
from repro.grid.rm_instability import rm_timestep
from repro.grid.volume import Volume
from repro.io.cost_model import IOCostModel


class TestCorrectness:
    @pytest.mark.parametrize("lam", [-0.5, 0.0, 0.3, 0.6, 0.9, 1.2, 1.7, 3.0])
    def test_matches_bruteforce_oracle(self, sphere_dataset, sphere_intervals, lam):
        res = execute_query(sphere_dataset, lam)
        assert np.array_equal(np.sort(res.records.ids), sphere_intervals.stabbing_ids(lam))

    def test_matches_in_memory_tree(self, sphere_dataset):
        for lam in (0.2, 0.7, 1.1):
            res = execute_query(sphere_dataset, lam)
            assert np.array_equal(
                np.sort(res.records.ids), sphere_dataset.tree.query_ids(lam)
            )

    def test_record_payloads_are_correct(self, sphere_dataset, sphere_partition):
        """Payload read back from disk equals the original metacell data."""
        res = execute_query(sphere_dataset, 0.6)
        expect = sphere_partition.extract_values(res.records.ids)
        assert np.array_equal(res.records.values, expect)

    def test_vmin_consistency(self, sphere_dataset):
        res = execute_query(sphere_dataset, 0.6)
        assert np.all(res.records.vmins.astype(np.float64) <= 0.6)
        assert np.array_equal(
            res.records.vmins.astype(np.float64),
            res.records.values.astype(np.float64).min(axis=1),
        )

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**16), lam=st.integers(0, 255))
    def test_random_uint8_volumes(self, seed, lam):
        rng = np.random.default_rng(seed)
        vol = Volume(rng.integers(0, 255, size=(9, 9, 9)).astype(np.uint8))
        ds = build_indexed_dataset(vol, (5, 5, 5))
        iv = IntervalSet(
            vmin=np.empty(0, np.uint8), vmax=np.empty(0, np.uint8),
            ids=np.empty(0, np.uint32),
        )
        # Oracle straight from the partition:
        from repro.grid.metacell import partition_metacells

        part = partition_metacells(vol, (5, 5, 5))
        iv = IntervalSet.from_partition(part)
        res = execute_query(ds, float(lam))
        assert np.array_equal(np.sort(res.records.ids), iv.stabbing_ids(float(lam)))

    def test_in_memory_dataset_survives_pickling(self, sphere_dataset):
        # Spawned worker processes receive in-memory datasets by pickle.
        import pickle

        clone = pickle.loads(pickle.dumps(sphere_dataset))
        res, again = execute_query(sphere_dataset, 0.6), execute_query(clone, 0.6)
        assert again.plan == res.plan
        assert again.records.values.tobytes() == res.records.values.tobytes()
        assert again.n_records_read == res.n_records_read


class TestIOAccounting:
    def test_empty_query_reads_nothing(self, sphere_dataset):
        res = execute_query(sphere_dataset, -10.0)
        assert res.n_active == 0
        assert res.io_stats.blocks_read == 0
        assert res.io_stats.read_ops == 0

    def test_selective_query_reads_less_than_store(self, sphere_dataset):
        full = sphere_dataset.n_records * sphere_dataset.codec.record_size
        res = execute_query(sphere_dataset, 0.3)
        assert 0 < res.io_stats.bytes_read < full

    def test_overshoot_is_bounded(self, sphere_dataset):
        """Case 2 reads at most one terminator record per scanned brick
        plus block-granularity tails."""
        res = execute_query(sphere_dataset, 0.6)
        n_scans = res.plan.n_prefix_scans
        assert res.n_records_read - res.n_active <= n_scans + res.plan.n_sequential_runs

    def test_blocks_near_optimal(self, sphere_dataset):
        """Blocks read <= (active bytes / B) + O(runs) extra blocks."""
        model = sphere_dataset.device.cost_model
        res = execute_query(sphere_dataset, 0.9)
        optimal_blocks = -(-res.n_active * sphere_dataset.codec.record_size // model.block_size)
        n_runs = len(res.plan.runs)
        assert res.io_stats.blocks_read <= optimal_blocks + 2 * n_runs + 1

    def test_seeks_bounded_by_runs(self, sphere_dataset):
        res = execute_query(sphere_dataset, 0.9)
        assert res.io_stats.seeks <= len(res.plan.runs)

    def test_io_time_uses_cost_model(self, sphere_dataset):
        res = execute_query(sphere_dataset, 0.9)
        model = sphere_dataset.device.cost_model
        expected = model.time_for(res.io_stats.blocks_read, res.io_stats.seeks)
        assert res.io_time(model) == pytest.approx(expected)

    def test_small_block_device(self):
        """Tiny blocks exercise the incremental brick reader heavily."""
        vol = sphere_field((17, 17, 17))
        cm = IOCostModel(block_size=64, bandwidth=1e6, seek_latency=1e-4)
        ds = build_indexed_dataset(vol, (5, 5, 5), cost_model=cm)
        from repro.core.intervals import IntervalSet
        from repro.grid.metacell import partition_metacells

        iv = IntervalSet.from_partition(partition_metacells(vol, (5, 5, 5)))
        for lam in (0.2, 0.5, 1.0):
            res = execute_query(ds, lam)
            assert np.array_equal(np.sort(res.records.ids), iv.stabbing_ids(lam))

    def test_read_ahead_variants_agree(self, sphere_volume):
        ds = build_indexed_dataset(sphere_volume, (5, 5, 5))
        a = execute_query(ds, 0.7, QueryOptions(read_ahead_blocks=1))
        b = execute_query(ds, 0.7, QueryOptions(read_ahead_blocks=32))
        assert np.array_equal(np.sort(a.records.ids), np.sort(b.records.ids))
        with pytest.raises(ValueError):
            execute_query(ds, 0.7, QueryOptions(read_ahead_blocks=0))


class TestSelectivitySweep:
    def test_monotone_io_in_active_count(self):
        """More active metacells => more bytes read (the paper's linear
        relationship between I/O time and output size)."""
        vol = rm_timestep(200, shape=(33, 33, 29))
        ds = build_indexed_dataset(vol, (5, 5, 5))
        actives, bytes_read = [], []
        for lam in range(20, 240, 20):
            res = execute_query(ds, float(lam))
            actives.append(res.n_active)
            bytes_read.append(res.io_stats.bytes_read)
        actives = np.asarray(actives)
        bytes_read = np.asarray(bytes_read)
        order = np.argsort(actives)
        # bytes_read ~ active * record_size within block-granularity slack
        rec = ds.codec.record_size
        assert np.all(bytes_read >= actives * rec)
        assert np.all(bytes_read <= actives * rec + 4096 * (1 + actives))
        # and is monotone in the active count up to small slack
        b_sorted = bytes_read[order]
        assert np.all(np.diff(b_sorted) >= -8192)

    def test_gyroid_near_full_selectivity(self):
        """At iso 0 of a gyroid nearly everything is active: bytes read
        approach the full store size."""
        vol = gyroid_field((25, 25, 25))
        ds = build_indexed_dataset(vol, (5, 5, 5))
        res = execute_query(ds, 0.0)
        store = ds.n_records * ds.codec.record_size
        assert res.io_stats.bytes_read > 0.9 * store


class TestBoundedMemory:
    """One query holds a small multiple of the bytes it reads, never the
    store: the read buffers, their one joined copy and the decoded
    records (the read side of an out-of-core query's working set)."""

    #: Allowed ``tracemalloc`` peak: ``C_MAX`` x the query's bytes read
    #: (measured 2.0: the joined read buffers plus the decoded records)
    #: plus ``RUN_BYTES`` per planned run and ``FIXED`` bookkeeping.
    C_MAX, RUN_BYTES, FIXED = 2.5, 1024, 1 << 14

    def test_peak_is_bounded_by_the_bytes_read(self, tmp_path):
        field = sphere_field((129, 129, 129)).data
        vol = Volume(np.round(field / field.max() * 250).astype(np.uint8))
        build_persistent_dataset(vol, tmp_path, (9, 9, 9)).device.close()
        ds = load_dataset(tmp_path)
        try:
            ends = ds.tree.endpoints.astype(np.float64)
            lams = np.linspace(ends[0], ends[-1], 9)
            # Warm-up: one-off allocations (walk table, struct and dtype
            # caches) stay out of the measured peaks.
            execute_query(ds, float(lams[4]))
            for lam in lams:
                tracemalloc.start()
                try:
                    res = execute_query(ds, float(lam))
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                read, runs = res.io_stats.bytes_read, res.plan.n_runs
                c = (peak - self.FIXED - self.RUN_BYTES * runs) / read
                assert c <= self.C_MAX, (
                    f"lam {lam:.1f}: peak {peak} B = c x {read} B read + "
                    f"{self.RUN_BYTES} B x {runs} runs + {self.FIXED} B with "
                    f"c = {c:.2f} > {self.C_MAX} (store {ds.device.size} B)"
                )
        finally:
            ds.device.close()
