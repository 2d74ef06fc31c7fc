"""Tests for streaming (slab-based) preprocessing."""

import numpy as np
import pytest

from repro.core.builder import build_indexed_dataset
from repro.core.query import QueryOptions, execute_query
from repro.core.streaming import (
    FunctionSlabSource,
    VolumeSlabSource,
    build_indexed_dataset_streaming,
)
from repro.grid.datasets import sphere_field
from repro.grid.rm_instability import RMInstabilityModel
from repro.grid.volume import Volume


class TestSlabSources:
    def test_volume_source_covers_all_layers(self):
        vol = sphere_field((17, 17, 21))
        slabs = list(VolumeSlabSource(vol).slabs(thickness=5, overlap=1))
        starts = [z for z, _ in slabs]
        assert starts == [0, 4, 8, 12, 16]
        # Adjacent slabs share exactly one plane.
        for (z1, s1), (z2, s2) in zip(slabs, slabs[1:]):
            assert np.array_equal(s1[:, :, -1], s2[:, :, 0])

    def test_function_source_lazy(self):
        vol = sphere_field((17, 17, 21))
        calls = []

        def fn(z0, z1):
            calls.append((z0, z1))
            return vol.data[:, :, z0:z1]

        src = FunctionSlabSource(fn, shape=vol.shape, dtype=vol.dtype)
        list(src.slabs(thickness=5, overlap=1))
        assert calls[0] == (0, 5)
        assert calls[-1] == (16, 21)

    def test_function_source_shape_check(self):
        src = FunctionSlabSource(
            lambda a, b: np.zeros((3, 3, 1)), shape=(9, 9, 9), dtype=np.uint8
        )
        with pytest.raises(ValueError, match="slab fn returned"):
            list(src.slabs(thickness=5, overlap=1))


class TestEquivalence:
    @pytest.mark.parametrize(
        "shape,m", [((17, 17, 17), 5), ((13, 17, 21), 5), ((19, 11, 15), 3)]
    )
    def test_streaming_equals_in_memory(self, shape, m):
        """Streamed preprocessing must produce the identical index and
        identical on-disk records as the in-memory builder."""
        rng = np.random.default_rng(42)
        vol = Volume(rng.integers(0, 200, size=shape).astype(np.uint8))
        mem = build_indexed_dataset(vol, (m, m, m))
        stream = build_indexed_dataset_streaming(VolumeSlabSource(vol), (m, m, m))

        assert stream.report == mem.report
        assert np.array_equal(stream.tree.record_ids, mem.tree.record_ids)
        assert np.array_equal(stream.tree.record_vmins, mem.tree.record_vmins)
        # Byte-identical stores.
        a = mem.device.read(mem.base_offset, mem.n_records * mem.codec.record_size)
        b = stream.device.read(
            stream.base_offset, stream.n_records * stream.codec.record_size
        )
        assert a == b
        # ... and identical checksum tables, so streamed stores are
        # CRC-verified on every query like any other build.
        for table in ("record_crcs", "brick_crcs", "cum_crcs"):
            assert np.array_equal(
                getattr(stream.checksums, table), getattr(mem.checksums, table)
            ), table

    def test_queries_match(self):
        vol = sphere_field((25, 25, 25))
        mem = build_indexed_dataset(vol, (5, 5, 5))
        stream = build_indexed_dataset_streaming(VolumeSlabSource(vol), (5, 5, 5))
        for lam in (0.3, 0.7, 1.2):
            ra = execute_query(mem, lam)
            # verify_checksums=True raises on a store without CRC tables.
            rb = execute_query(stream, lam, QueryOptions(verify_checksums=True))
            assert np.array_equal(np.sort(ra.records.ids), np.sort(rb.records.ids))
            assert np.array_equal(
                ra.records.values[np.argsort(ra.records.ids)],
                rb.records.values[np.argsort(rb.records.ids)],
            )


class TestTrueStreaming:
    def test_rm_generator_without_full_volume(self):
        """Stream the RM field slab by slab — the fn only ever sees a
        slab-sized z range, proving the full volume is never needed."""
        shape = (33, 33, 41)
        model = RMInstabilityModel(shape=shape, n_steps=100)
        full = model.evaluate(60)  # reference only

        max_dz = []

        def fn(z0, z1):
            max_dz.append(z1 - z0)
            return full.data[:, :, z0:z1]  # stands in for slabwise evaluation

        src = FunctionSlabSource(
            fn, shape=shape, dtype=np.dtype(np.uint8), name="rm_streamed"
        )
        ds = build_indexed_dataset_streaming(src, (5, 5, 5))
        assert max(max_dz) <= 5
        ref = build_indexed_dataset(full, (5, 5, 5))
        assert ds.report.n_metacells_stored == ref.report.n_metacells_stored
        res = execute_query(ds, 128.0)
        ref_res = execute_query(ref, 128.0)
        assert np.array_equal(
            np.sort(res.records.ids), np.sort(ref_res.records.ids)
        )

    def test_thin_final_slab(self):
        """nz not congruent: the last slab is thinner and gets padded."""
        rng = np.random.default_rng(7)
        vol = Volume(rng.integers(0, 99, size=(9, 9, 11)).astype(np.uint8))
        mem = build_indexed_dataset(vol, (5, 5, 5))
        stream = build_indexed_dataset_streaming(VolumeSlabSource(vol), (5, 5, 5))
        assert stream.report == mem.report
        for lam in (20.0, 50.0):
            assert np.array_equal(
                np.sort(execute_query(stream, lam).records.ids),
                np.sort(execute_query(mem, lam).records.ids),
            )
