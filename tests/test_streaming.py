"""Tests for slab-streamed preprocessing through the durable builder.

A :class:`FunctionSlabSource` hands the journaled builder one metacell
layer (along axis 0) at a time; the directory it writes must be the one
the in-memory ``Volume`` build of the same data writes.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.builder import FunctionSlabSource, build_indexed_dataset
from repro.core.persistence import (
    BRICKS_FILE,
    INDEX_FILE,
    META_FILE,
    build_persistent_dataset,
)
from repro.core.query import QueryOptions, execute_query
from repro.grid.datasets import sphere_field
from repro.grid.rm_instability import RMInstabilityModel
from repro.grid.volume import Volume


def slab_source(vol, calls=None):
    """``vol`` served one slab at a time (optionally logging the calls)."""

    def fn(x0, x1):
        if calls is not None:
            calls.append((x0, x1))
        return vol.data[x0:x1]

    return FunctionSlabSource(fn, vol.shape, vol.dtype, name=vol.name)


def artifacts(directory) -> dict:
    """Brick bytes, every index array and the ``meta.json`` text."""
    with np.load(directory / INDEX_FILE) as npz:
        index = {name: npz[name] for name in npz.files}
    return {
        "bricks": (directory / BRICKS_FILE).read_bytes(),
        "index": index,
        "meta": (directory / META_FILE).read_text(),
    }


def assert_same_artifacts(a, b):
    a, b = artifacts(a), artifacts(b)
    assert a["bricks"] == b["bricks"]
    assert a["meta"] == b["meta"]
    assert sorted(a["index"]) == sorted(b["index"])
    for name, arr in a["index"].items():
        other = b["index"][name]
        assert arr.dtype == other.dtype and np.array_equal(arr, other), name


class TestSlabSources:
    def test_function_source_lazy(self, tmp_path):
        """Pass 1 and pass 2 each ask for every metacell layer along axis
        0 once, in order: ``m - 1`` planes plus the shared boundary."""
        vol = sphere_field((21, 17, 17))
        calls = []
        build_persistent_dataset(slab_source(vol, calls), tmp_path, (5, 5, 5))
        layers = [(0, 5), (4, 9), (8, 13), (12, 17), (16, 21)]
        assert calls == layers + layers

    def test_function_source_shape_check(self, tmp_path):
        src = FunctionSlabSource(
            lambda a, b: np.zeros((3, 3, 1)), shape=(9, 9, 9), dtype=np.uint8
        )
        with pytest.raises(ValueError, match="slab fn returned"):
            build_persistent_dataset(src, tmp_path, (5, 5, 5))

    def test_source_changed_between_passes_is_refused(self, tmp_path):
        """Pass 2 re-streams the source; if it hands back other planes than
        pass 1 planned, the build raises before anything is published."""
        vol = Volume(sphere_field((17, 17, 17)).data)
        seen = set()

        def fn(x0, x1):
            data = vol.data[x0:x1].copy()
            if (x0, x1) in seen:  # the second pass reads other values
                data[-1, 0, 0] += 1
            seen.add((x0, x1))
            return data

        changing = FunctionSlabSource(fn, vol.shape, vol.dtype)
        with pytest.raises(ValueError, match="changed between"):
            build_persistent_dataset(changing, tmp_path / "s", (5, 5, 5))
        assert not (tmp_path / "s" / META_FILE).exists()
        seen.clear()
        with pytest.raises(ValueError, match="changed between"):
            build_indexed_dataset(changing, (5, 5, 5))
        # A rerun from a steady source starts over and commits the right store.
        build_persistent_dataset(slab_source(vol), tmp_path / "s", (5, 5, 5))
        build_persistent_dataset(vol, tmp_path / "v", (5, 5, 5))
        assert_same_artifacts(tmp_path / "s", tmp_path / "v")


class TestBoundedMemory:
    """A file-backed build of a multi-slab source holds one slab plus
    per-metacell arrays, whatever the depth of the volume along axis 0."""

    M, NY, NZ = 17, 129, 129
    #: Allowed ``tracemalloc`` peak: ``C_MAX`` slabs (measured 3.3) plus
    #: ``METACELL_BYTES`` per metacell of the whole volume (the in-memory
    #: index of distinct float endpoints costs about 470).
    C_MAX, METACELL_BYTES = 6.0, 512

    def source(self, layers):
        """``layers`` metacell layers of a float32 field computed slab by
        slab — no array of the whole volume ever exists."""
        yz = np.add.outer(
            np.sin(0.37 * np.arange(self.NY)), np.cos(0.23 * np.arange(self.NZ))
        ).astype(np.float32)

        def fn(x0, x1):
            return np.sin(0.11 * np.arange(x0, x1, dtype=np.float32))[:, None, None] + yz

        nx = layers * (self.M - 1) + 1
        return FunctionSlabSource(fn, (nx, self.NY, self.NZ), np.float32)

    def test_peak_is_one_slab_not_the_volume(self, tmp_path):
        mc = (self.M,) * 3
        # Warm-up: one-off allocations (imports, table caches) stay out
        # of the measured peaks.
        build_persistent_dataset(self.source(2), tmp_path / "warm", mc).device.close()
        slab = self.M * self.NY * self.NZ * 4
        peaks = {}
        for layers in (2, 16):  # 1x and 8x the depth, same ny x nz
            tracemalloc.start()
            try:
                ds = build_persistent_dataset(self.source(layers), tmp_path / str(layers), mc)
                peaks[layers] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            ds.device.close()
            n_mc = ds.report.n_metacells_total
            c = (peaks[layers] - self.METACELL_BYTES * n_mc) / slab
            assert c <= self.C_MAX, (
                f"{layers} layers: peak {peaks[layers]} B = c x one slab ({slab} B) "
                f"+ {self.METACELL_BYTES} B x {n_mc} metacells with c = {c:.2f} "
                f"> {self.C_MAX}"
            )
        ratio = peaks[16] / peaks[2]
        assert ratio < 1.2, f"peak grows with depth: 8x / 1x = {ratio:.3f} ({peaks})"


class TestEquivalence:
    @pytest.mark.parametrize(
        "shape,m", [((17, 17, 17), 5), ((13, 17, 21), 5), ((19, 11, 15), 3)]
    )
    def test_streaming_equals_in_memory(self, shape, m, tmp_path):
        """Streamed preprocessing must produce the identical index, the
        identical on-disk records and the identical checksum tables as
        the build of the in-memory volume."""
        rng = np.random.default_rng(42)
        vol = Volume(rng.integers(0, 200, size=shape).astype(np.uint8))
        mem = build_indexed_dataset(vol, (m, m, m))
        stream = build_persistent_dataset(slab_source(vol), tmp_path / "s", (m, m, m))
        build_persistent_dataset(vol, tmp_path / "v", (m, m, m))
        assert_same_artifacts(tmp_path / "s", tmp_path / "v")

        assert stream.report == mem.report
        assert np.array_equal(stream.tree.record_ids, mem.tree.record_ids)
        assert (tmp_path / "s" / BRICKS_FILE).read_bytes() == mem.device.read(
            mem.base_offset, mem.n_records * mem.codec.record_size
        )
        for table in ("record_crcs", "brick_crcs", "cum_crcs"):
            assert np.array_equal(
                getattr(stream.checksums, table), getattr(mem.checksums, table)
            ), table

    @pytest.mark.parametrize("dtype", [np.uint8, np.float32])
    @pytest.mark.parametrize(
        "shape",
        [(18, 17, 17), (17, 18, 17), (17, 17, 18), (14, 15, 19), (10, 9, 9)],
        ids=["pad-x", "pad-y", "pad-z", "pad-all", "thin-final-slab"],
    )
    def test_slab_build_equals_volume_build(self, shape, dtype, tmp_path):
        rng = np.random.default_rng(3)
        data = rng.integers(0, 50, size=shape).astype(dtype)
        data[:5] = 7  # a constant corner, culled
        vol = Volume(data)
        build_persistent_dataset(slab_source(vol), tmp_path / "s", (5, 5, 5),
                                 group_records=8)
        build_persistent_dataset(vol, tmp_path / "v", (5, 5, 5), group_records=8)
        assert_same_artifacts(tmp_path / "s", tmp_path / "v")

    def test_queries_match(self, tmp_path):
        vol = sphere_field((25, 25, 25))
        mem = build_indexed_dataset(vol, (5, 5, 5))
        stream = build_persistent_dataset(slab_source(vol), tmp_path, (5, 5, 5))
        for lam in (0.3, 0.7, 1.2):
            ra = execute_query(mem, lam)
            # verify_checksums=True raises on a store without CRC tables.
            rb = execute_query(stream, lam, QueryOptions(verify_checksums=True))
            assert np.array_equal(np.sort(ra.records.ids), np.sort(rb.records.ids))
            assert np.array_equal(
                ra.records.values[np.argsort(ra.records.ids)],
                rb.records.values[np.argsort(rb.records.ids)],
            )
        stream.device.close()


class TestTrueStreaming:
    def test_rm_generator_without_full_volume(self, tmp_path):
        """Stream the RM field slab by slab — the fn only ever sees a
        one-layer x range, proving the full volume is never needed."""
        shape = (41, 33, 33)
        model = RMInstabilityModel(shape=shape, n_steps=100)
        full = model.evaluate(60)  # reference only

        max_dx = []

        def fn(x0, x1):
            max_dx.append(x1 - x0)
            return full.data[x0:x1]  # stands in for slabwise evaluation

        src = FunctionSlabSource(
            fn, shape=shape, dtype=np.dtype(np.uint8), name="rm_streamed"
        )
        ds = build_persistent_dataset(src, tmp_path, (5, 5, 5))
        assert max(max_dx) <= 5
        ref = build_indexed_dataset(full, (5, 5, 5))
        assert ds.report.n_metacells_stored == ref.report.n_metacells_stored
        res = execute_query(ds, 128.0)
        ref_res = execute_query(ref, 128.0)
        assert np.array_equal(
            np.sort(res.records.ids), np.sort(ref_res.records.ids)
        )
        ds.device.close()

    def test_thin_final_slab(self, tmp_path):
        """nx not congruent: the last slab is thinner and gets padded."""
        rng = np.random.default_rng(7)
        vol = Volume(rng.integers(0, 99, size=(11, 9, 9)).astype(np.uint8))
        calls = []
        stream = build_persistent_dataset(slab_source(vol, calls), tmp_path, (5, 5, 5))
        assert calls[-1] == (8, 11)
        mem = build_indexed_dataset(vol, (5, 5, 5))
        assert stream.report == mem.report
        for lam in (20.0, 50.0):
            assert np.array_equal(
                np.sort(execute_query(stream, lam).records.ids),
                np.sort(execute_query(mem, lam).records.ids),
            )
        stream.device.close()
