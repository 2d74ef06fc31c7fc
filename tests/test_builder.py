"""Tests for the preprocessing pipeline (builder)."""

import zlib

import numpy as np
import pytest

from repro.core.builder import (
    DatasetMeta,
    build_indexed_dataset,
    build_striped_datasets,
    encode_group,
)
from repro.core.query import execute_query
from repro.grid.datasets import sphere_field
from repro.grid.rm_instability import rm_timestep
from repro.io.diskfile import FileBackedDevice
from repro.io.layout import MetacellCodec, compute_crc_tables, compute_record_crcs


class TestSerialBuild:
    def test_report_counts(self):
        vol = rm_timestep(200, shape=(33, 33, 29))
        ds = build_indexed_dataset(vol, (5, 5, 5))
        rep = ds.report
        assert rep.n_metacells_total == rep.n_metacells_culled + rep.n_metacells_stored
        assert rep.n_metacells_stored == ds.n_records
        assert rep.stored_bytes == ds.n_records * ds.codec.record_size
        assert rep.index_bytes == ds.tree.index_size_bytes()
        # Saving can be negative for tiny metacells (boundary-layer overhead
        # exceeds culling); it is bounded above by 1.
        assert rep.space_saving < 1.0

    def test_rm_space_saving_regime(self):
        """The paper reports ~50% disk saving from culling on RM data."""
        vol = rm_timestep(120, shape=(65, 65, 57))
        ds = build_indexed_dataset(vol, (9, 9, 9))
        assert ds.report.space_saving > 0.1

    def test_device_holds_all_records(self, sphere_dataset):
        expect = sphere_dataset.n_records * sphere_dataset.codec.record_size
        assert sphere_dataset.device.size >= expect

    def test_drop_constant_false_keeps_everything(self):
        vol = rm_timestep(120, shape=(33, 33, 29))
        ds = build_indexed_dataset(vol, (5, 5, 5), drop_constant=False)
        assert ds.n_records == ds.report.n_metacells_total

    def test_record_offsets(self, sphere_dataset):
        rec = sphere_dataset.codec.record_size
        assert sphere_dataset.record_offset(0) == sphere_dataset.base_offset
        assert sphere_dataset.record_offset(5) == sphere_dataset.base_offset + 5 * rec

    def test_file_backed_device(self, tmp_path, sphere_volume, sphere_intervals):
        dev = FileBackedDevice(tmp_path / "sphere.dat")
        ds = build_indexed_dataset(sphere_volume, (5, 5, 5), device=dev)
        res = execute_query(ds, 0.6)
        assert np.array_equal(np.sort(res.records.ids), sphere_intervals.stabbing_ids(0.6))
        dev.close()
        assert (tmp_path / "sphere.dat").stat().st_size == dev.size


class TestStripedBuild:
    @pytest.mark.parametrize("p", [1, 2, 4, 8])
    def test_union_matches_serial(self, sphere_volume, sphere_intervals, p):
        dss = build_striped_datasets(sphere_volume, p, (5, 5, 5))
        assert len(dss) == p
        for lam in (0.3, 0.8):
            ids = np.sort(
                np.concatenate([execute_query(d, lam).records.ids for d in dss])
            )
            assert np.array_equal(ids, sphere_intervals.stabbing_ids(lam))

    def test_shared_report_and_meta(self, sphere_volume):
        dss = build_striped_datasets(sphere_volume, 4, (5, 5, 5))
        assert all(d.report is dss[0].report for d in dss)
        assert all(d.meta == dss[0].meta for d in dss)
        assert [d.node_rank for d in dss] == [0, 1, 2, 3]
        assert all(d.n_cluster_nodes == 4 for d in dss)

    def test_total_records_preserved(self, sphere_volume):
        serial = build_indexed_dataset(sphere_volume, (5, 5, 5))
        dss = build_striped_datasets(sphere_volume, 3, (5, 5, 5))
        assert sum(d.n_records for d in dss) == serial.n_records

    def test_custom_devices(self, tmp_path, sphere_volume):
        devices = [FileBackedDevice(tmp_path / f"node{q}.dat") for q in range(2)]
        dss = build_striped_datasets(sphere_volume, 2, (5, 5, 5), devices=devices)
        assert dss[0].device is devices[0]
        for d in devices:
            d.close()

    def test_device_count_mismatch(self, sphere_volume):
        with pytest.raises(ValueError):
            build_striped_datasets(sphere_volume, 2, (5, 5, 5), devices=[None])

    def test_invalid_p(self, sphere_volume):
        with pytest.raises(ValueError):
            build_striped_datasets(sphere_volume, 0, (5, 5, 5))


class TestDatasetMeta:
    def test_id_mapping_roundtrip(self):
        meta = DatasetMeta(
            grid_shape=(3, 4, 5),
            metacell_shape=(9, 9, 9),
            volume_shape=(17, 25, 33),
            spacing=(1, 1, 1),
            origin=(0, 0, 0),
            name="t",
        )
        ids = np.arange(meta.n_metacells)
        ijk = meta.id_to_ijk(ids)
        flat = (ijk[:, 0] * 4 + ijk[:, 1]) * 5 + ijk[:, 2]
        assert np.array_equal(flat, ids)

    def test_vertex_origins_scaled_by_cells(self):
        meta = DatasetMeta(
            grid_shape=(2, 2, 2),
            metacell_shape=(5, 5, 5),
            volume_shape=(9, 9, 9),
            spacing=(1, 1, 1),
            origin=(0, 0, 0),
            name="t",
        )
        origins = meta.vertex_origins(np.array([7]))  # ijk = (1,1,1)
        assert np.array_equal(origins[0], [4, 4, 4])


def compute_cum_crcs(blob, record_size, initial=0):
    """The cumulative-table loop ``compute_crc_tables`` absorbed, kept
    verbatim as its oracle."""
    view = memoryview(blob)
    n = len(view) // record_size
    out = np.empty(n + 1, dtype=np.uint32)
    c = initial & 0xFFFFFFFF
    out[0] = c
    for p in range(n):
        c = zlib.crc32(view[p * record_size : (p + 1) * record_size], c)
        out[p + 1] = c
    return out


class TestGroupRoutine:
    """The gather -> encode routine and the checksum tables of every
    layout write, against the single-table loops they replaced."""

    @pytest.mark.parametrize("record_size", [1, 9, 130, 734])
    @pytest.mark.parametrize("n", [0, 1, 2, 57])
    def test_crc_tables_equal_the_two_single_table_passes(self, record_size, n):
        rng = np.random.default_rng(record_size * 100 + n)
        # Three trailing bytes of a partial record are ignored, as in decode.
        blob = rng.integers(0, 256, record_size * n + min(3, record_size - 1),
                            dtype=np.uint8).tobytes()
        for initial in (0, 0xDEADBEEF):
            crcs, cum = compute_crc_tables(blob, record_size, initial)
            assert crcs.dtype == cum.dtype == np.uint32
            assert np.array_equal(crcs, compute_record_crcs(blob, record_size))
            assert np.array_equal(cum, compute_cum_crcs(blob, record_size, initial))

    def test_crc_tables_thread_through_chunk_boundaries(self):
        rec, n = 13, 40
        blob = np.random.default_rng(3).integers(0, 256, rec * n, dtype=np.uint8).tobytes()
        whole_crcs, whole_cum = compute_crc_tables(blob, rec)
        crcs, cum, running = [], [np.zeros(1, dtype=np.uint32)], 0
        for lo, hi in [(0, 7), (7, 7), (7, 8), (8, 40)]:  # empty + one-record chunks
            c, k = compute_crc_tables(blob[lo * rec : hi * rec], rec, running)
            assert len(c) == hi - lo and k[0] == running
            crcs.append(c)
            cum.append(k[1:])
            running = int(k[-1])
        assert np.array_equal(np.concatenate(crcs), whole_crcs)
        assert np.array_equal(np.concatenate(cum), whole_cum)

    def test_crc_tables_reject_bad_record_size(self):
        with pytest.raises(ValueError, match="record_size"):
            compute_crc_tables(b"abcd", 0)

    @pytest.mark.parametrize("bounds", [[0, 40], [0, 1, 17, 40]])
    def test_encode_group_writes_the_builders_bytes_and_tables(
        self, sphere_partition, sphere_dataset, bounds
    ):
        ds = sphere_dataset
        ids, vmins = ds.tree.record_ids[:40], ds.tree.record_vmins[:40]
        codec = MetacellCodec(sphere_partition.metacell_shape, ds.codec.scalar_dtype)
        crcs = np.empty(40, dtype=np.uint32)
        cum = np.zeros(41, dtype=np.uint32)
        for s, e in zip(bounds, bounds[1:]):
            # One slab of the whole volume: its first metacell id is 0.
            blob = encode_group(codec, sphere_partition, 0, ids[s:e], vmins[s:e])
            crcs[s:e], cum[s : e + 1] = compute_crc_tables(blob, codec.record_size, int(cum[s]))
            assert blob == ds.device.read(
                ds.base_offset + s * codec.record_size, (e - s) * codec.record_size
            )
        assert np.array_equal(crcs, ds.checksums.record_crcs[:40])
        assert np.array_equal(cum, ds.checksums.cum_crcs[:41])
