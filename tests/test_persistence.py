"""Tests for index persistence (save/load dataset directories)."""

import json
import shutil

import numpy as np
import pytest

from repro.core.builder import build_indexed_dataset
from repro.core.compact_tree import CompactIntervalTree
from repro.core.persistence import (
    BRICKS_FILE,
    INDEX_FILE,
    META_FILE,
    build_persistent_dataset,
    build_persistent_striped,
    load_dataset,
    tree_from_arrays,
    tree_to_arrays,
)
from repro.core.query import execute_query
from repro.grid.datasets import sphere_field
from repro.grid.rm_instability import rm_timestep


class TestTreeRoundTrip:
    def test_arrays_roundtrip_preserves_queries(self, sphere_intervals):
        tree = CompactIntervalTree.build(sphere_intervals)
        back = tree_from_arrays(tree_to_arrays(tree))
        back.validate(sphere_intervals)
        for lam in (0.2, 0.6, 1.0, 1.5):
            assert np.array_equal(back.query_ids(lam), tree.query_ids(lam))

    def test_roundtrip_preserves_structure(self, sphere_intervals):
        tree = CompactIntervalTree.build(sphere_intervals)
        back = tree_from_arrays(tree_to_arrays(tree))
        assert back.n_nodes == tree.n_nodes
        assert back.n_bricks == tree.n_bricks
        assert back.height() == tree.height()
        assert back.index_size_bytes() == tree.index_size_bytes()

    def test_empty_tree(self):
        from repro.core.intervals import IntervalSet

        empty = IntervalSet(
            vmin=np.empty(0), vmax=np.empty(0), ids=np.empty(0, np.uint32)
        )
        tree = CompactIntervalTree.build(empty)
        back = tree_from_arrays(tree_to_arrays(tree))
        assert back.n_nodes == 0
        assert back.query_count(1.0) == 0


class TestDatasetDirectory:
    @pytest.fixture()
    def saved(self, tmp_path):
        vol = rm_timestep(150, shape=(33, 33, 29))
        ds = build_persistent_dataset(vol, tmp_path / "ds", metacell_shape=(5, 5, 5))
        return vol, ds, tmp_path / "ds"

    def test_files_written(self, saved):
        _, _, d = saved
        assert (d / BRICKS_FILE).exists()
        assert (d / INDEX_FILE).exists()
        assert (d / META_FILE).exists()

    def test_reload_is_deterministic(self, saved):
        _, original, d = saved
        original.device.close()
        a = load_dataset(d)
        b = load_dataset(d)
        for lam in (60.0, 128.0):
            ra = execute_query(a, lam)
            rb = execute_query(b, lam)
            assert np.array_equal(ra.records.ids, rb.records.ids)
            assert ra.io_stats.blocks_read == rb.io_stats.blocks_read
        a.device.close()
        b.device.close()

    def test_reload_matches_fresh_build(self, saved):
        vol, original, d = saved
        original.device.close()
        loaded = load_dataset(d)
        fresh = build_indexed_dataset(vol, (5, 5, 5))
        for lam in (60.0, 128.0, 200.0):
            got = execute_query(loaded, lam)
            ref = execute_query(fresh, lam)
            assert np.array_equal(np.sort(got.records.ids), np.sort(ref.records.ids))
            assert np.array_equal(
                got.records.values[np.argsort(got.records.ids)],
                ref.records.values[np.argsort(ref.records.ids)],
            )
        assert loaded.report == original.report
        assert loaded.meta == original.meta
        loaded.device.close()

    def test_missing_meta_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path)

    def test_missing_bricks_rejected(self, saved, tmp_path):
        _, original, d = saved
        original.device.close()
        (d / BRICKS_FILE).rename(tmp_path / "elsewhere.bin")
        with pytest.raises(FileNotFoundError):
            load_dataset(d)

    def test_truncated_bricks_rejected(self, saved):
        _, original, d = saved
        original.device.close()
        path = d / BRICKS_FILE
        with open(path, "r+b") as fh:
            fh.truncate(path.stat().st_size // 2)
        with pytest.raises(IOError):
            load_dataset(d)

    def test_bad_format_version_rejected(self, saved):
        _, original, d = saved
        original.device.close()
        blob = json.loads((d / META_FILE).read_text())
        blob["format_version"] = 999
        (d / META_FILE).write_text(json.dumps(blob))
        with pytest.raises(ValueError, match="format"):
            load_dataset(d)


class TestCumCrcCompat:
    """v1->v2 index compatibility: ``cum_crcs`` is a fast-path
    accelerator only — a store whose index lacks it (or carries a
    truncated table) must load fine and fall back to per-record CRC
    verification, never crash."""

    @pytest.fixture()
    def saved(self, tmp_path, sphere_volume):
        d = tmp_path / "ds"
        ds = build_persistent_dataset(
            sphere_volume, d, metacell_shape=(5, 5, 5)
        )
        ds.device.close()
        return d

    @staticmethod
    def _rewrite_index(directory, mutate):
        with np.load(directory / INDEX_FILE) as npz:
            arrays = {k: npz[k] for k in npz.files}
        mutate(arrays)
        np.savez_compressed(directory / INDEX_FILE, **arrays)

    def _assert_degrades_gracefully(self, directory):
        from repro.core.query import QueryOptions, execute_query
        from repro.core.validation import verify_dataset

        ds = load_dataset(directory)
        try:
            assert ds.checksums is not None
            assert ds.checksums.cum_crcs is None  # fast path dropped
            # Per-record verification still works end to end.
            qr = execute_query(ds, 0.62, QueryOptions(verify_checksums=True))
            assert qr.n_records_read > 0
            assert verify_dataset(ds, deep=True).ok
        finally:
            ds.device.close()

    def test_cum_crcs_absent(self, saved):
        self._rewrite_index(saved, lambda a: a.pop("cum_crcs"))
        self._assert_degrades_gracefully(saved)

    def test_cum_crcs_truncated(self, saved):
        self._rewrite_index(
            saved, lambda a: a.__setitem__("cum_crcs", a["cum_crcs"][:3])
        )
        self._assert_degrades_gracefully(saved)

    def test_cum_crcs_empty(self, saved):
        self._rewrite_index(
            saved, lambda a: a.__setitem__("cum_crcs", a["cum_crcs"][:0])
        )
        self._assert_degrades_gracefully(saved)

    def test_intact_cum_crcs_still_used(self, saved):
        ds = load_dataset(saved)
        try:
            assert ds.checksums is not None
            assert ds.checksums.cum_crcs is not None
        finally:
            ds.device.close()


class TestStripedBuild:
    """``build_persistent_striped``: ``p`` journaled node builds in
    ``node_<q>/`` sharing one plan."""

    P = 3

    @pytest.fixture()
    def striped(self, tmp_path, sphere_volume):
        nodes = build_persistent_striped(
            sphere_volume, tmp_path / "st", self.P, metacell_shape=(5, 5, 5)
        )
        for ds in nodes:
            ds.device.close()
        return tmp_path / "st", nodes

    def test_every_node_directory_passes_fsck_and_loads(self, striped, sphere_volume):
        from repro.cli import main

        directory, _ = striped
        serial = build_indexed_dataset(sphere_volume, (5, 5, 5))
        got = []
        for q in range(self.P):
            assert main(["fsck", "--json", str(directory / f"node_{q}")]) == 0
            ds = load_dataset(directory / f"node_{q}")
            assert (ds.node_rank, ds.n_cluster_nodes) == (q, self.P)
            got.append(execute_query(ds, 0.62).records.ids)
            ds.device.close()
        assert np.array_equal(
            np.sort(np.concatenate(got)),
            np.sort(execute_query(serial, 0.62).records.ids),
        )

    def test_node_fingerprints_add_placement_to_one_shared_volume_crc(self, striped):
        directory, _ = striped
        prints = [
            json.loads((directory / f"node_{q}" / META_FILE).read_text())["build_fingerprint"]
            for q in range(self.P)
        ]
        assert [(f["node_rank"], f["n_cluster_nodes"]) for f in prints] == [
            (q, self.P) for q in range(self.P)
        ]
        assert len({f["volume_crc"] for f in prints}) == 1
        assert sum(f["n_records"] for f in prints) == load_dataset(
            directory / "node_0"
        ).report.n_metacells_stored

    def test_one_partition_pass_and_one_volume_crc(
        self, tmp_path, sphere_volume, monkeypatch
    ):
        from repro.core import builder, persistence

        calls = {"partition": 0, "fingerprint": 0}

        def counted(name, fn):
            def wrapper(*a, **k):
                calls[name] += 1
                return fn(*a, **k)
            return wrapper

        monkeypatch.setattr(
            builder, "partition_metacells",
            counted("partition", builder.partition_metacells),
        )
        monkeypatch.setattr(
            persistence, "build_fingerprint",
            counted("fingerprint", persistence.build_fingerprint),
        )
        for ds in build_persistent_striped(sphere_volume, tmp_path, 4, (5, 5, 5)):
            ds.device.close()
        assert calls == {"partition": 1, "fingerprint": 1}

    def test_rerun_loads_committed_nodes_and_rebuilds_a_removed_one(
        self, striped, sphere_volume
    ):
        directory, first = striped
        shutil.rmtree(directory / "node_1")
        kept = {
            p: p.stat().st_mtime_ns
            for q in (0, 2) for p in (directory / f"node_{q}").iterdir()
        }
        again = build_persistent_striped(
            sphere_volume, directory, self.P, metacell_shape=(5, 5, 5)
        )
        assert {p: p.stat().st_mtime_ns for p in kept} == kept
        for a, b in zip(first, again):
            assert np.array_equal(a.tree.record_ids, b.tree.record_ids)
            assert np.array_equal(a.checksums.cum_crcs, b.checksums.cum_crcs)
            b.device.close()

    def test_invalid_node_count(self, tmp_path, sphere_volume):
        with pytest.raises(ValueError, match="node count"):
            build_persistent_striped(sphere_volume, tmp_path, 0)
