"""Tests for the time-varying index (Section 5.2)."""

import gc
import json
import shutil
import tracemalloc

import numpy as np
import pytest

from repro.core.persistence import (
    BRICKS_FILE,
    INDEX_FILE,
    META_FILE,
    DatasetFormatError,
    MissingArtifactError,
)
from repro.core.timevarying import TimeVaryingIndex
from repro.core.validation import verify_dataset
from repro.grid.datasets import sphere_field
from repro.grid.rm_instability import rm_time_series
from tests._reference_series_save import legacy_save_series


@pytest.fixture(scope="module")
def tv_index():
    series = rm_time_series([10, 50, 90], shape=(25, 25, 21), n_steps=100)
    return TimeVaryingIndex.from_series(series, p=1, metacell_shape=(5, 5, 5))


class TestConstruction:
    def test_steps_recorded(self, tv_index):
        assert tv_index.steps == [10, 50, 90]
        assert len(tv_index) == 3
        assert 50 in tv_index
        assert 51 not in tv_index

    def test_duplicate_step_rejected(self, tv_index):
        from repro.grid.rm_instability import rm_timestep

        with pytest.raises(ValueError):
            tv_index.add_step(10, rm_timestep(10, shape=(25, 25, 21), n_steps=100))

    def test_missing_step_raises_keyerror(self, tv_index):
        with pytest.raises(KeyError, match="not indexed"):
            tv_index.datasets(42)

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            TimeVaryingIndex(p=0)


class TestQuery:
    def test_query_matches_per_step_oracle(self, tv_index):
        from repro.core.intervals import IntervalSet
        from repro.grid.metacell import partition_metacells
        from repro.grid.rm_instability import rm_timestep

        for t in (10, 90):
            vol = rm_timestep(t, shape=(25, 25, 21), n_steps=100)
            iv = IntervalSet.from_partition(partition_metacells(vol, (5, 5, 5)))
            results = tv_index.query(t, 128.0)
            got = np.sort(np.concatenate([r.records.ids for r in results]))
            assert np.array_equal(got, iv.stabbing_ids(128.0))

    def test_striped_time_varying(self):
        series = rm_time_series([20, 60], shape=(25, 25, 21), n_steps=100)
        tvi = TimeVaryingIndex.from_series(series, p=3, metacell_shape=(5, 5, 5))
        results = tvi.query(20, 100.0)
        assert len(results) == 3
        total = sum(r.n_active for r in results)
        serial = TimeVaryingIndex.from_series(
            rm_time_series([20], shape=(25, 25, 21), n_steps=100),
            p=1,
            metacell_shape=(5, 5, 5),
        )
        assert total == serial.query(20, 100.0)[0].n_active


class TestAccounting:
    def test_total_index_size_sums_steps(self, tv_index):
        per_step = [
            ds.tree.index_size_bytes()
            for t in tv_index.steps
            for ds in tv_index.datasets(t)
        ]
        assert tv_index.total_index_size_bytes() == sum(per_step)

    def test_index_size_stays_small(self, tv_index):
        """One-byte data: per-step index must be KBs (the paper's 1.6 MB /
        270 steps => ~6 KB per step figure)."""
        assert tv_index.total_index_size_bytes() < 3 * 16_384

    def test_iter_steps(self, tv_index):
        pairs = list(tv_index.iter_steps())
        assert [t for t, _ in pairs] == [10, 50, 90]


class TestExtractConvenience:
    def test_extract_meshes(self, tv_index):
        meshes = tv_index.extract(50, 128.0)
        assert len(meshes) == 1
        assert meshes[0].n_triangles > 0

    def test_extract_empty_iso(self, tv_index):
        meshes = tv_index.extract(50, -5.0)
        assert all(m.n_triangles == 0 for m in meshes)

    def test_striped_extract_union(self):
        from repro.mc.geometry import TriangleMesh

        series = rm_time_series([40], shape=(25, 25, 21), n_steps=100)
        tvi = TimeVaryingIndex.from_series(series, p=3, metacell_shape=(5, 5, 5))
        meshes = tvi.extract(40, 128.0)
        total = TriangleMesh.concat(meshes)
        serial = TimeVaryingIndex.from_series(
            rm_time_series([40], shape=(25, 25, 21), n_steps=100),
            metacell_shape=(5, 5, 5),
        ).extract(40, 128.0)[0]
        assert total.n_triangles == serial.n_triangles


def sorted_ids(results):
    return np.sort(np.concatenate([r.records.ids for r in results]))


def small_series(steps, shape=(17, 17, 13)):
    return rm_time_series(steps, shape=shape, n_steps=10)


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        series = rm_time_series([10, 30], shape=(25, 25, 21), n_steps=100)
        tvi = TimeVaryingIndex.from_series(
            series, p=2, metacell_shape=(5, 5, 5), directory=tmp_path / "tv"
        )
        loaded = TimeVaryingIndex.load(tmp_path / "tv")
        assert loaded.steps == [10, 30]
        assert loaded.p == 2
        for t in (10, 30):
            assert np.array_equal(
                sorted_ids(tvi.query(t, 120.0)), sorted_ids(loaded.query(t, 120.0))
            )
        tvi.close()
        loaded.close()

    def test_load_missing_dir(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            TimeVaryingIndex.load(tmp_path / "nope")

    def test_save_preserves_index_size(self, tmp_path):
        tvi = TimeVaryingIndex.from_series(
            small_series([5]), metacell_shape=(5, 5, 5), directory=tmp_path / "tv2"
        )
        tvi.close()
        loaded = TimeVaryingIndex.load(tmp_path / "tv2")
        assert loaded.total_index_size_bytes() == tvi.total_index_size_bytes()
        loaded.close()

    def test_directory_build_writes_what_the_deleted_save_wrote(self, tmp_path):
        """Build-to-disk node directories equal, brick for brick and index
        array for index array, the ones the parent's build-in-RAM-then-
        ``save`` produced; the old directory (``steps.txt`` and all, no
        fingerprint in ``meta.json``) still loads and answers the same."""
        kw = dict(p=3, metacell_shape=(5, 5, 5))
        old_dir = legacy_save_series(
            TimeVaryingIndex.from_series(small_series([3, 7]), **kw), tmp_path / "old"
        )
        (old_dir / "steps.txt").write_text("999\n")  # stale: must be ignored
        new = TimeVaryingIndex.from_series(
            small_series([3, 7]), directory=tmp_path / "new", **kw
        )
        for node in sorted(p.relative_to(old_dir) for p in old_dir.glob("step_*/node_*")):
            a, b = old_dir / node, tmp_path / "new" / node
            assert (a / BRICKS_FILE).read_bytes() == (b / BRICKS_FILE).read_bytes()
            with np.load(a / INDEX_FILE) as x, np.load(b / INDEX_FILE) as y:
                assert sorted(x.files) == sorted(y.files)
                for name in x.files:
                    assert x[name].dtype == y[name].dtype
                    assert np.array_equal(x[name], y[name])
            meta = json.loads((b / META_FILE).read_text())
            del meta["build_fingerprint"]
            assert meta == json.loads((a / META_FILE).read_text())
        old = TimeVaryingIndex.load(old_dir)
        assert old.steps == [3, 7] and old.p == 3
        for t in (3, 7):
            for ro, rn in zip(old.query(t, 128.0), new.query(t, 128.0)):
                assert np.array_equal(ro.records.ids, rn.records.ids)
        old.close()
        new.close()

    def test_rerun_skips_committed_steps(self, tmp_path):
        out = tmp_path / "tv"
        TimeVaryingIndex.from_series(
            small_series([2, 4]), p=2, metacell_shape=(5, 5, 5), directory=out
        ).close()
        stamps = {p: p.stat().st_mtime_ns for p in out.rglob("*") if p.is_file()}
        again = TimeVaryingIndex.from_series(
            small_series([2, 4, 6]), p=2, metacell_shape=(5, 5, 5), directory=out
        )
        assert again.steps == [2, 4, 6]
        assert {p: p.stat().st_mtime_ns for p in stamps} == stamps
        for datasets in (again.datasets(t) for t in again.steps):
            assert all(verify_dataset(ds, deep=True).ok for ds in datasets)
        again.close()

    def test_eleven_nodes_load_in_rank_order(self, tmp_path):
        """Lexicographic order puts ``node_10`` before ``node_2``."""
        TimeVaryingIndex.from_series(
            small_series([1], shape=(13, 13, 13)), p=11, metacell_shape=(3, 3, 3),
            directory=tmp_path / "tv",
        ).close()
        loaded = TimeVaryingIndex.load(tmp_path / "tv")
        assert loaded.p == 11
        assert [ds.node_rank for ds in loaded.datasets(1)] == list(range(11))
        assert all(ds.n_cluster_nodes == 11 for ds in loaded.datasets(1))
        loaded.close()

    @pytest.fixture()
    def two_by_two(self, tmp_path):
        TimeVaryingIndex.from_series(
            small_series([2, 4]), p=2, metacell_shape=(5, 5, 5),
            directory=tmp_path / "tv",
        ).close()
        return tmp_path / "tv"

    def test_empty_series_is_a_missing_artifact(self, tmp_path):
        (tmp_path / "steps.txt").write_text("1\n")
        with pytest.raises(MissingArtifactError, match="no step_<t>"):
            TimeVaryingIndex.load(tmp_path)

    def test_missing_node_is_a_missing_artifact(self, two_by_two):
        shutil.rmtree(two_by_two / "step_0004" / "node_1")
        with pytest.raises(MissingArtifactError, match=r"node\(s\) \[1\] of 2"):
            TimeVaryingIndex.load(two_by_two)

    def test_half_committed_step_is_a_missing_artifact(self, two_by_two):
        """A node build killed before ``meta.json`` was renamed in."""
        (two_by_two / "step_0004" / "node_0" / META_FILE).unlink()
        with pytest.raises(MissingArtifactError, match=META_FILE):
            TimeVaryingIndex.load(two_by_two)

    @pytest.mark.parametrize("field,value", [
        ("n_cluster_nodes", 3),   # nodes of one step disagree on p
        ("node_rank", 0),         # two nodes claim rank 0
    ])
    def test_inconsistent_placement_is_a_format_error(self, two_by_two, field, value):
        meta = two_by_two / "step_0002" / "node_1" / META_FILE
        blob = json.loads(meta.read_text())
        blob[field] = value
        meta.write_text(json.dumps(blob))
        with pytest.raises(DatasetFormatError):
            TimeVaryingIndex.load(two_by_two)

    def test_steps_of_different_width_are_a_format_error(self, two_by_two):
        TimeVaryingIndex.from_series(
            small_series([6]), p=1, metacell_shape=(5, 5, 5), directory=two_by_two
        ).close()
        with pytest.raises(DatasetFormatError, match="series' 2 nodes"):
            TimeVaryingIndex.load(two_by_two)


class TestBoundedMemory:
    def test_directory_build_peak_does_not_grow_with_steps(self, tmp_path):
        """Resident brick bytes are bounded by one step: the traced peak
        of a 4-step build stays within 1.5x of a 1-step build (measured
        1.12x).  Building every step in RAM before saving, as the deleted
        ``save`` path required, holds four steps of bricks: 2.2x.  One
        pre-built volume serves as every step so only the build is traced."""
        volume = sphere_field((49, 49, 49))

        def peak(k, out):
            gc.collect()
            tracemalloc.start()
            try:
                tvi = TimeVaryingIndex.from_series(
                    [(t, volume) for t in range(k)], p=2,
                    metacell_shape=(5, 5, 5), directory=out,
                )
                tvi.close()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1, tmp_path / "warmup")  # first-use imports and caches
        one = peak(1, tmp_path / "k1")
        four = peak(4, tmp_path / "k4")
        assert four <= 1.5 * one, (one, four)
