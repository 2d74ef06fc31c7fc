"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli") / "ds"
    rc = main([
        "preprocess", "--rm-step", "200", "--shape", "33x33x25",
        "--metacell", "5", "--out", str(d),
    ])
    assert rc == 0
    return d


class TestPreprocess:
    def test_creates_dataset_files(self, dataset_dir):
        assert (dataset_dir / "bricks.bin").exists()
        assert (dataset_dir / "index.npz").exists()
        assert (dataset_dir / "meta.json").exists()

    def test_npy_input(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        vol = rng.integers(0, 255, size=(17, 17, 13)).astype(np.uint8)
        np.save(tmp_path / "field.npy", vol)
        rc = main([
            "preprocess", "--input", str(tmp_path / "field.npy"),
            "--metacell", "5", "--out", str(tmp_path / "npyds"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "metacells stored" in out

    def test_npy_input_builds_what_the_volume_build_does(self, tmp_path):
        """The memory-mapped, slab-streamed build writes the directory of
        the in-memory build of the loaded array: bricks, every index
        array and ``meta.json`` (name, fingerprint) alike."""
        from repro.core.persistence import build_persistent_dataset
        from repro.grid.volume import Volume

        rng = np.random.default_rng(1)
        np.save(tmp_path / "field.npy", rng.random((23, 14, 19), dtype=np.float32))
        assert main(["preprocess", "--input", str(tmp_path / "field.npy"),
                     "--metacell", "5", "--out", str(tmp_path / "cli")]) == 0
        vol = Volume(np.load(tmp_path / "field.npy"), name="field")
        build_persistent_dataset(vol, tmp_path / "mem", (5, 5, 5)).device.close()
        for name in ("bricks.bin", "meta.json"):
            assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "mem" / name).read_bytes()
        with np.load(tmp_path / "cli" / "index.npz") as a, \
                np.load(tmp_path / "mem" / "index.npz") as b:
            assert sorted(a.files) == sorted(b.files)
            for key in a.files:
                assert a[key].dtype == b[key].dtype and np.array_equal(a[key], b[key]), key

    def test_npy_input_is_never_read_whole(self, tmp_path):
        """An 8.6 MB field preprocesses with a traced peak below its own
        size: the file is memory-mapped and streamed one metacell layer
        at a time, not loaded."""
        import tracemalloc

        i, j, k = np.ogrid[:129, :129, :129]
        field = (np.sin(i / 9.0) + np.cos(j / 7.0) * np.sin(k / 11.0)).astype(np.float32)
        np.save(tmp_path / "big.npy", field)
        nbytes = field.nbytes
        del field
        tracemalloc.start()
        try:
            assert main(["preprocess", "--input", str(tmp_path / "big.npy"),
                         "--out", str(tmp_path / "ds")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < nbytes, f"peak {peak} bytes >= field {nbytes} bytes"

    def test_rejects_non_3d_npy(self, tmp_path):
        np.save(tmp_path / "bad.npy", np.zeros((4, 4)))
        with pytest.raises(SystemExit):
            main(["preprocess", "--input", str(tmp_path / "bad.npy"),
                  "--out", str(tmp_path / "x")])

    def test_bad_shape_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["preprocess", "--shape", "10x10", "--out", str(tmp_path / "x")])


class TestInfoQuery:
    def test_info(self, dataset_dir, capsys):
        assert main(["info", str(dataset_dir)]) == 0
        out = capsys.readouterr().out
        assert "isovalues" in out
        assert "index" in out

    def test_query_reports_io(self, dataset_dir, capsys):
        assert main(["query", str(dataset_dir), "128"]) == 0
        out = capsys.readouterr().out
        assert "active metacells" in out
        assert "blocks" in out

    def test_query_empty(self, dataset_dir, capsys):
        assert main(["query", str(dataset_dir), "-5"]) == 0
        assert "0 active metacells" in capsys.readouterr().out


class TestExtractRender:
    def test_extract_obj_and_ply(self, dataset_dir, tmp_path, capsys):
        obj = tmp_path / "s.obj"
        ply = tmp_path / "s.ply"
        rc = main([
            "extract", str(dataset_dir), "128",
            "--obj", str(obj), "--ply", str(ply), "--weld",
        ])
        assert rc == 0
        assert obj.exists() and ply.exists()
        from repro.mc.mesh_io import read_obj, read_ply

        assert read_obj(obj).n_triangles == read_ply(ply).n_triangles > 0

    def test_render_flat_and_smooth(self, dataset_dir, tmp_path):
        for extra in ([], ["--smooth"]):
            out = tmp_path / f"img{len(extra)}.ppm"
            rc = main(["render", str(dataset_dir), "128",
                       "--out", str(out), "--size", "96", *extra])
            assert rc == 0
            assert out.stat().st_size > 96 * 96 * 3

    def test_render_empty_iso_fails(self, dataset_dir, tmp_path, capsys):
        rc = main(["render", str(dataset_dir), "-5",
                   "--out", str(tmp_path / "x.ppm")])
        assert rc == 1


class TestSpanspace:
    def test_ascii_output(self, dataset_dir, capsys):
        assert main(["spanspace", str(dataset_dir), "--bins", "12"]) == 0
        out = capsys.readouterr().out
        assert "intervals" in out
        assert "vmin" in out


class TestSuggestEstimate:
    def test_suggest(self, dataset_dir, capsys):
        assert main(["suggest", str(dataset_dir), "--selectivity", "0.1", "0.4"]) == 0
        out = capsys.readouterr().out
        assert "selectivity" in out
        assert out.count("%") >= 2

    def test_estimate_matches_query_blocks(self, dataset_dir, capsys):
        assert main(["estimate", str(dataset_dir), "128"]) == 0
        est_out = capsys.readouterr().out
        assert "blocks" in est_out
        import re
        blocks = int(re.search(r"blocks\s*:\s*(\d+)", est_out).group(1))
        assert main(["query", str(dataset_dir), "128"]) == 0
        q_out = capsys.readouterr().out
        q_blocks = int(re.search(r"(\d+) blocks", q_out).group(1))
        assert blocks == q_blocks


class TestExtractOptions:
    def test_decimate(self, dataset_dir, tmp_path, capsys):
        obj = tmp_path / "d.obj"
        rc = main(["extract", str(dataset_dir), "128", "--obj", str(obj),
                   "--weld", "--decimate", "150"])
        assert rc == 0
        from repro.mc.mesh_io import read_obj
        assert 0 < read_obj(obj).n_triangles <= 150

    def test_stream(self, dataset_dir, tmp_path, capsys):
        ply = tmp_path / "s.ply"
        rc = main(["extract", str(dataset_dir), "128", "--ply", str(ply), "--stream"])
        assert rc == 0
        from repro.mc.mesh_io import read_ply
        assert read_ply(ply).n_triangles > 0

    def test_stream_needs_target(self, dataset_dir):
        assert main(["extract", str(dataset_dir), "128", "--stream"]) == 2


class TestErrorHandling:
    def test_missing_dataset_is_clean_error(self, tmp_path, capsys):
        rc = main(["info", str(tmp_path / "nope")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestTimeVaryingCLI:
    def test_preprocess_and_query_series(self, tmp_path, capsys):
        rc = main([
            "preprocess-series", "--steps", "40,60", "--shape", "25x25x21",
            "--n-steps", "100", "--metacell", "5", "--nodes", "2",
            "--out", str(tmp_path / "tv"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "2 steps" in out
        rc = main(["query-series", str(tmp_path / "tv"), "120"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("\n") >= 3  # header + 2 steps

    def test_query_series_reads_each_node_once_per_step(
        self, tmp_path, capsys, monkeypatch
    ):
        """``query-series`` used to query every node twice per step (once
        for the counts, once more inside ``extract``): the device meters
        it leaves behind must equal one query per node per step."""
        from repro.core.timevarying import TimeVaryingIndex

        out = tmp_path / "tv"
        main([
            "preprocess-series", "--steps", "40,60", "--shape", "25x25x21",
            "--n-steps", "100", "--metacell", "5", "--nodes", "2",
            "--out", str(out),
        ])
        opened = []
        load = TimeVaryingIndex.load
        monkeypatch.setattr(
            TimeVaryingIndex, "load",
            lambda directory: opened.append(load(directory)) or opened[-1],
        )
        assert main(["query-series", str(out), "120"]) == 0
        (served,) = opened
        fresh = load(out)
        for t in fresh.steps:
            for ds, once in zip(served.datasets(t), fresh.query(t, 120.0)):
                assert once.io_stats.blocks_read > 0
                assert ds.device.stats.read_ops == once.io_stats.read_ops
                assert ds.device.stats.blocks_read == once.io_stats.blocks_read
                assert ds.device.stats.seeks == once.io_stats.seeks
        fresh.close()

    def test_query_series_subset_and_missing(self, tmp_path, capsys):
        main([
            "preprocess-series", "--steps", "5", "--shape", "17x17x13",
            "--n-steps", "10", "--metacell", "5", "--out", str(tmp_path / "tv2"),
        ])
        capsys.readouterr()
        rc = main(["query-series", str(tmp_path / "tv2"), "100", "--steps", "5,6"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "(not indexed)" in out
