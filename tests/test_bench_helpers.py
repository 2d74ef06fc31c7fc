"""Tests for the benchmark harness helpers."""

import numpy as np
import pytest

from repro.bench.figures import (
    ascii_chart,
    draw_box,
    heatmap_to_rgb,
    upscale_nearest,
    write_csv,
)
from repro.bench.harness import BenchConfig, scaled_perf_model
from repro.bench.tables import format_kv, format_table, human_bytes
from repro.core.builder import build_indexed_dataset
from repro.grid.rm_instability import rm_timestep
from repro.parallel.perfmodel import PAPER_CLUSTER


class TestTables:
    def test_format_table_alignment(self):
        out = format_table(["a", "bb"], [[1, 22], [333, 4]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        widths = {len(l) for l in lines[1:]}
        assert len(widths) == 1  # all box lines equal width

    def test_format_table_floats(self):
        out = format_table(["x"], [[1.23456]])
        assert "1.235" in out

    def test_row_length_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_format_kv(self):
        out = format_kv("Title", [("key", 1), ("longer key", 2.5)])
        assert "Title" in out and "longer key" in out

    @pytest.mark.parametrize(
        "n,expect",
        [(10, "10 B"), (1536, "1.5 KiB"), (3 * 2**20, "3.0 MiB"), (2**40, "1.0 TiB")],
    )
    def test_human_bytes(self, n, expect):
        assert human_bytes(n) == expect


class TestFigures:
    def test_ascii_chart_contains_markers(self):
        out = ascii_chart({"s1": ([0, 1, 2], [1, 2, 3]), "s2": ([0, 1, 2], [3, 2, 1])})
        assert "o = s1" in out and "x = s2" in out

    def test_ascii_chart_empty(self):
        assert "empty" in ascii_chart({"s": ([], [])})

    def test_write_csv(self, tmp_path):
        path = write_csv(tmp_path / "d" / "x.csv", ["a", "b"], [[1, 2], [3, 4]])
        text = path.read_text()
        assert text.splitlines()[0] == "a,b"
        assert "3,4" in text

    def test_heatmap_shape_and_orientation(self):
        hist = np.zeros((4, 4))
        hist[3, 0] = 100  # vmin bin 3, vmax bin 0 -> bottom-right pixel
        img = heatmap_to_rgb(hist)
        assert img.shape == (4, 4, 3)
        bright = np.unravel_index(img.sum(axis=2).argmax(), (4, 4))
        assert bright == (3, 3)  # last row (vmax low), last col (vmin high)

    def test_draw_box_clips(self):
        img = np.zeros((8, 8, 3), dtype=np.uint8)
        draw_box(img, -5, 100, -5, 100, color=(9, 9, 9))
        assert img[0, 0, 0] == 9 and img[7, 7, 0] == 9

    def test_upscale(self):
        img = np.arange(12, dtype=np.uint8).reshape(2, 2, 3)
        big = upscale_nearest(img, 3)
        assert big.shape == (6, 6, 3)
        assert np.all(big[:3, :3] == img[0, 0])
        with pytest.raises(ValueError):
            upscale_nearest(img, 0)


class TestHarness:
    def test_config_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "2")
        cfg = BenchConfig.from_env()
        assert cfg.scale == 2
        assert cfg.rm_shape == (193, 193, 177)
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0")
        with pytest.raises(ValueError):
            BenchConfig.from_env()

    def test_rm_shape_tiles_metacells(self):
        cfg = BenchConfig()
        for dim in cfg.rm_shape:
            assert (dim - 1) % 8 == 0

    def test_scaled_perf_model_shrinks_granularity(self):
        ds = build_indexed_dataset(rm_timestep(150, shape=(33, 33, 29)), (5, 5, 5))
        perf = scaled_perf_model(ds)
        assert perf.disk.seek_latency < PAPER_CLUSTER.disk.seek_latency
        assert perf.disk.block_size <= PAPER_CLUSTER.disk.block_size
        assert perf.disk.bandwidth == PAPER_CLUSTER.disk.bandwidth
        assert perf.cpu == PAPER_CLUSTER.cpu  # compute rates untouched

    def test_scaled_perf_model_empty_dataset(self):
        from repro.grid.volume import Volume

        ds = build_indexed_dataset(
            Volume(np.full((9, 9, 9), 3, dtype=np.uint8)), (5, 5, 5)
        )
        assert scaled_perf_model(ds) is PAPER_CLUSTER


class TestAsciiTree:
    def test_tree_rendering(self, sphere_intervals):
        from repro.core.compact_tree import CompactIntervalTree
        from repro.core.span_space import ascii_tree

        tree = CompactIntervalTree.build(sphere_intervals)
        out = ascii_tree(tree)
        assert out.startswith("root split=")
        assert "@0" in out  # first brick pointer
        assert out.count("\n") + 1 >= tree.n_nodes

    def test_empty_tree(self):
        from repro.core.compact_tree import CompactIntervalTree
        from repro.core.intervals import IntervalSet
        from repro.core.span_space import ascii_tree

        tree = CompactIntervalTree.build(
            IntervalSet(vmin=np.empty(0), vmax=np.empty(0), ids=np.empty(0, np.uint32))
        )
        assert "empty" in ascii_tree(tree)

    def test_depth_truncation(self, sphere_intervals):
        from repro.core.compact_tree import CompactIntervalTree
        from repro.core.span_space import ascii_tree

        tree = CompactIntervalTree.build(sphere_intervals)
        shallow = ascii_tree(tree, max_depth=0)
        assert "..." in shallow or tree.height() == 0


class TestBenchSchemaChecker:
    """The CI checker's value gate: NaN / negative metrics are rejected."""

    def _checker(self):
        import importlib.util
        from pathlib import Path

        path = Path(__file__).resolve().parents[1] / "tools" / "check_bench_schema.py"
        spec = importlib.util.spec_from_file_location("check_bench_schema", path)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        return mod

    def _payload(self, **metrics):
        return {"schema": "repro-bench/1", "name": "t", "scale": 1,
                "metrics": metrics or {"x": 1.0}}

    def test_accepts_clean_metrics(self):
        self._checker().check_metric_values(self._payload(a=0.0, b=3, c=1.5))

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            self._checker().check_metric_values(self._payload(bad=-0.1))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            self._checker().check_metric_values(self._payload(bad=float("nan")))

    def test_named_payload_must_carry_its_rows(self):
        mod = self._checker()
        rows = dict.fromkeys(mod.REQUIRED_METRICS["throughput"], 1.0)
        payload = {**self._payload(**rows), "name": "throughput"}
        mod.check_required_metrics(payload)
        del payload["metrics"]["rasterize_flat_mtri_s"]
        with pytest.raises(ValueError, match="rasterize_flat_mtri_s"):
            mod.check_required_metrics(payload)
        mod.check_required_metrics({**payload, "name": "t"})  # unnamed: free-form

    def test_main_fails_on_bad_file(self, tmp_path):
        import json

        mod = self._checker()
        good = tmp_path / "BENCH_good.json"
        good.write_text(json.dumps(self._payload()))
        assert mod.main([str(good)]) == 0
        bad = tmp_path / "BENCH_bad.json"
        bad.write_text(json.dumps(self._payload(x=-1.0)))
        assert mod.main([str(bad)]) == 1
