"""Does the benchmark measure?  Planted slowdowns and a full smoke run.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q      (~3 min)

Deliberately outside tier-1 ``testpaths``.  A slowdown is planted in one
layer — by patching, here in the test only — and the workload that is
about that layer must get slower by well over the bound while a workload
that bypasses the layer stays inside it.  A benchmark whose numbers did
not move when a layer got slower would be measuring something else.
"""

from __future__ import annotations

import dataclasses
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from repro.io.blockdevice import SimulatedBlockDevice  # noqa: E402
from repro.io.diskfile import FileBackedDevice  # noqa: E402
from repro.mc.backends import get_backend, register_backend  # noqa: E402
import repro.parallel.cluster as cluster_module  # noqa: E402

SECONDS = 4.0
SEED = 12
BOUND = {m["name"]: m["bound"] for m in run.SPEC["end_to_end"]}["op_ms_p50"]
#: The slowed layer must move its workload by at least this much.
MOVES = 0.20


def p50(workload: str, best_of: int = 1) -> float:
    """``op_ms_p50`` of a short run; the lowest of ``best_of`` runs where
    the claim is "no slower" (a busy neighbour only ever adds time, so the
    lowest reading is the one closest to the code's own speed)."""
    values = []
    for _ in range(best_of):
        result, _ = run.run_one(workload, SEED, SECONDS, traced=False, n_setups=1)
        assert result["correct"]
        values.append(result["metrics"]["op_ms_p50"]["value"])
    return min(values)


def busy_wait(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def stretched(fn, factor: float):
    """``fn`` made ``1 + factor`` times as slow, results untouched."""

    def slow(*args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        busy_wait(factor * (time.perf_counter() - t0))
        return out

    return slow


@pytest.fixture(scope="module")
def baseline():
    return {w: p50(w, best_of=2)
            for w in ("retrieve_sweep", "explore_mesh", "cluster_frame")}


def slower_by(before: float, after: float) -> float:
    return (after - before) / before


def test_slow_device_moves_retrieve_not_frames(baseline, monkeypatch):
    """20 us on every device read: ~65 reads per index query, ~4 per frame."""
    for cls in (FileBackedDevice, SimulatedBlockDevice):
        read = cls.read

        def slow_read(self, offset, nbytes, _read=read):
            busy_wait(20e-6)
            return _read(self, offset, nbytes)

        monkeypatch.setattr(cls, "read", slow_read)
    assert slower_by(baseline["retrieve_sweep"], p50("retrieve_sweep")) >= MOVES
    assert slower_by(baseline["cluster_frame"], p50("cluster_frame", 2)) <= BOUND


def test_slow_kernel_moves_mesh_not_retrieve(baseline):
    original = get_backend("mc-batch")
    register_backend(
        dataclasses.replace(original, batch=stretched(original.batch, 0.5))
    )
    try:
        mesh, retrieve = p50("explore_mesh"), p50("retrieve_sweep", 2)
    finally:
        register_backend(original)
    assert slower_by(baseline["explore_mesh"], mesh) >= MOVES
    assert slower_by(baseline["retrieve_sweep"], retrieve) <= BOUND


def test_slow_rasterizer_moves_frames_only(baseline, monkeypatch):
    monkeypatch.setattr(
        cluster_module, "render_mesh", stretched(cluster_module.render_mesh, 0.5)
    )
    assert slower_by(baseline["cluster_frame"], p50("cluster_frame")) >= MOVES
    assert slower_by(baseline["explore_mesh"], p50("explore_mesh", 2)) <= BOUND
    assert slower_by(baseline["retrieve_sweep"], p50("retrieve_sweep", 2)) <= BOUND


@pytest.mark.parametrize("workload", [w["name"] for w in run.SPEC["workloads"]])
@pytest.mark.parametrize("traced", [0, 1])
def test_smoke_every_metric_present_and_finite(workload, traced):
    """The command line the driver uses, end to end, in a child."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "13", "--seconds", "2", "--trace", str(traced)],
        stdout=subprocess.PIPE, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = run.SPEC["per_layer" if traced else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
        if not traced:
            assert got["value"] > 0, m["name"]
