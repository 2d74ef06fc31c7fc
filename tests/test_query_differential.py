"""The one read loop answers exactly as the per-run generator stack did.

``tests/_reference_plan_runner.py`` is the executor that streamed every
plan run through ``_stream_records`` / ``_stream_extent``, decoding each
chunk, and the planner that built a list of run objects.  Every case here
runs one query through both, each against its own freshly built but
identical device stack, and compares field by field: the records as
bytes and dtypes, ``n_records_read``, the skipped runs and records, the
deadline flag, every ``IOStats`` field (and what the fault injector,
hedge and block cache saw), the result cache's contents and counters,
and the type of any error raised.  The plan property checks that the
array plan's derived runs and counters equal the reference planner's,
for the in-memory tree and the blocked external index.
"""

from __future__ import annotations

import atexit
import dataclasses
import functools
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.builder import build_indexed_dataset
from repro.core.compact_tree import CompactIntervalTree
from repro.core.external_tree import ExternalCompactIndex
from repro.core.query import QueryOptions, execute_plan
from repro.core.unstructured_builder import build_unstructured_dataset
from repro.grid.unstructured import TetMesh
from repro.grid.volume import Volume
from repro.io.blockdevice import SimulatedBlockDevice
from repro.io.cache import CachedDevice
from repro.io.cost_model import IOCostModel
from repro.io.diskfile import FileBackedDevice
from repro.io.faults import (
    FaultInjectingDevice,
    FaultPlan,
    HedgedDevice,
    HedgePolicy,
    RetryPolicy,
)
from repro.io.layout import BrickChecksums
from repro.serve.rcache import ResultCache
from tests import _reference_plan_runner as reference
from tests.conftest import random_intervals

#: (scalar dtype, metacell shape, device block size).  Blocks this
#: small make records straddle chunk boundaries (down to chunks shorter
#: than one record), Case-2 scans span several chunks and Case-1 runs
#: exceed MAX_SEQUENTIAL_CHUNK_BLOCKS; the last two use realistic blocks.
CONFIGS = (
    ("uint8", (3, 3, 3), 2),
    ("uint8", (9, 9, 9), 16),
    ("uint16", (5, 5, 5), 8),
    ("uint16", (7, 7, 7), 32),
    ("float32", (4, 4, 4), 8),
    ("float32", (9, 9, 9), 64),
    ("uint8", (9, 9, 9), 8192),
    ("flat", None, 1),
)
DEVICES = ("sim", "file")
FAULTS = ("none", "transient", "torn", "persistent", "hedged", "cached")
CHECKS = ("full", "no-cum")
BUDGETS = (None, 0.0, 0.25, 0.6, float("inf"))


@functools.lru_cache(maxsize=None)
def _store_dir() -> Path:
    """A scratch directory for the file-backed stores, removed at exit."""
    path = Path(tempfile.mkdtemp(prefix="query-differential-"))
    atexit.register(shutil.rmtree, path, True)
    return path


def _field(dtype: str, metacell) -> Volume:
    """A smooth field with flat regions (culled metacells), ties between
    samples and, for floats, values off any integer grid."""
    n = [(m - 1) * k + 1 for m, k in zip(metacell, (9, 7, 8))]
    x, y, z = np.meshgrid(*(np.linspace(-1, 1, s) for s in n), indexing="ij")
    f = np.sqrt(x**2 + 0.7 * y**2 + 1.3 * z**2) + 0.2 * np.sin(5 * x) * np.cos(3 * y)
    f = np.clip(f, 0.2, 1.2)
    if dtype == "float32":
        return Volume((f * 3.1).astype(np.float32))
    scale = 250 if dtype == "uint8" else 60_000
    return Volume(np.round(f / 1.2 * scale).astype(dtype))


@functools.lru_cache(maxsize=None)
def _dataset(config: int):
    dtype, metacell, block = CONFIGS[config]
    model = IOCostModel(block_size=block)
    if dtype == "flat":
        x, y, z = np.meshgrid(*(np.arange(9.0),) * 3, indexing="ij")
        vertices = np.stack([x.ravel(), y.ravel(), z.ravel()], axis=1)
        cube = np.arange(729).reshape(9, 9, 9)
        corners = np.stack(
            [cube[:-1, :-1, :-1].ravel(), cube[1:, :-1, :-1].ravel(),
             cube[:-1, 1:, :-1].ravel(), cube[:-1, :-1, 1:].ravel()], axis=1,
        )
        scalars = np.linalg.norm(vertices - 4.0, axis=1).astype(np.float32)
        mesh = TetMesh(vertices, corners, scalars)
        return build_unstructured_dataset(mesh, cells_per_cluster=3, cost_model=model)
    return build_indexed_dataset(_field(dtype, metacell), metacell, cost_model=model)


@functools.lru_cache(maxsize=None)
def _store_bytes(config: int) -> bytes:
    dev = _dataset(config).device
    return bytes(dev.peek(0, dev.size))


def _raw_device(config: int, kind: str):
    """A fresh device holding the dataset's bytes, meter at zero."""
    model = _dataset(config).device.cost_model
    blob = _store_bytes(config)
    if kind == "file":
        path = _store_dir() / f"bricks-{config}.bin"
        if not path.exists():
            path.write_bytes(blob)
        return FileBackedDevice(path, model, create=False)
    dev = SimulatedBlockDevice(model)
    dev.write(dev.allocate(len(blob)), blob)
    dev.reset_stats()
    return dev


def _stack(config: int, kind: str, fault: str, seed: int):
    """A fresh device stack; equal arguments build equal stacks."""
    ds = _dataset(config)
    raw = _raw_device(config, kind)
    rec = ds.codec.record_size
    if fault == "none":
        return raw
    if fault == "cached":
        return CachedDevice(raw, capacity_blocks=1 + seed % 7)
    if fault == "persistent":
        at = ds.record_offset((seed * 7919) % ds.n_records) + rec // 2
        return FaultInjectingDevice(raw, FaultPlan(seed=seed, corrupt_extents=((at, 3),)))
    if fault == "vmins":
        # Every fifth record's vmin inverted: unverified reads then see
        # bricks out of vmin order and Case-1 records with vmin > lam.
        size = ds.codec.scalar_dtype.itemsize
        return FaultInjectingDevice(raw, FaultPlan(seed=seed, corrupt_extents=tuple(
            (ds.record_offset(p) + 4, size) for p in range(seed % 5, ds.n_records, 5))))
    if fault == "torn":
        return FaultInjectingDevice(raw, FaultPlan(seed=seed, corruption_rate=0.2))
    plan = FaultPlan(seed=seed, transient_error_rate=0.15,
                     latency_spike_rate=0.2, latency_spike_seconds=0.05)
    if fault == "transient":
        return FaultInjectingDevice(raw, plan)
    primary = FaultInjectingDevice(raw, plan)
    replica = _raw_device(config, kind)
    return HedgedDevice(primary, 0, replica, 0,
                        HedgePolicy(min_samples=2, multiplier=1.5))


def _with_checks(ds, checks: str):
    if checks == "no-cum" and getattr(ds, "checksums", None) is not None:
        table = ds.checksums
        return dataclasses.replace(ds, checksums=BrickChecksums(
            table.record_crcs, table.brick_crcs, None))
    return ds


def _lams(ds) -> "list[float]":
    """Isovalues on samples, between samples, below min and above max."""
    ends = np.asarray(ds.tree.endpoints, dtype=np.float64)
    mids = (ends[:-1] + ends[1:]) / 2 if len(ends) > 1 else ends
    return [float(ends[0] - 1), float(ends[-1] + 1), *ends.tolist(), *mids.tolist()]


def _device_state(dev) -> dict:
    """Every meter reachable from a device stack."""
    out = {"stats": dev.stats.as_dict()}
    for name in ("backing", "primary", "replica"):
        inner = getattr(dev, name, None)
        if inner is not None:
            out[name] = _device_state(inner)
    for name in ("fault_stats", "cache_stats"):
        if hasattr(dev, name):
            out[name] = dataclasses.asdict(getattr(dev, name))
    return out


def _outcome(execute, ds, plan, opts) -> dict:
    try:
        res = execute(ds, plan, opts)
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return {"error": type(exc), "device": _device_state(ds.device)}
    r = res.records
    return {
        "records": [(a.dtype.str, a.shape, a.tobytes())
                    for a in (r.ids, r.vmins, r.values)],
        "contiguous": all(a.flags.c_contiguous and a.flags.owndata
                          for a in (r.ids, r.vmins, r.values)),
        "n_records_read": res.n_records_read,
        "skipped_runs": res.skipped_runs,
        "skipped_bricks": res.skipped_bricks,
        "n_records_skipped": res.n_records_skipped,
        "deadline_expired": res.deadline_expired,
        "io_stats": res.io_stats.as_dict(),
        "device": _device_state(ds.device),
    }


def _cache_state(cache: ResultCache) -> dict:
    entries = {
        key: [(a.dtype.str, a.shape, a.tobytes())
              for a in (recs.ids, recs.vmins, recs.values)]
        for key, (_, recs) in cache._lru.items()
    }
    return {"entries": entries, "order": list(cache._lru),
            "stats": dataclasses.asdict(cache.stats)}


def _both(config, kind, fault, seed, checks, lam, **opts):
    """One query through the reference and the live executor."""
    outs = []
    for execute in (reference.execute_plan, execute_plan):
        ds = _with_checks(
            dataclasses.replace(_dataset(config), device=_stack(config, kind, fault, seed)),
            checks,
        )
        plan = ds.tree.plan_query(lam)
        outs.append(_outcome(execute, ds, plan, QueryOptions(**opts)))
        _close(ds.device)
    return outs


def _close(dev) -> None:
    """Close the files under a device stack (simulated devices have none)."""
    if isinstance(dev, FileBackedDevice):
        dev.close()
    for name in ("backing", "primary", "replica"):
        if hasattr(dev, name):
            _close(getattr(dev, name))


def _full_time(config, kind, fault, seed, lam) -> float:
    ds = dataclasses.replace(_dataset(config), device=_stack(config, kind, fault, seed))
    try:
        res = reference.execute_plan(ds, ds.tree.plan_query(lam))
    except Exception:  # noqa: BLE001 - a failing query has no length
        return 0.0
    finally:
        _close(ds.device)
    return res.io_stats.read_time(ds.device.cost_model)


class TestMatchesReference:
    @settings(max_examples=120, deadline=None)
    @given(
        config=st.integers(0, len(CONFIGS) - 1),
        kind=st.sampled_from(DEVICES),
        fault=st.sampled_from(FAULTS),
        seed=st.integers(0, 2**16),
        checks=st.sampled_from(CHECKS),
        verify=st.sampled_from((None, True, False)),
        read_ahead=st.integers(1, 16),
        budget=st.sampled_from(BUDGETS),
        pick=st.integers(0, 10**6),
    )
    def test_records_counts_and_io_match(self, config, kind, fault, seed, checks,
                                         verify, read_ahead, budget, pick):
        lams = _lams(_dataset(config))
        lam = lams[pick % len(lams)]
        if budget not in (None, 0.0, float("inf")):
            budget *= _full_time(config, kind, fault, seed, lam)
        ref, live = _both(
            config, kind, fault, seed, checks, lam, read_ahead_blocks=read_ahead,
            verify_checksums=verify, time_budget=budget,
            retry_policy=RetryPolicy(max_retries=2, max_read_repairs=2),
        )
        assert live.pop("contiguous", True)
        ref.pop("contiguous", None)
        assert live == ref

    @settings(max_examples=40, deadline=None)
    @given(
        config=st.integers(0, len(CONFIGS) - 2),
        seed=st.integers(0, 2**16),
        fraction=st.floats(0.0, 1.0),
        read_ahead=st.integers(1, 4),
    )
    def test_deadline_cuts_mid_run_identically(self, config, seed, fraction, read_ahead):
        """Budgets landing inside multi-chunk runs: the clock is read
        after every chunk, so the cut falls on the same chunk."""
        lams = _lams(_dataset(config))
        lam = lams[seed % len(lams)]
        budget = fraction * _full_time(config, "sim", "none", seed, lam)
        ref, live = _both(config, "sim", "none", seed, "full", lam,
                          read_ahead_blocks=read_ahead, time_budget=budget)
        assert live == ref

    @pytest.mark.parametrize("config", range(len(CONFIGS)))
    def test_isovalue_sweep_matches(self, config):
        """Every other isovalue of the span space, short read-aheads on a
        healthy device: Case-2 scans whose terminator sits mid-chunk
        behind active records, in every record geometry."""
        for lam in _lams(_dataset(config))[::2]:
            for read_ahead in (1, 2):
                ref, live = _both(config, "sim", "none", 0, "full", lam,
                                  read_ahead_blocks=read_ahead)
                assert live == ref, (lam, read_ahead)

    def test_persistent_corruption_matches(self):
        """Persistent damage is detected identically (typed error) with
        verification on, and passed through identically with it off."""
        for config in range(len(CONFIGS) - 1):
            lam = float(np.median(_dataset(config).tree.endpoints))
            for verify in (None, False):
                for seed in range(4):
                    ref, live = _both(config, "sim", "persistent", seed, "full", lam,
                                      verify_checksums=verify, read_ahead_blocks=2)
                    assert live == ref

    def test_damaged_vmins_read_unverified_match(self):
        """Unverified reads of damaged vmins: a scan stops after the
        chunk holding its first ``vmin > lam`` wherever that sits in the
        chunk, and is cut there whatever follows; Case-1 runs keep every
        record."""
        for config in range(len(CONFIGS) - 1):
            for lam in _lams(_dataset(config))[::3]:
                for seed in range(2):
                    ref, live = _both(config, "sim", "vmins", seed, "full", lam,
                                      verify_checksums=False, read_ahead_blocks=8)
                    assert live == ref, (config, lam, seed)


class TestResultCachePath:
    @settings(max_examples=40, deadline=None)
    @given(
        config=st.integers(0, len(CONFIGS) - 2),
        seed=st.integers(0, 2**16),
        steps=st.lists(st.integers(-2, 2), min_size=2, max_size=4),
        read_ahead=st.integers(1, 8),
        budget=st.sampled_from((None, 0.5)),
        capacity=st.sampled_from((1 << 12, 1 << 22)),
    )
    def test_cold_then_warm_matches(self, config, seed, steps, read_ahead, budget,
                                    capacity):
        """A cold query at lambda, then warm ones at the same and at
        neighbouring isovalues: same records and reads as the reference,
        and the two caches end up holding the same entries."""
        lams = _lams(_dataset(config))[2:]
        start = seed % len(lams)
        caches = [ResultCache(capacity), ResultCache(capacity)]
        index = start
        for step in [0, 0, *steps]:
            index = min(max(index + step, 0), len(lams) - 1)
            lam = lams[index]
            time_budget = None
            if budget is not None:
                time_budget = budget * _full_time(config, "sim", "none", seed, lam)
            outs = []
            for execute, cache in zip((reference.execute_plan, execute_plan), caches):
                ds = dataclasses.replace(
                    _dataset(config), device=_stack(config, "sim", "none", seed))
                opts = QueryOptions(read_ahead_blocks=read_ahead, time_budget=time_budget,
                                    result_cache=cache.view(("fp",), 0))
                outs.append((_outcome(execute, ds, ds.tree.plan_query(lam), opts),
                             _cache_state(cache)))
            assert outs[1] == outs[0]

    def test_cache_entries_own_their_arrays(self):
        """Entries are copies: they hold their own bytes, not views into
        a query's joined read buffer."""
        cache = ResultCache(1 << 24)
        ds = dataclasses.replace(_dataset(1), device=_stack(1, "sim", "none", 0))
        lam = float(np.median(ds.tree.endpoints))
        execute_plan(ds, ds.tree.plan_query(lam),
                     QueryOptions(result_cache=cache.view(("fp",), 0)))
        assert len(cache._lru)
        for _, recs in cache._lru.values():
            for arr in (recs.ids, recs.vmins, recs.values):
                assert arr.flags.owndata or isinstance(arr.base, np.ndarray) and \
                    arr.base.flags.owndata and arr.base.base is None


def _signature(plan):
    return (plan.runs, plan.nodes_visited, plan.case1_nodes, plan.case2_nodes,
            plan.bricks_skipped, plan.n_sequential_runs, plan.n_prefix_scans)


class TestPlanEquality:
    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(0, 300),
        n_values=st.integers(1, 40),
        seed=st.integers(0, 2**16),
        lam_num=st.integers(-2, 42),
        offset=st.sampled_from((0.0, 0.5)),
        block=st.sampled_from((1024, 4096)),
    )
    def test_array_plan_equals_reference(self, n, n_values, seed, lam_num, offset,
                                         block):
        rng = np.random.default_rng(seed)
        tree = CompactIntervalTree.build(random_intervals(rng, n, n_values))
        lam = float(lam_num) + offset
        plan, ref = tree.plan_query(lam), reference.plan_query(tree, lam)
        assert _signature(plan) == _signature(ref)
        ext, _ = ExternalCompactIndex(
            SimulatedBlockDevice(IOCostModel(block_size=block)), tree
        ).plan_query(lam)
        # The blocked index stores no node or brick ids: its runs carry -1.
        anonymous = [dataclasses.replace(r, node_id=-1, **(
            {"brick_id": -1} if hasattr(r, "brick_id") else {})) for r in ref.runs]
        assert ext.runs == anonymous
        assert _signature(ext)[1:] == _signature(ref)[1:]

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(2, 200),
        seed=st.integers(0, 2**16),
        lam_num=st.integers(0, 20),
    )
    def test_plans_compare_by_value(self, n, seed, lam_num):
        tree = CompactIntervalTree.build(random_intervals(
            np.random.default_rng(seed), n, 20))
        lam = lam_num + 0.5
        plan = tree.plan_query(lam)
        assert plan == tree.plan_query(lam)
        assert plan != dataclasses.replace(plan, lam=lam + 1.0)
        assert plan != dataclasses.replace(plan, nodes_visited=plan.nodes_visited + 1)
        if plan.n_runs:
            assert plan != dataclasses.replace(plan, count=plan.count + 1)

    @settings(max_examples=30, deadline=None)
    @given(config=st.integers(0, len(CONFIGS) - 1), pick=st.integers(0, 10**6))
    def test_dataset_plans_equal_reference(self, config, pick):
        tree = _dataset(config).tree
        lams = _lams(_dataset(config))
        lam = lams[pick % len(lams)]
        assert _signature(tree.plan_query(lam)) == _signature(
            reference.plan_query(tree, lam))
