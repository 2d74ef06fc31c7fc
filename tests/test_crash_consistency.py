"""Crash-consistency tests for the journaled builder.

Representative tier-1 subset of ``tools/crash_kill_harness.py``: every
kill point of one small build — flat, striped over three nodes, and a
two-step two-node time series — is exercised in-process, plus a
crash-during-resume, a genuine forked ``SIGKILL``-style death, and
torn-write recovery.  The invariant throughout: a build killed anywhere
and resumed produces artifacts **byte-identical** to an uninterrupted
build, with the journal gone and a deep verify clean.
"""

import functools
import hashlib
import os
import shutil

import numpy as np
import pytest

from repro.core import timevarying
from repro.core.builder import FunctionSlabSource
from repro.core.journal import JOURNAL_FILE, BuildJournal
from repro.core.persistence import (
    BRICKS_FILE,
    BRICKS_PARTIAL_FILE,
    INDEX_FILE,
    META_FILE,
    build_persistent_dataset,
    build_persistent_striped,
    load_dataset,
)
from repro.core.validation import verify_dataset
from repro.grid.volume import Volume
from repro.io.faults import (
    CrashSchedule,
    FaultInjectingDevice,
    FaultPlan,
    SimulatedCrash,
)

ARTIFACTS = (BRICKS_FILE, INDEX_FILE, META_FILE)
MC = (4, 4, 4)
GROUP_RECORDS = 16


def small_volume(seed=5):
    shape = (17, 17, 17)
    zz, yy, xx = np.meshgrid(
        *(np.linspace(-1.0, 1.0, s) for s in shape), indexing="ij"
    )
    rng = np.random.default_rng(seed)
    data = (
        np.sqrt(xx**2 + yy**2 + zz**2) + 0.05 * rng.standard_normal(shape)
    ).astype(np.float32)
    return Volume(data)


def hashes(directory):
    """Digest of every artifact under ``directory`` (a flat dataset, or
    the node directories of a striped build or a series), by path."""
    return {
        str(path.relative_to(directory)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.rglob("*"))
        if path.name in ARTIFACTS
    }


def slab_source(volume):
    """``volume`` as a multi-slab source: one metacell layer per call,
    a fresh array each time, so no full-volume array is handed over."""
    return FunctionSlabSource(
        lambda x0, x1: volume.data[x0:x1].copy(), volume.shape, volume.dtype,
        name=volume.name,
    )


def assert_every_kill_point_resumes(build, tmp_path, after_crash=None):
    """``build(out, crash=None) -> datasets``: killed at each of its
    crash points in turn and rerun, it must leave exactly the artifacts
    of an uninterrupted run, no journal or staging file, and node
    directories that reload and deep-verify clean.  ``after_crash(out,
    ref)``, if given, inspects each killed directory before the rerun."""
    probe = CrashSchedule(kill_at=None)
    build(tmp_path / "ref", probe)
    want = hashes(tmp_path / "ref")
    trial = tmp_path / "trial"
    for k in range(probe.points_seen):
        with pytest.raises(SimulatedCrash):
            build(trial, CrashSchedule(kill_at=k))
        if after_crash is not None:
            after_crash(trial, tmp_path / "ref")
        datasets = build(trial)
        assert hashes(trial) == want, f"kill point {k}"
        for name in (JOURNAL_FILE, BRICKS_PARTIAL_FILE):
            assert not list(trial.rglob(name)), f"kill point {k}"
        for ds in datasets:
            ds.device.close()
            reopened = load_dataset(ds.source_dir)
            assert verify_dataset(reopened, deep=True).ok, f"kill point {k}"
            reopened.device.close()
        shutil.rmtree(trial)
    return probe


@pytest.fixture(scope="module")
def volume():
    return small_volume()


@pytest.fixture(scope="module")
def reference(volume, tmp_path_factory):
    """Uninterrupted build + its artifact hashes + kill-point count."""
    ref_dir = tmp_path_factory.mktemp("crash_ref")
    probe = CrashSchedule(kill_at=None)
    build_persistent_dataset(
        volume, ref_dir, MC, group_records=GROUP_RECORDS, crash=probe
    )
    return {"hashes": hashes(ref_dir), "n_points": probe.points_seen,
            "trace": list(probe.trace)}


class TestKillPointSpace:
    def test_discovery_counts_points(self, reference):
        assert reference["n_points"] > 10

    def test_commit_protocol_points_present(self, reference):
        trace = reference["trace"]
        for name in ("begin_journaled", "store_closed", "bricks_renamed",
                     "index_renamed", "meta_renamed", "journal_committed"):
            assert name in trace
        # Rename order is the commit protocol: bricks before index
        # before meta before the journal's commit record.
        assert (trace.index("bricks_renamed")
                < trace.index("index_renamed")
                < trace.index("meta_renamed")
                < trace.index("journal_committed"))


class TestEveryKillPoint:
    def test_all_kill_points_resume_byte_identical(
        self, volume, reference, tmp_path
    ):
        probe = assert_every_kill_point_resumes(
            lambda out, crash=None: [build_persistent_dataset(
                volume, out, MC, group_records=GROUP_RECORDS, crash=crash
            )],
            tmp_path,
        )
        assert probe.trace == reference["trace"]

    def test_striped_kill_points_resume_byte_identical(self, volume, tmp_path):
        """Every crash point of every node build of a p = 3 stripe."""
        probe = assert_every_kill_point_resumes(
            lambda out, crash=None: build_persistent_striped(
                volume, out, 3, MC, group_records=GROUP_RECORDS, crash=crash
            ),
            tmp_path,
        )
        assert probe.trace.count("journal_committed") == 3

    def test_series_kill_points_resume_byte_identical(
        self, volume, tmp_path, monkeypatch
    ):
        """Every crash point of the 2 x 2 node builds of a two-step,
        two-node series written by ``TimeVaryingIndex(directory=...)``;
        the schedule is handed to the writer it calls."""
        steps = [(0, volume), (1, small_volume(seed=6))]

        def build(out, crash=None):
            monkeypatch.setattr(
                timevarying, "build_persistent_striped",
                functools.partial(
                    build_persistent_striped,
                    group_records=2 * GROUP_RECORDS, crash=crash,
                ),
            )
            tvi = timevarying.TimeVaryingIndex.from_series(
                steps, p=2, metacell_shape=MC, directory=out
            )
            return [ds for _, nodes in tvi.iter_steps() for ds in nodes]

        probe = assert_every_kill_point_resumes(build, tmp_path)
        assert probe.trace.count("journal_committed") == 4

    def test_slab_source_kill_points_resume_byte_identical(
        self, volume, reference, tmp_path
    ):
        """Every kill point of a build streamed one metacell layer at a
        time, records written out of layout order.  At each kill the
        journal claims no record the staging store does not hold (the
        resume unit is the journaled group prefix); resumed, the build
        equals the uninterrupted slab build, which equals the ``Volume``
        build of the same data."""
        source = slab_source(volume)

        def journal_claims_hold(out, ref):
            state = BuildJournal.read_state(out)
            if state is None or state.committed or not state.records_done:
                return
            store = out / BRICKS_PARTIAL_FILE
            store = store if store.exists() else out / BRICKS_FILE
            claimed = state.records_done * state.record_size
            assert claimed <= (ref / BRICKS_FILE).stat().st_size
            assert store.read_bytes()[:claimed] == (ref / BRICKS_FILE).read_bytes()[:claimed]

        probe = assert_every_kill_point_resumes(
            lambda out, crash=None: [build_persistent_dataset(
                source, out, MC, group_records=GROUP_RECORDS, crash=crash
            )],
            tmp_path, after_crash=journal_claims_hold,
        )
        assert hashes(tmp_path / "ref") == reference["hashes"]
        boundaries = [p for p in probe.trace if p.startswith("slab_boundary:")]
        assert len(boundaries) == 5  # 17 planes: six layers of m - 1 = 3
        # Out of layout order: some group completes only after a later one
        # was already half written, so groups journal in bursts.
        assert probe.trace.index("group_journaled:0") > probe.trace.index(boundaries[0])

    def test_crash_during_resume(self, volume, reference, tmp_path):
        out = tmp_path / "ds"
        out.mkdir()
        with pytest.raises(SimulatedCrash):
            build_persistent_dataset(
                volume, out, MC, group_records=GROUP_RECORDS,
                crash=CrashSchedule(kill_at=3),
            )
        with pytest.raises(SimulatedCrash):
            build_persistent_dataset(
                volume, out, MC, group_records=GROUP_RECORDS,
                crash=CrashSchedule(kill_at=4),
            )
        build_persistent_dataset(volume, out, MC, group_records=GROUP_RECORDS)
        assert hashes(out) == reference["hashes"]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="fork-only")
    def test_hard_process_kill(self, volume, reference, tmp_path):
        """A real ``os._exit(137)`` death — no unwinding, no finally."""
        out = tmp_path / "ds"
        out.mkdir()
        kill_at = reference["n_points"] // 2
        pid = os.fork()
        if pid == 0:
            try:
                build_persistent_dataset(
                    volume, out, MC, group_records=GROUP_RECORDS,
                    crash=CrashSchedule(kill_at=kill_at, hard=True),
                )
            finally:
                os._exit(0)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 137
        build_persistent_dataset(volume, out, MC, group_records=GROUP_RECORDS)
        assert hashes(out) == reference["hashes"]


class TestJournalState:
    def test_journal_present_after_crash(self, volume, tmp_path):
        out = tmp_path / "ds"
        out.mkdir()
        with pytest.raises(SimulatedCrash):
            build_persistent_dataset(
                volume, out, MC, group_records=GROUP_RECORDS,
                crash=CrashSchedule(kill_at=5),
            )
        state = BuildJournal.read_state(out)
        assert state is not None
        assert not state.committed
        assert state.records_done >= 0

    def test_committed_build_loads_without_rewrite(self, volume, tmp_path):
        out = tmp_path / "ds"
        out.mkdir()
        build_persistent_dataset(volume, out, MC, group_records=GROUP_RECORDS)
        before = (out / BRICKS_FILE).stat().st_mtime_ns
        ds = build_persistent_dataset(
            volume, out, MC, group_records=GROUP_RECORDS
        )
        assert (out / BRICKS_FILE).stat().st_mtime_ns == before
        assert verify_dataset(ds, deep=False).ok

    def test_changed_volume_triggers_rebuild(self, volume, tmp_path):
        out = tmp_path / "ds"
        out.mkdir()
        with pytest.raises(SimulatedCrash):
            build_persistent_dataset(
                volume, out, MC, group_records=GROUP_RECORDS,
                crash=CrashSchedule(kill_at=2),
            )
        other = small_volume(seed=99)
        ds = build_persistent_dataset(
            other, out, MC, group_records=GROUP_RECORDS
        )
        assert verify_dataset(ds, deep=True).ok
        # And it really is the other volume's build: a clean build of
        # ``other`` elsewhere matches byte-for-byte.
        ref2 = tmp_path / "ref2"
        ref2.mkdir()
        build_persistent_dataset(other, ref2, MC, group_records=GROUP_RECORDS)
        assert hashes(out) == hashes(ref2)


class TestTornWrites:
    def test_torn_writes_detected_and_rewritten(
        self, volume, reference, tmp_path
    ):
        """A device that tears writes still yields byte-identical
        artifacts: write-verify reads every group back and rewrites."""
        out = tmp_path / "ds"
        out.mkdir()
        ds = build_persistent_dataset(
            volume, out, MC, group_records=GROUP_RECORDS,
            wrap_device=lambda raw: FaultInjectingDevice(
                raw, FaultPlan(torn_write_rate=0.3, seed=21)
            ),
        )
        assert hashes(out) == reference["hashes"]
        assert verify_dataset(ds, deep=True).ok

    def test_slab_source_torn_writes_rewritten(self, volume, reference, tmp_path):
        """A multi-slab build over a device that tears writes: every run
        is read back and rewritten, so the artifacts still equal the
        ``Volume`` build's."""
        out = tmp_path / "ds"
        box = {}
        ds = build_persistent_dataset(
            slab_source(volume), out, MC, group_records=GROUP_RECORDS,
            wrap_device=lambda raw: box.setdefault("dev", FaultInjectingDevice(
                raw, FaultPlan(torn_write_rate=0.3, seed=21)
            )),
        )
        assert box["dev"].fault_stats.torn_writes > 0
        assert hashes(out) == reference["hashes"]
        assert verify_dataset(ds, deep=True).ok

    def test_torn_write_then_crash_then_resume(self, volume, reference, tmp_path):
        out = tmp_path / "ds"
        out.mkdir()
        with pytest.raises(SimulatedCrash):
            build_persistent_dataset(
                volume, out, MC, group_records=GROUP_RECORDS,
                crash=CrashSchedule(kill_at=7),
                wrap_device=lambda raw: FaultInjectingDevice(
                    raw, FaultPlan(torn_write_rate=0.3, seed=22)
                ),
            )
        build_persistent_dataset(
            volume, out, MC, group_records=GROUP_RECORDS
        )
        assert hashes(out) == reference["hashes"]
