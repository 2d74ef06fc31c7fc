"""Store-level byte pins: every builder writes what it wrote before PR 15.

One fixed volume goes through the in-memory, striped (p=4, r=2),
persistent, crash-resumed and streaming builders; the digests of the
brick bytes and of the checksum tables were recorded from the commit
before the preprocessing scan pass was rewritten (separable extrema, one
group routine).  A faster scan pass may change how the bytes are
produced, never which bytes.

The one entry not recorded from the parent is the streaming builder's
checksum tables: the parent returned none (the bug this PR fixes), so
they are pinned to the in-memory builder's, which the parent did record.
"""

import hashlib

import numpy as np
import pytest

from repro.core.builder import build_indexed_dataset, build_striped_datasets
from repro.core.journal import BuildJournal
from repro.core.persistence import (
    BRICKS_FILE,
    INDEX_FILE,
    META_FILE,
    build_fingerprint,
    build_persistent_dataset,
    build_persistent_striped,
)
from repro.core.streaming import VolumeSlabSource, build_indexed_dataset_streaming
from repro.grid.volume import Volume
from repro.io.faults import CrashSchedule, SimulatedCrash

MC = (5, 5, 5)
GROUP_RECORDS = 16

#: Recorded at the parent commit (PR 14) by running the functions below.
PINS = {
    "memory": {
        "bricks": "c8079379311fb7bd2137a2db21fdef578e3e4b79cb490a6039ef1247e123d656",
        "record_crcs": "43b0172839c81ee18d1695380de98ce300187650a8989568a8fb35ced76fa90a",
        "cum_crcs": "e2bbcff468e789a33aa9da48ef31fcaff801273aaf406910c0624438cc3848b2",
    },
    "striped": {
        "bricks": "2c473b412a639d7de96cc4d765effa05bdd3d06aa230e9525452a55514b4dabf",
        "record_crcs": "3d97b2b5523c490cc19c156f608a44e10772f7b069190f19f9a10ecd75446bd4",
        "cum_crcs": "2cd69e04f66ef6c51b72f383fd50820710a47316a38b66ef935f97f3d7873984",
    },
    "persistent": {
        "bricks": "c8079379311fb7bd2137a2db21fdef578e3e4b79cb490a6039ef1247e123d656",
        "index": "f591e4ea12a7211e3aa27b5ada064990f7f72672de55736f74615efdd5d3c3b5",
        "meta": "87eaeef5ad0366d4012fe643f1b78c522c47de6849cbbe7b692115de4c6fe3e4",
    },
}

#: ``build_fingerprint`` of the pinned volume as the parent computed it
#: (``zlib.crc32(data.tobytes())``): what a journal or ``meta.json``
#: written before this PR carries.
PARENT_FINGERPRINT = {
    "volume_crc": 510284182,
    "volume_shape": [21, 18, 27],
    "dtype": "uint8",
    "metacell_shape": [5, 5, 5],
    "n_records": 167,
    "record_size": 130,
    "format_version": 2,
}


def pinned_volume() -> Volume:
    """21x18x27 uint8 from integer arithmetic only (no RNG, no libm): the
    y axis needs padding, and a constant corner is culled."""
    i, j, k = np.ogrid[:21, :18, :27]
    data = ((i * 7 + j * 13 + k * 29) ^ (i * j + k)) % 251
    data[:9, :9, :9] = 7
    return Volume(data.astype(np.uint8))


def sha(*chunks) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


def store_digests(datasets) -> dict:
    """Digest of the whole device (primaries and replicas) and of the
    checksum tables of one or more in-memory datasets."""
    return {
        "bricks": sha(*(ds.device.peek(0, ds.device.size) for ds in datasets)),
        "record_crcs": sha(
            *(ds.checksums.record_crcs.astype("<u4").tobytes() for ds in datasets)
        ),
        "cum_crcs": sha(
            *(ds.checksums.cum_crcs.astype("<u4").tobytes() for ds in datasets)
        ),
    }


def directory_digests(directory) -> dict:
    """Digest of a dataset directory: brick bytes, every index array
    (name, dtype, shape, bytes — not the npz container, whose compressed
    bytes belong to zlib) and the ``meta.json`` text."""
    with np.load(directory / INDEX_FILE) as npz:
        index = sha(*(
            part
            for name in sorted(npz.files)
            for part in (
                f"{name}:{npz[name].dtype.str}:{npz[name].shape}".encode(),
                np.ascontiguousarray(npz[name]).tobytes(),
            )
        ))
    return {
        "bricks": sha((directory / BRICKS_FILE).read_bytes()),
        "index": index,
        "meta": sha((directory / META_FILE).read_bytes()),
    }


@pytest.fixture(scope="module")
def volume():
    return pinned_volume()


def test_in_memory_build(volume):
    assert store_digests([build_indexed_dataset(volume, MC)]) == PINS["memory"]


def test_striped_replicated_build(volume):
    nodes = build_striped_datasets(volume, 4, MC, replication=2)
    assert store_digests(nodes) == PINS["striped"]


def test_persistent_build(volume, tmp_path):
    build_persistent_dataset(volume, tmp_path, MC, group_records=GROUP_RECORDS)
    assert directory_digests(tmp_path) == PINS["persistent"]


def test_persistent_striped_build_equals_in_memory_stripes(volume, tmp_path):
    """No new digests: persisted stripe ``q`` holds the bricks and the
    checksum tables of in-memory ``build_striped_datasets`` node ``q``
    (whose concatenation, with replicas, is the ``"striped"`` pin)."""
    persisted = build_persistent_striped(
        volume, tmp_path, 4, MC, group_records=GROUP_RECORDS
    )
    for q, (disk, mem) in enumerate(zip(persisted, build_striped_datasets(volume, 4, MC))):
        assert (disk.node_rank, disk.n_cluster_nodes) == (q, 4)
        assert disk.source_dir == str(tmp_path / f"node_{q}")
        assert (tmp_path / f"node_{q}" / BRICKS_FILE).read_bytes() == bytes(
            mem.device.peek(0, mem.device.size)
        )
        for table in ("record_crcs", "brick_crcs", "cum_crcs"):
            a, b = getattr(disk.checksums, table), getattr(mem.checksums, table)
            assert a.dtype == b.dtype and np.array_equal(a, b), (q, table)


@pytest.mark.parametrize("point", ["group_flushed:1", "bricks_renamed"])
def test_crash_resumed_build(volume, tmp_path, point):
    probe = CrashSchedule(kill_at=None)
    build_persistent_dataset(
        volume, tmp_path / "probe", MC, group_records=GROUP_RECORDS, crash=probe
    )
    with pytest.raises(SimulatedCrash):
        build_persistent_dataset(
            volume, tmp_path / "ds", MC, group_records=GROUP_RECORDS,
            crash=CrashSchedule(kill_at=probe.trace.index(point)),
        )
    build_persistent_dataset(volume, tmp_path / "ds", MC, group_records=GROUP_RECORDS)
    assert directory_digests(tmp_path / "ds") == PINS["persistent"]


def test_streaming_build(volume):
    ds = build_indexed_dataset_streaming(VolumeSlabSource(volume), MC)
    assert store_digests([ds]) == PINS["memory"]


def test_parent_journal_still_resumes(volume, tmp_path):
    """Hashing the volume buffer in place must not change the fingerprint:
    a journal begun by the parent's code is resumed, not started over."""
    assert build_fingerprint(volume, MC, 167, 130) == PARENT_FINGERPRINT
    with BuildJournal(tmp_path) as journal:
        journal.begin(PARENT_FINGERPRINT, 167, 130, GROUP_RECORDS)
    probe = CrashSchedule(kill_at=None)
    build_persistent_dataset(
        volume, tmp_path, MC, group_records=GROUP_RECORDS, crash=probe
    )
    assert "begin_journaled" not in probe.trace
    assert directory_digests(tmp_path) == PINS["persistent"]


@pytest.mark.parametrize("order", ["F", "sliced"])
def test_fingerprint_of_non_contiguous_volume(volume, order):
    """The in-place hash still sees C-order bytes whatever the layout."""
    if order == "F":
        data = np.asfortranarray(volume.data)
    else:
        data = np.repeat(volume.data, 2, axis=2)[:, :, ::2]
    assert not data.flags.c_contiguous
    assert build_fingerprint(Volume(data), MC, 167, 130) == PARENT_FINGERPRINT
