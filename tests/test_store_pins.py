"""Store-level byte pins: every builder writes what it wrote before the
scan pass was rewritten.

One fixed volume goes through the in-memory, striped (p=4, r=2),
persistent and crash-resumed builders, and through the persistent
builder again as a multi-slab :class:`FunctionSlabSource`; the digests of
the brick bytes and of the checksum tables were recorded from the commit
before the preprocessing scan pass was rewritten (separable extrema, one
group routine).  A faster scan pass may change how the bytes are
produced, never which bytes.

The streaming build has no digests of its own: a volume streamed slab by
slab must write exactly what the in-memory ``Volume`` build writes.
``PARENT_VOLUME_BUILD`` pins how the ``Volume`` build writes it.
"""

import hashlib

import numpy as np
import pytest

from repro.core.builder import (
    FunctionSlabSource,
    build_indexed_dataset,
    build_striped_datasets,
)
from repro.core.journal import JOURNAL_FILE, BuildJournal
from repro.core.persistence import (
    BRICKS_FILE,
    INDEX_FILE,
    META_FILE,
    build_fingerprint,
    build_persistent_dataset,
    build_persistent_striped,
)
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


def test_streaming_build(volume, tmp_path):
    """The pinned volume streamed one metacell layer at a time through the
    durable builder writes the ``Volume`` build's directory."""
    source = FunctionSlabSource(
        lambda x0, x1: volume.data[x0:x1], volume.shape, volume.dtype, name=volume.name
    )
    build_persistent_dataset(source, tmp_path, MC, group_records=GROUP_RECORDS)
    assert directory_digests(tmp_path) == PINS["persistent"]


class _RecordingDevice:
    """Pass-through staging-device wrapper logging writes and fsyncs."""

    def __init__(self, raw):
        self.raw, self.writes, self.fsyncs = raw, [], 0

    def allocate(self, nbytes):
        return self.raw.allocate(nbytes)

    def write(self, offset, data):
        self.writes.append((offset, len(data)))
        self.raw.write(offset, data)

    def fsync(self):
        self.fsyncs += 1
        self.raw.fsync()

    def close(self):
        self.raw.close()


#: How the parent commit (the last one with a separate streaming builder)
#: wrote ``pinned_volume()`` with ``GROUP_RECORDS``: its
#: ``CrashSchedule.trace``, the staging device's ``(offset, len)`` writes
#: in order, its fsync count, and the sha256 of ``build.journal`` as it
#: stands at the ``journal_committed`` kill point.  Recorded by running
#: this test's builds at that commit.
PARENT_VOLUME_BUILD = {
    "trace": [
        "begin_journaled",
        *(f"group_{step}:{g}" for g in range(11)
          for step in ("written", "flushed", "journaled")),
        "store_closed", "bricks_renamed", "index_tmp_written", "index_renamed",
        "meta_tmp_written", "meta_renamed", "journal_committed",
    ],
    "writes": [(2080 * g, 2080) for g in range(10)] + [(20800, 910)],
    "fsyncs": 12,
    "journal": "51db544ee9fe740ef2f1ec04097897b2926b06c424a28e1daee8533a3446399c",
}


def test_volume_build_writes_as_the_parent_did(volume, tmp_path):
    """A ``Volume`` is a one-slab source: same kill points, same staging
    writes (so ``preprocess_build``'s counted blocks stay exact), same
    fsyncs, same journal bytes as before slab sources existed."""
    box = {}
    probe = CrashSchedule(kill_at=None)
    build_persistent_dataset(
        volume, tmp_path / "ds", MC, group_records=GROUP_RECORDS, crash=probe,
        wrap_device=lambda raw: box.setdefault("dev", _RecordingDevice(raw)),
    )
    assert probe.trace == PARENT_VOLUME_BUILD["trace"]
    assert box["dev"].writes == PARENT_VOLUME_BUILD["writes"]
    assert box["dev"].fsyncs == PARENT_VOLUME_BUILD["fsyncs"]
    with pytest.raises(SimulatedCrash):
        build_persistent_dataset(
            volume, tmp_path / "killed", MC, group_records=GROUP_RECORDS,
            crash=CrashSchedule(kill_at=probe.trace.index("journal_committed")),
        )
    journal = (tmp_path / "killed" / JOURNAL_FILE).read_bytes()
    assert sha(journal) == PARENT_VOLUME_BUILD["journal"]


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
