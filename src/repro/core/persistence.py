"""Dataset persistence: the one durable store writer, and its reader.

The whole point of out-of-core preprocessing is to pay it once.  A
preprocessed dataset is a self-describing directory::

    dataset_dir/
      bricks.bin     the brick layout, records in tree order
      index.npz      the compact interval tree + CRC32 checksum tables
      meta.json      codec + grid metadata + report + build fingerprint

and only the journaled builder creates those files, in three steps:
*plan* (pass 1 of :func:`repro.core.builder.plan_layout` over the input's
slabs, which also sums the fingerprint's volume CRC), *journaled store
write* (pass 2: the slabs re-streamed, their records written at their
final offsets and read back, each record group fsync'd and logged in
``build.journal`` once the groups before it are complete; ``bricks.bin``
renamed into place) and *publish* (``index.npz`` then ``meta.json``,
each tmp → fsync → ``os.replace``; journal commit).  The store write
takes any tree of the plan, so the same steps serve
:func:`build_persistent_dataset` (the serial tree),
:func:`build_persistent_striped` (the ``p`` stripes of paper Section 5.1
in ``node_<q>/``) and a time series (one striped build per
``step_<t>/``, :class:`repro.core.timevarying.TimeVaryingIndex`).
Bricks go to disk as they are encoded; only the index and one slab of
the input stay in memory.
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path

import numpy as np

from repro.core.builder import (
    WRITE_CHUNK_RECORDS,
    DatasetMeta,
    IndexedDataset,
    LayoutPlan,
    PreprocessReport,
    plan_layout,
)
from repro.core.compact_tree import CompactIntervalTree, TreeNode
from repro.io.cost_model import IOCostModel
from repro.io.diskfile import FileBackedDevice
from repro.io.layout import BrickChecksums, MetacellCodec, compute_crc_tables

#: Format version for forward-compatibility checks.  Version 2 added the
#: CRC32 checksum tables (``record_crcs`` / ``brick_crcs`` in the index
#: npz); version-1 stores load fine with ``checksums=None``.
FORMAT_VERSION = 2

#: Versions :func:`load_dataset` can read.
SUPPORTED_FORMAT_VERSIONS = (1, 2)

BRICKS_FILE = "bricks.bin"
INDEX_FILE = "index.npz"
META_FILE = "meta.json"

#: Staging names used by the journaled builder.  Readers never look at
#: these: an artifact is either fully committed under its final name (an
#: atomic ``os.replace`` away from its staging twin) or invisible.
BRICKS_PARTIAL_FILE = BRICKS_FILE + ".partial"
INDEX_TMP_FILE = INDEX_FILE + ".tmp"
META_TMP_FILE = META_FILE + ".tmp"


class DatasetFormatError(ValueError):
    """A dataset artifact exists but is not a format this build reads."""


class MissingArtifactError(FileNotFoundError):
    """A required dataset artifact (meta/index/bricks) is absent."""


# ---------------------------------------------------------------------------
# Tree <-> arrays
# ---------------------------------------------------------------------------


def tree_to_arrays(tree: CompactIntervalTree) -> "dict[str, np.ndarray]":
    """Flatten a compact interval tree into named arrays (npz-friendly)."""
    n_nodes = tree.n_nodes
    split = np.asarray([nd.split for nd in tree.nodes])
    lo = np.asarray([nd.lo_code for nd in tree.nodes], dtype=np.int64)
    hi = np.asarray([nd.hi_code for nd in tree.nodes], dtype=np.int64)
    left = np.asarray([nd.left for nd in tree.nodes], dtype=np.int64)
    right = np.asarray([nd.right for nd in tree.nodes], dtype=np.int64)
    # Per-node brick-id ranges into the flat brick table: node entries are
    # contiguous slices of brick ids by construction, but striped local
    # trees renumber them, so store the explicit id lists flattened.
    brick_ids_flat = (
        np.concatenate([nd.brick_ids for nd in tree.nodes])
        if n_nodes
        else np.empty(0, dtype=np.int64)
    )
    brick_ids_count = np.asarray([nd.n_bricks for nd in tree.nodes], dtype=np.int64)
    return {
        "endpoints": tree.endpoints,
        "node_split": split,
        "node_lo": lo,
        "node_hi": hi,
        "node_left": left,
        "node_right": right,
        "node_brick_ids_flat": brick_ids_flat,
        "node_brick_count": brick_ids_count,
        "record_order": tree.record_order,
        "record_vmins": tree.record_vmins,
        "record_ids": tree.record_ids,
        "brick_node": tree.brick_node,
        "brick_vmax": tree.brick_vmax,
        "brick_min_vmin": tree.brick_min_vmin,
        "brick_start": tree.brick_start,
        "brick_count": tree.brick_count,
    }


def tree_from_arrays(arrays: "dict[str, np.ndarray]") -> CompactIntervalTree:
    """Rebuild a compact interval tree from :func:`tree_to_arrays` output."""
    tree = CompactIntervalTree()
    tree.endpoints = np.asarray(arrays["endpoints"])
    tree.record_order = np.asarray(arrays["record_order"], dtype=np.int64)
    tree.record_vmins = np.asarray(arrays["record_vmins"])
    tree.record_ids = np.asarray(arrays["record_ids"], dtype=np.uint32)
    tree.brick_node = np.asarray(arrays["brick_node"], dtype=np.int64)
    tree.brick_vmax = np.asarray(arrays["brick_vmax"])
    tree.brick_min_vmin = np.asarray(arrays["brick_min_vmin"])
    tree.brick_start = np.asarray(arrays["brick_start"], dtype=np.int64)
    tree.brick_count = np.asarray(arrays["brick_count"], dtype=np.int64)

    counts = np.asarray(arrays["node_brick_count"], dtype=np.int64)
    flat = np.asarray(arrays["node_brick_ids_flat"], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    for i in range(len(counts)):
        bids = flat[offsets[i] : offsets[i + 1]]
        tree.nodes.append(
            TreeNode(
                node_id=i,
                split=arrays["node_split"][i],
                lo_code=int(arrays["node_lo"][i]),
                hi_code=int(arrays["node_hi"][i]),
                left=int(arrays["node_left"][i]),
                right=int(arrays["node_right"][i]),
                entry_vmax=tree.brick_vmax[bids],
                entry_min_vmin=tree.brick_min_vmin[bids],
                entry_start=tree.brick_start[bids],
                entry_count=tree.brick_count[bids],
                brick_ids=bids,
            )
        )
    return tree


# ---------------------------------------------------------------------------
# Dataset directory
# ---------------------------------------------------------------------------


def load_dataset(
    directory: str | Path, cost_model: IOCostModel | None = None
) -> IndexedDataset:
    """Reopen a dataset directory committed by
    :func:`build_persistent_dataset` / :func:`build_persistent_striped`."""
    directory = Path(directory)
    meta_path = directory / META_FILE
    if not meta_path.exists():
        raise MissingArtifactError(f"no {META_FILE} in {directory}")
    blob = json.loads(meta_path.read_text())
    if blob.get("format_version") not in SUPPORTED_FORMAT_VERSIONS:
        raise DatasetFormatError(
            f"dataset format {blob.get('format_version')} not in supported "
            f"{SUPPORTED_FORMAT_VERSIONS}"
        )
    index_path = directory / INDEX_FILE
    if not index_path.exists():
        raise MissingArtifactError(f"no {INDEX_FILE} in {directory}")
    with np.load(index_path) as npz:
        arrays = {k: npz[k] for k in npz.files}
    tree = tree_from_arrays(arrays)
    checksums = None
    if "record_crcs" in arrays and "brick_crcs" in arrays:
        cum = arrays.get("cum_crcs")
        if cum is not None and len(cum) != len(arrays["record_crcs"]) + 1:
            # Truncated or stale cumulative table (e.g. a v1->v2 store
            # whose npz was rewritten partially).  The cumulative CRCs
            # are a fast-path accelerator only — drop them and fall back
            # to per-record verification instead of refusing the load.
            cum = None
        checksums = BrickChecksums(
            record_crcs=arrays["record_crcs"],
            brick_crcs=arrays["brick_crcs"],
            cum_crcs=cum,
        )

    codec = MetacellCodec(
        tuple(blob["codec"]["metacell_shape"]),
        np.dtype(blob["codec"]["scalar_dtype"]),
    )
    meta = DatasetMeta(**{
        k: tuple(v) if isinstance(v, list) else v for k, v in blob["meta"].items()
    })
    report = PreprocessReport(**blob["report"])
    bricks = directory / BRICKS_FILE
    if not bricks.exists():
        raise MissingArtifactError(f"no {BRICKS_FILE} in {directory}")
    device = FileBackedDevice(bricks, cost_model, create=False)
    expected = blob["base_offset"] + tree.n_records * codec.record_size
    if device.size < expected:
        raise IOError(
            f"brick store {bricks} holds {device.size} bytes, index expects "
            f">= {expected}: store truncated?"
        )
    return IndexedDataset(
        tree=tree,
        device=device,
        codec=codec,
        base_offset=blob["base_offset"],
        meta=meta,
        report=report,
        node_rank=blob["node_rank"],
        n_cluster_nodes=blob["n_cluster_nodes"],
        checksums=checksums,
        source_dir=str(directory),
    )


# ---------------------------------------------------------------------------
# Journaled, crash-consistent build
# ---------------------------------------------------------------------------


def _fsync_dir(directory: Path) -> None:
    """Make a rename durable by fsyncing its containing directory."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platforms without dir fds
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fs does not support dir fsync
        pass
    finally:
        os.close(fd)


def build_fingerprint(volume, metacell_shape, n_records, record_size) -> dict:
    """Identity of one exact build input.

    A journal (or a committed dataset) belongs to a resumable build only
    if its fingerprint matches — resuming over a half-built layout of
    *different* data would corrupt it silently, so mismatch means start
    over.  ``volume`` is an in-memory :class:`~repro.grid.volume.Volume`
    or the :class:`~repro.core.builder.LayoutPlan` of any slab source,
    whose :attr:`~repro.core.builder.LayoutPlan.volume_crc` is the same CRC.
    """
    if isinstance(volume, LayoutPlan):
        crc, volume = volume.volume_crc, volume.source
    else:
        # Hashed in place through the buffer protocol: ``tobytes()`` would
        # copy the whole volume (7.5 GB per time step at paper scale).
        crc = zlib.crc32(np.ascontiguousarray(volume.data))
    return {
        "volume_crc": crc,
        "volume_shape": list(volume.shape),
        "dtype": str(volume.dtype),
        "metacell_shape": list(metacell_shape),
        "n_records": int(n_records),
        "record_size": int(record_size),
        "format_version": FORMAT_VERSION,
    }


def _verified_resume_point(
    data_path: Path, state, record_size: int, crcs: np.ndarray, cum: np.ndarray
) -> int:
    """Re-verify journaled groups against actual file bytes.

    The journal *claims* ``records_done`` records are durable; the crash
    may have torn the tail (or a fault-injecting device may have torn a
    write the journal never learned about).  Walk the journaled groups
    in order, recomputing the cumulative CRC32 of the file's record
    stream, and stop at the first group whose claim the bytes do not
    honor.  Returns the number of records verified and fills ``crcs`` /
    ``cum`` (``cum[0] == 0`` on entry) for that prefix — the checksum
    tables of a resumed build are recomputed from disk, never trusted
    from the journal alone.
    """
    verified = 0
    try:
        file_size = data_path.stat().st_size
    except OSError:  # pragma: no cover - racing deletion
        file_size = 0
    with open(data_path, "rb") as fh:
        for group in state.groups:
            done = int(group["records_done"])
            if done <= verified:
                # A resumed run re-journals groups it rewrote; duplicate
                # or out-of-order claims are redundant, not terminal.
                continue
            if done * record_size > file_size:
                break
            fh.seek(verified * record_size)
            blob = fh.read((done - verified) * record_size)
            if len(blob) != (done - verified) * record_size:
                break  # pragma: no cover - size raced below stat
            group_crcs, group_cum = compute_crc_tables(
                blob, record_size, int(cum[verified])
            )
            if int(group_cum[-1]) != int(group["cum_crc"]):
                break
            crcs[verified:done] = group_crcs
            cum[verified + 1 : done + 1] = group_cum[1:]
            verified = done
    return verified


def _clear_stale_build(directory: Path) -> None:
    """Remove every artifact of an abandoned or mismatched build.

    ``meta.json`` goes *first*: its presence is what marks a directory
    as a committed dataset, so removing it makes the directory invisible
    to readers before any other artifact is touched.
    """
    from repro.core.journal import JOURNAL_FILE

    for name in (
        META_FILE,
        JOURNAL_FILE,
        INDEX_FILE,
        BRICKS_FILE,
        BRICKS_PARTIAL_FILE,
        INDEX_TMP_FILE,
        META_TMP_FILE,
    ):
        (directory / name).unlink(missing_ok=True)


def _resume_point(directory: Path, fingerprint: dict, n: int, rec: int,
                  resume: bool, crcs: np.ndarray, cum: np.ndarray):
    """Decide where a build of ``fingerprint`` into ``directory`` starts.

    ``None``: the directory already holds exactly that build, committed.
    Otherwise ``(resumed, verified, store_complete)``: whether a live
    journal of the same input is continued, how many of its leading
    records re-verified against the file bytes (filling ``crcs`` /
    ``cum``), and whether ``bricks.bin`` is already renamed.  Anything
    else found (other data, mismatched or missing journal) is cleared.
    """
    from repro.core.journal import BuildJournal

    bricks = directory / BRICKS_FILE
    partial = directory / BRICKS_PARTIAL_FILE
    state = BuildJournal.read_state(directory)
    committed = (directory / META_FILE).exists()

    if committed and (state is None or state.committed):
        # A published dataset with no (live) journal: the previous build
        # finished.  A leftover committed journal just missed its unlink.
        if state is not None:
            BuildJournal(directory).unlink()
        if resume:
            try:
                blob = json.loads((directory / META_FILE).read_text())
            except (OSError, json.JSONDecodeError):
                blob = {}
            if blob.get("build_fingerprint") == fingerprint:
                return None
        _clear_stale_build(directory)
        return False, 0, False

    verified, store_complete = 0, False
    if state is not None and not state.committed:
        resumable = (
            resume
            and state.fingerprint == fingerprint
            and state.record_size == rec
            and state.n_records == n
        )
        if resumable and not partial.exists() and bricks.exists():
            # Crash landed between the bricks rename and the meta
            # commit.  The journal must account for every record; then
            # the store is complete and only index/meta publication is
            # left to redo.
            verified = _verified_resume_point(bricks, state, rec, crcs, cum)
            resumable = store_complete = verified == n
        elif resumable and partial.exists():
            verified = _verified_resume_point(partial, state, rec, crcs, cum)
        # Resumable with no store at all: records start over, the
        # (matching) journal history stays appendable.
        if not resumable:
            _clear_stale_build(directory)
            return False, 0, False
    elif state is None:
        # No journal: any bricks/partial here are of unknown provenance.
        _clear_stale_build(directory)
    return state is not None, verified, store_complete


def _write_verified(device, raw, offset: int, blob: bytes, verify: bool) -> None:
    """Write ``blob`` at ``offset``; with ``verify``, read it back from
    ``raw`` (unmetered) and rewrite it — write + fsync through the same,
    possibly faulty, device — until the bytes check out, so a torn write
    the device silently absorbed is never journaled as durable."""
    device.write(offset, blob)
    if not verify:
        return
    intended = zlib.crc32(blob)
    for _attempt in range(8):
        if zlib.crc32(raw.peek(offset, len(blob))) == intended:
            return
        device.write(offset, blob)
        device.fsync()
    from repro.io.faults import TornWriteError

    raise TornWriteError(
        f"records at offset {offset} failed read-back verification 8 times"
    )


def _write_store(directory: Path, plan: LayoutPlan, tree, journal, verified: int,
                 crcs: np.ndarray, cum: np.ndarray, cost_model, group: int,
                 crash, wrap_device, verify_writes: bool) -> None:
    """The journaled store write, pass 2 of ``plan``: the source is
    re-streamed and each run of ``tree``'s records at layout positions
    ``>= verified`` is encoded, written at its final offset in
    ``bricks.bin.partial`` and read back.  A record group is fsync'd and
    journaled once it and every earlier group are written, so a journal
    entry still means "records ``[0, e)`` are durable"; then the partial
    is renamed to ``bricks.bin``.  ``tree`` is the serial tree or one
    stripe's :attr:`~repro.core.striping.StripedNodeLayout.tree`."""
    partial = directory / BRICKS_PARTIAL_FILE
    n, rec = tree.n_records, plan.codec.record_size
    raw = FileBackedDevice(partial, cost_model, create=(verified == 0))
    if raw.size < n * rec:
        raw.allocate(n * rec - raw.size)
    elif raw.size > n * rec:  # pragma: no cover - over-long stale partial
        raw.truncate(n * rec)
    device = wrap_device(raw) if wrap_device is not None else raw
    for g, e in plan.write_groups(
        tree, group, verified,
        lambda s, blob: _write_verified(device, raw, s * rec, blob, verify_writes),
        raw.peek, crcs, cum, crash,
    ):
        crash.point(f"group_written:{g}")
        device.fsync()
        crash.point(f"group_flushed:{g}")
        journal.group(g, e, int(cum[e]))
        crash.point(f"group_journaled:{g}")
    device.fsync()
    device.close()
    crash.point("store_closed")
    os.replace(partial, directory / BRICKS_FILE)
    _fsync_dir(directory)
    crash.point("bricks_renamed")


def _publish(directory: Path, dataset: IndexedDataset, fingerprint: dict,
             journal, crash) -> None:
    """Publish ``index.npz`` then ``meta.json`` — each tmp → fsync →
    ``os.replace`` → directory fsync — and commit the journal.  The only
    code that creates either file; ``meta.json`` appearing is what makes
    the directory a dataset."""
    arrays = tree_to_arrays(dataset.tree)
    arrays["record_crcs"] = dataset.checksums.record_crcs
    arrays["brick_crcs"] = dataset.checksums.brick_crcs
    arrays["cum_crcs"] = dataset.checksums.cum_crcs
    meta_blob = {
        "format_version": FORMAT_VERSION,
        "base_offset": dataset.base_offset,
        "node_rank": dataset.node_rank,
        "n_cluster_nodes": dataset.n_cluster_nodes,
        "has_checksums": True,
        "codec": {
            "metacell_shape": list(dataset.codec.metacell_shape),
            "scalar_dtype": dataset.codec.scalar_dtype.str,
        },
        # Both are flat dataclasses; load_dataset rebuilds them by field.
        "meta": dict(vars(dataset.meta)),
        "report": dict(vars(dataset.report)),
        "build_fingerprint": fingerprint,
    }

    def commit(stem: str, tmp: str, final: str, write) -> None:
        with open(directory / tmp, "wb") as fh:
            write(fh)
            fh.flush()
            os.fsync(fh.fileno())
        crash.point(f"{stem}_tmp_written")
        os.replace(directory / tmp, directory / final)
        _fsync_dir(directory)
        crash.point(f"{stem}_renamed")

    commit("index", INDEX_TMP_FILE, INDEX_FILE, lambda fh: np.savez_compressed(fh, **arrays))
    commit("meta", META_TMP_FILE, META_FILE,
           lambda fh: fh.write(json.dumps(meta_blob, indent=2).encode("utf-8")))
    journal.commit()
    crash.point("journal_committed")
    journal.unlink()


def _build_node(directory: Path, tree, node_rank: int, p: int, fingerprint: dict,
                plan: LayoutPlan, cost_model, group: int, resume: bool, crash,
                wrap_device, verify_writes: bool) -> IndexedDataset:
    """One journaled, resumable build: ``tree``'s records of ``plan``
    into ``directory`` as node ``node_rank`` of ``p``."""
    from repro.core.journal import BuildJournal

    directory.mkdir(parents=True, exist_ok=True)
    n, rec = tree.n_records, plan.codec.record_size
    crcs = np.empty(n, dtype=np.uint32)
    cum = np.zeros(n + 1, dtype=np.uint32)
    start = _resume_point(directory, fingerprint, n, rec, resume, crcs, cum)
    if start is None:
        return load_dataset(directory, cost_model)
    resumed, verified, store_complete = start

    journal = BuildJournal(directory)
    if resumed:
        journal.note("resume")
    else:
        journal.begin(fingerprint, n, rec, group)
        crash.point("begin_journaled")
    if not store_complete:
        _write_store(
            directory, plan, tree, journal, verified, crcs, cum, cost_model,
            group, crash, wrap_device, verify_writes,
        )
    dataset = plan.dataset(
        tree, FileBackedDevice(directory / BRICKS_FILE, cost_model, create=False), 0,
        BrickChecksums.from_record_crcs(
            crcs, tree.brick_start, tree.brick_count, cum_crcs=cum
        ),
        node_rank=node_rank, n_cluster_nodes=p, source_dir=str(directory),
    )
    _publish(directory, dataset, fingerprint, journal, crash)
    return dataset


def _build_nodes(volume, directory: Path, p: "int | None", metacell_shape, cost_model,
                 group_records, resume, crash, wrap_device, verify_writes):
    """Plan once, then one journaled build per node: ``directory/node_<q>``
    for each of ``p`` stripes, or (``p=None``) the serial tree in
    ``directory`` itself."""
    from repro.core.striping import stripe_brick_records
    from repro.io.faults import NULL_CRASH_SCHEDULE

    crash = crash if crash is not None else NULL_CRASH_SCHEDULE
    group = int(group_records or WRITE_CHUNK_RECORDS)
    if group < 1:
        raise ValueError(f"group_records must be >= 1, got {group}")
    plan = plan_layout(volume, metacell_shape)
    fingerprint = build_fingerprint(
        plan, plan.codec.metacell_shape, plan.tree.n_records, plan.codec.record_size,
    )
    if p is None:
        nodes = [(directory, plan.tree, 0, 1, fingerprint)]
    else:
        nodes = [
            (directory / f"node_{lay.node_rank}", lay.tree, lay.node_rank, p,
             {**fingerprint, "n_records": lay.tree.n_records,
              "node_rank": lay.node_rank, "n_cluster_nodes": p})
            for lay in stripe_brick_records(plan.tree, p)
        ]
    return [
        _build_node(*node, plan, cost_model, group, resume, crash, wrap_device,
                    verify_writes)
        for node in nodes
    ]


def build_persistent_striped(
    volume, directory: str | Path, p: int,
    metacell_shape: tuple[int, int, int] = (9, 9, 9),
    cost_model: IOCostModel | None = None,
    *, group_records: "int | None" = None, crash=None,
) -> "list[IndexedDataset]":
    """Preprocess ``volume`` (any slab source) striped across ``p`` nodes
    straight to disk: ``directory/node_<q>/{bricks.bin,index.npz,meta.json}``,
    each node a journaled build with the guarantees (and the
    ``group_records`` / ``crash`` keywords) of :func:`build_persistent_dataset`.

    The node builds run in rank order and share one plan pass and one
    volume CRC; a multi-slab source is then streamed once per node.  Each
    node's fingerprint adds ``(node_rank, p)``, so a rerun loads the
    committed nodes, resumes the interrupted one and builds the rest.  Node ``q``'s store and checksum tables equal
    :func:`repro.core.builder.build_striped_datasets` node ``q``'s.
    """
    if p < 1:
        raise ValueError(f"node count must be >= 1, got {p}")
    return _build_nodes(
        volume, Path(directory), p, metacell_shape, cost_model,
        group_records, resume=True, crash=crash, wrap_device=None, verify_writes=True,
    )


def build_persistent_dataset(
    volume,
    directory: str | Path,
    metacell_shape: tuple[int, int, int] = (9, 9, 9),
    cost_model: IOCostModel | None = None,
    *,
    group_records: "int | None" = None,
    resume: bool = True,
    crash=None,
    wrap_device=None,
    verify_writes: bool = True,
) -> IndexedDataset:
    """Preprocess ``volume`` — an in-memory :class:`~repro.grid.volume.Volume`
    or any slab source, such as a
    :class:`~repro.core.builder.FunctionSlabSource` that never holds more
    than one metacell layer — straight into a self-describing dataset
    directory, crash-consistently.

    The build is journaled and committed atomically: record groups go to
    ``bricks.bin.partial`` (fsync'd, then logged in ``build.journal``),
    and the final artifacts appear under their real names only via
    ``os.replace``.  At *any* kill point the directory is either (a) a
    committed, fsck-clean dataset, or (b) an in-progress build that a
    rerun with ``resume=True`` (the default) finishes — producing
    artifacts byte-identical to an uninterrupted build.  The resume unit
    is the journaled group prefix: a multi-slab source writes records
    out of layout order, a group is journaled only once it and all
    earlier groups are written, and a rerun re-streams the source and
    rewrites only the positions past the verified prefix.

    Parameters
    ----------
    group_records:
        Records per journaled group (default
        :data:`repro.core.builder.WRITE_CHUNK_RECORDS`).  Smaller groups
        mean finer-grained resume at the cost of more fsyncs.
    resume:
        When True, continue an interrupted build of the *same* input
        (fingerprint-matched) from its last verified journaled group;
        when False, always start over.
    crash:
        A :class:`repro.io.faults.CrashSchedule` for kill-point
        injection (testing); ``None`` injects nothing.
    verify_writes:
        When True (default) every write is read back and CRC-compared
        before its group's journal entry is written, so a torn write the device
        silently absorbed is rewritten instead of being journaled as
        durable.  The read-back is unmetered (no modeled-cost change).
    wrap_device:
        Optional callable wrapping the staging
        :class:`~repro.io.diskfile.FileBackedDevice` (e.g. in a
        :class:`~repro.io.faults.FaultInjectingDevice` with torn
        writes).  The wrapper must pass through ``allocate`` / ``write``
        / ``fsync`` / ``close``.
    """
    return _build_nodes(
        volume, Path(directory), None, metacell_shape, cost_model,
        group_records, resume, crash, wrap_device, verify_writes,
    )[0]
