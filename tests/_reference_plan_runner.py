"""The per-run generator stack of the query executor, kept verbatim as
the differential oracle.

This is ``src/repro/core/query.py``'s ``execute_plan`` with
``_PlanRunner``, ``_stream_records``, ``_stream_extent`` and
``_scan_brick_prefix``, and ``CompactIntervalTree.plan_query`` with the
list-of-runs ``QueryPlan`` it returned, as they stood before the plan
became arrays and the executor one read loop that decodes once.  Each
run streamed chunk by chunk through two generators, decoding every chunk
into a ``MetacellRecords`` and concatenating per run.  Nothing in
``src/`` imports it; ``tests/test_query_differential.py`` requires the
live executor's records, counts, I/O accounting, result-cache contents
and errors to equal this module's, and the live plans to equal
:func:`plan_query`'s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.builder import IndexedDataset
from repro.core.compact_tree import BrickPrefixScan, SequentialRun
from repro.core.deadline import QueryClock
from repro.core.query import (
    DEFAULT_QUERY_OPTIONS,
    MAX_SEQUENTIAL_CHUNK_BLOCKS,
    QueryResult,
    _checked,
    _publish_query_metrics,
    _verify_or_repair,
)
from repro.io.faults import DEFAULT_RETRY_POLICY, RetryPolicy, read_with_retry
from repro.io.layout import BrickChecksums, MetacellRecords
from repro.obs.tracer import NULL_TRACER


@dataclass
class QueryPlan:
    """The I/O plan for one isovalue: which runs to read and how."""

    lam: float
    runs: list
    nodes_visited: int = 0
    case1_nodes: int = 0
    case2_nodes: int = 0
    bricks_skipped: int = 0

    @property
    def n_sequential_runs(self) -> int:
        return sum(isinstance(r, SequentialRun) for r in self.runs)

    @property
    def n_prefix_scans(self) -> int:
        return sum(isinstance(r, BrickPrefixScan) for r in self.runs)


def plan_query(tree, lam: float) -> QueryPlan:
    """Compute the I/O plan for isovalue ``lam`` (Cases 1 and 2)."""
    plan = QueryPlan(lam=float(lam), runs=[])
    if not tree.nodes:
        return plan
    node_id = 0
    while node_id >= 0:
        node = tree.nodes[node_id]
        plan.nodes_visited += 1
        if lam >= float(node.split):
            # Case 1: bricks with vmax >= lam form a prefix of the run.
            if node.n_bricks:
                rev = node.entry_vmax[::-1].astype(np.float64)
                k = node.n_bricks - int(np.searchsorted(rev, lam, side="left"))
                if k > 0:
                    count = int(node.entry_count[:k].sum())
                    plan.runs.append(
                        SequentialRun(start=node.run_start, count=count, node_id=node_id)
                    )
                    plan.case1_nodes += 1
            node_id = node.right
        else:
            # Case 2: per-brick vmin prefixes; skip bricks whose index
            # entry already proves emptiness (no I/O for them).
            if node.n_bricks:
                active = node.entry_min_vmin.astype(np.float64) <= lam
                plan.bricks_skipped += int((~active).sum())
                if active.any():
                    plan.case2_nodes += 1
                for j in np.flatnonzero(active):
                    plan.runs.append(
                        BrickPrefixScan(
                            start=int(node.entry_start[j]),
                            max_count=int(node.entry_count[j]),
                            node_id=node_id,
                            brick_id=int(node.brick_ids[j]),
                        )
                    )
            node_id = node.left
    return plan


def _stream_extent(device, start: int, length: int, chunk_blocks: int,
                   policy: RetryPolicy = DEFAULT_RETRY_POLICY,
                   tracer=NULL_TRACER):
    """Yield buffers covering ``[start, start+length)`` without charging any
    block twice: the first chunk ends on a block boundary, later chunks are
    block-aligned.  Transient read errors are retried per ``policy``."""
    bs = device.cost_model.block_size
    end = start + length
    pos = start
    while pos < end:
        # End of the current chunk: a block boundary at most chunk_blocks away.
        boundary = ((pos // bs) + chunk_blocks) * bs
        stop = min(boundary, end)
        yield read_with_retry(device, pos, stop - pos, policy, tracer)
        pos = stop


def _stream_records(
    dataset: IndexedDataset,
    start_pos: int,
    max_records: int,
    chunk_blocks: int,
    policy: RetryPolicy,
    checks: "BrickChecksums | None",
    tracer=NULL_TRACER,
):
    """Yield verified :class:`MetacellRecords` batches for the records at
    layout positions ``[start_pos, start_pos + max_records)``.

    Buffer management is O(total bytes): arriving chunks extend one
    reusable ``bytearray`` and complete records are decoded through a
    ``memoryview`` straight off it (``np.frombuffer`` in the codec), so
    the only copies are the decoded field arrays themselves.  The former
    implementation re-built the carry buffer with ``pending += buf`` /
    slicing, which is quadratic in the run length.

    Consumers may stop early (Case 2); blocks already fetched stay
    charged, exactly like the former raw byte stream.
    """
    codec = dataset.codec
    rec = codec.record_size
    pending = bytearray()
    pos = start_pos
    for buf in _stream_extent(
        dataset.device, dataset.record_offset(start_pos), max_records * rec,
        chunk_blocks, policy, tracer,
    ):
        pending.extend(buf)
        n_complete = len(pending) // rec
        if not n_complete:
            continue
        nbytes = n_complete * rec
        chunk = memoryview(pending)[:nbytes]
        try:
            if checks is not None:
                _verify_or_repair(dataset, pos, chunk, policy, checks, tracer)
            batch = codec.decode(chunk)
        finally:
            # Release the export before the bytearray is resized below
            # (a live view would make `del pending[:nbytes]` raise
            # BufferError).  The decoded batch owns copies.
            chunk.release()
        yield batch
        del pending[:nbytes]
        pos += n_complete
    if pending:
        raise IOError(
            f"record run at position {start_pos} ended mid-record "
            f"({len(pending)} trailing bytes): layout corrupted"
        )


def execute_plan(
    dataset: IndexedDataset,
    plan: QueryPlan,
    options: "QueryOptions | None" = None,
) -> QueryResult:
    """Execute an already-computed I/O plan against the dataset's device.

    Separated from :func:`execute_query` so alternative planners — e.g.
    the external blocked index of
    :mod:`repro.core.external_tree` — can reuse the exact same record
    retrieval machinery and accounting.

    ``options.verify_checksums=None`` (default) verifies exactly when
    the dataset carries checksum tables; ``True`` demands them (raising
    if absent); ``False`` skips verification.

    ``options.time_budget`` bounds the query in *modeled* seconds (the
    device meter's clock, which includes injected latency, retry
    backoff, and hedge waits).  When the budget runs out the remaining
    runs are skipped and the result comes back partial with
    ``deadline_expired=True`` — already-read records are kept, blocks
    already fetched stay charged, and no exception is raised.
    """
    opts = _checked(
        options, DEFAULT_QUERY_OPTIONS, "execute_plan() third argument"
    )
    policy = opts.retry_policy or DEFAULT_RETRY_POLICY
    tracer = opts.tracer or NULL_TRACER
    read_ahead_blocks = opts.read_ahead_blocks
    verify_checksums = opts.verify_checksums
    # getattr: duck-typed datasets (e.g. the unstructured pipeline) may
    # predate checksum tables entirely.
    checksums = getattr(dataset, "checksums", None)
    if verify_checksums and checksums is None:
        raise ValueError(
            "verify_checksums=True but the dataset has no checksum tables "
            "(built with checksum=False or loaded from a format-1 store)"
        )
    checks = checksums if verify_checksums in (None, True) else None
    codec = dataset.codec
    device = dataset.device
    lam = plan.lam

    stats_before = device.stats.copy()
    clock = QueryClock(device, opts.time_budget)
    runner = _PlanRunner(
        dataset, float(lam), read_ahead_blocks, policy, checks, clock, tracer,
        opts.track, rcache=opts.result_cache,
    )
    qspan = tracer.span(
        "query.execute", track=opts.track, category="query",
        args={"lam": float(lam), "runs": len(plan.runs)},
    )
    runner.qspan = qspan
    try:
        for run in plan.runs:
            if clock.expired():
                runner.skip(run)
            else:
                runner.run(run)
    finally:
        qspan.close()

    io_stats = device.stats.copy() - stats_before

    records = (
        MetacellRecords.concat(runner.batches)
        if runner.batches
        else MetacellRecords.empty(codec)
    )
    result = QueryResult(
        lam=float(lam),
        records=records,
        plan=plan,
        io_stats=io_stats,
        n_records_read=runner.n_read,
        deadline_expired=bool(runner.skipped_runs),
        skipped_runs=runner.skipped_runs,
        n_records_skipped=runner.n_skipped,
    )
    if opts.metrics is not None:
        _publish_query_metrics(opts.metrics, result, device)
    return result


class _PlanRunner:
    """Mutable execution state for one :func:`execute_plan` call.

    Owns the decoded batches and skip accounting, and implements the one
    read strategy over them: :meth:`run` reads a plan run incrementally,
    one metered device read per chunk, so every device stack (faults,
    hedging, block cache), the result-cache prefix path, CRC repairs and
    deadline cuts see the same sequence of reads.
    """

    def __init__(self, dataset, lam, read_ahead_blocks, policy, checks, clock,
                 tracer, track, rcache=None) -> None:
        self.dataset = dataset
        self.lam = lam
        self.read_ahead_blocks = read_ahead_blocks
        self.policy = policy
        self.checks = checks
        self.clock = clock
        self.tracer = tracer
        self.track = track
        #: Epoch-fenced ResultCacheView (duck-typed) or None.  Decoded
        #: record prefixes are only *stored* when checksum verification
        #: ran (``checks``), so cache contents are always verified bytes.
        self.rcache = rcache
        self.qspan = None
        self.batches: "list[MetacellRecords]" = []
        self.n_read = 0
        self.skipped_runs: "list" = []
        self.n_skipped = 0

    def skip(self, run) -> None:
        self.skipped_runs.append(run)
        n = run.count if isinstance(run, SequentialRun) else run.max_count
        self.n_skipped += n
        self.qspan.annotate(
            "query.run_skipped",
            {"records": n, "reason": "time budget expired"},
        )

    def run(self, run) -> None:
        if isinstance(run, SequentialRun):
            self._sequential(run)
        elif isinstance(run, BrickPrefixScan):
            self._prefix_scan(run)
        else:  # pragma: no cover - future run types
            raise TypeError(f"unknown run type {type(run).__name__}")

    def _cached_prefix(self, anchor: int) -> "MetacellRecords | None":
        """Cached decoded records at a plan anchor (None without a cache
        hit).  Anchors are shared between Case-1 runs and Case-2 brick
        starts that begin at the same position, so either run kind can
        extend — and be served by — the other's entries."""
        if self.rcache is None:
            return None
        return self.rcache.record_prefix(self.dataset.node_rank, anchor)

    def _store_prefix(self, anchor: int, cached, new_batches) -> None:
        """Extend the cache entry at ``anchor`` with freshly decoded
        batches.  Only verified streams populate (the stream raised on
        persistent corruption before we got here; unchecksummed reads
        are never admitted)."""
        if self.rcache is None or self.checks is None or not new_batches:
            return
        parts = ([cached] if cached is not None and len(cached) else []) + new_batches
        self.rcache.store_record_prefix(
            self.dataset.node_rank, anchor, MetacellRecords.concat(parts)
        )

    def _sequential(self, run) -> None:
        dataset, tracer, clock = self.dataset, self.tracer, self.clock
        cached = self._cached_prefix(run.start)
        k = min(len(cached), run.count) if cached is not None else 0
        got = 0
        new_batches: "list[MetacellRecords]" = []
        with tracer.io_span(
            "read.sequential_run", dataset.device, track=self.track,
            args={"start": run.start, "count": run.count, "cached": k},
        ):
            if k:
                head = cached if k == len(cached) else MetacellRecords(
                    ids=cached.ids[:k], vmins=cached.vmins[:k],
                    values=cached.values[:k],
                )
                self.batches.append(head)
                self.n_read += k
                got = k
            if got < run.count and not clock.expired():
                for batch in _stream_records(
                    dataset, run.start + got, run.count - got,
                    MAX_SEQUENTIAL_CHUNK_BLOCKS, self.policy, self.checks,
                    tracer,
                ):
                    self.batches.append(batch)
                    new_batches.append(batch)
                    self.n_read += len(batch)
                    got += len(batch)
                    if clock.expired():
                        break
        self._store_prefix(run.start, cached, new_batches)
        if got < run.count:
            self.skipped_runs.append(run)
            self.n_skipped += run.count - got
            self.qspan.annotate(
                "query.run_cut",
                {"records_left": run.count - got,
                 "reason": "time budget expired"},
            )

    def _prefix_scan(self, run) -> None:
        dataset, tracer, clock = self.dataset, self.tracer, self.clock
        cached = self._cached_prefix(run.start)
        # Clamp to the brick: a Case-1 entry at the same anchor may span
        # brick boundaries, past which vmins are no longer sorted.
        m = min(len(cached), run.max_count) if cached is not None else 0
        with tracer.io_span(
            "read.brick_prefix", dataset.device, track=self.track,
            args={"brick": run.brick_id, "max_count": run.max_count,
                  "cached": m},
        ):
            if m:
                # Records within a brick are vmin-sorted, so the active
                # prefix ends where vmin first exceeds lam.
                k = int(np.searchsorted(
                    cached.vmins[:m].astype(np.float64), self.lam,
                    side="right",
                ))
                if k < m or m == run.max_count:
                    # Terminator (or brick end) inside the cache: the
                    # whole scan is answered without touching the device.
                    if k:
                        self.batches.append(MetacellRecords(
                            ids=cached.ids[:k], vmins=cached.vmins[:k],
                            values=cached.values[:k],
                        ))
                    self.n_read += k
                    return
                # Everything cached is active and the brick continues:
                # serve the cached prefix and scan on from there.
                self.batches.append(
                    cached if m == len(cached) else MetacellRecords(
                        ids=cached.ids[:m], vmins=cached.vmins[:m],
                        values=cached.values[:m],
                    )
                )
                self.n_read += m
            batch, full, decoded, aborted = _scan_brick_prefix(
                dataset, run, self.lam, self.read_ahead_blocks,
                self.policy, self.checks, clock, tracer, skip=m,
            )
        self.n_read += decoded
        if batch is not None and len(batch):
            self.batches.append(batch)
        self._store_prefix(run.start, cached if m else None, full)
        if aborted:
            self.skipped_runs.append(run)
            self.n_skipped += run.max_count - m - decoded
            self.qspan.annotate(
                "query.brick_cut",
                {"brick": run.brick_id,
                 "records_left": run.max_count - m - decoded,
                 "reason": "time budget expired"},
            )


def _scan_brick_prefix(
    dataset: IndexedDataset,
    run: BrickPrefixScan,
    lam: float,
    read_ahead_blocks: int,
    policy: RetryPolicy,
    checks: "BrickChecksums | None",
    clock: "QueryClock | None" = None,
    tracer=NULL_TRACER,
    skip: int = 0,
):
    """Incrementally read one brick until ``vmin > lam``, brick end, or
    the time budget expires.

    ``skip`` starts the scan that many records into the brick — the
    result-cache path, which already holds a verified (all-active)
    prefix of that length, resumes from there instead of re-reading.

    Returns ``(active_records_or_None, decoded_batches, n_records_decoded,
    aborted)``.  ``decoded_batches`` is every verified batch the stream
    produced *including* records past the active cut (the terminator
    record and its batch-mates) — valid bytes a result cache may keep
    for higher isovalues.  ``aborted`` is True when the clock cut the
    scan before the active prefix was fully determined (the decoded
    records are still valid actives — the tail of the prefix is what
    was lost).
    """
    decoded = 0
    actives: list[MetacellRecords] = []
    full: list[MetacellRecords] = []
    aborted = False
    for batch in _stream_records(
        dataset, run.start + skip, run.max_count - skip, read_ahead_blocks,
        policy, checks, tracer,
    ):
        decoded += len(batch)
        full.append(batch)
        over = np.flatnonzero(batch.vmins.astype(np.float64) > lam)
        if len(over):
            cut = int(over[0])
            if cut:
                actives.append(
                    MetacellRecords(
                        ids=batch.ids[:cut],
                        vmins=batch.vmins[:cut],
                        values=batch.values[:cut],
                    )
                )
            break
        actives.append(batch)
        if skip + decoded < run.max_count and clock is not None and clock.expired():
            aborted = True
            break
    if not actives:
        return None, full, decoded, aborted
    return MetacellRecords.concat(actives), full, decoded, aborted
