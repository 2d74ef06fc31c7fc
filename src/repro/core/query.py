"""Isosurface query execution against block devices (paper Section 5).

The planner (:meth:`CompactIntervalTree.plan_query`) decides *what* to
read; this module performs the reads honestly, at block granularity:

* **Case 1 runs** are one long sequential read, streamed in bounded
  chunks (same block count, one seek).
* **Case 2 brick prefixes** are read incrementally: a block-aligned
  chunk at a time, decoding complete records as they arrive and stopping
  at the first record with ``vmin > lam`` — the reader does not know the
  prefix length in advance, exactly like a real out-of-core consumer.

All I/O is metered by the device, so the resulting
:class:`~repro.io.blockdevice.IOStats` *is* the external-memory cost of
the query, which the cost model converts to the paper's "active metacell
retrieval time".

Resilience (see ``docs/robustness.md``): every read goes through the
bounded retry-with-backoff of :mod:`repro.io.faults`, and — when the
dataset carries CRC32 checksums — every decoded record is verified
against the index before it is trusted.  A mismatch triggers a bounded
number of extent re-reads (which repairs transient torn reads) before
escalating to a typed :class:`~repro.io.faults.BrickCorruptionError`.
All retry costs (repeat blocks/seeks, modeled backoff seconds) land in
the same ``IOStats``, so degraded runs report honest modeled times.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.builder import IndexedDataset
from repro.core.compact_tree import BrickPrefixScan, QueryPlan, SequentialRun
from repro.core.deadline import QueryClock
from repro.io.blockdevice import IOStats
from repro.io.faults import (
    DEFAULT_RETRY_POLICY,
    BrickCorruptionError,
    RetryPolicy,
    read_with_retry,
)
from repro.io.layout import BrickChecksums, MetacellRecords
from repro.obs.tracer import NULL_TRACER

#: Blocks fetched per incremental read step.  Chunks after the first are
#: block-aligned so no block is charged twice within a run.
DEFAULT_READ_AHEAD_BLOCKS = 8

#: Upper bound on a single sequential read call, in blocks.  Case 1 runs
#: longer than this are streamed in consecutive (seek-free) chunks.
MAX_SEQUENTIAL_CHUNK_BLOCKS = 1024


@dataclass(frozen=True)
class QueryOptions:
    """Everything configurable about one query's execution, in one place.

    The only way to configure :func:`execute_query` /
    :func:`execute_plan` and the node stage built on them
    (:func:`repro.parallel.node.extract_node`).  Frozen: derive
    variants with :func:`dataclasses.replace`.

    Parameters
    ----------
    read_ahead_blocks:
        Blocks fetched per incremental Case-2 read step.
    retry_policy:
        Bounded retry-with-backoff for transient faults (None: the
        module default).
    verify_checksums:
        ``None`` verifies exactly when the dataset carries checksum
        tables; ``True`` demands them; ``False`` skips verification.
    time_budget:
        Modeled-seconds budget; an expired query returns a partial
        result flagged ``deadline_expired`` (see :func:`execute_plan`).
        Zero or negative means *already expired* — every run is skipped
        and the result covers nothing; this is what a serving layer's
        budget re-split produces when queue wait or a preemption delay
        eats the whole deadline (see
        :meth:`~repro.core.deadline.Deadline.consume`).
    tracer:
        A :class:`~repro.obs.tracer.Tracer` receiving per-run read
        spans and fault annotations on the modeled clock (None: the
        shared no-op tracer — zero overhead).
    metrics:
        A :class:`~repro.obs.metrics.MetricsRegistry` absorbing the
        query's ``IOStats`` and record counts under ``io.*`` /
        ``query.*`` (None: nothing is published).
    track:
        Trace track label for this query's spans (None: inherit the
        tracer's active track — the cluster sets one per node).
    result_cache:
        A live, epoch-fenced
        :class:`~repro.serve.rcache.ResultCacheView` (duck-typed; this
        module never imports it).  When set, plan runs first consult the
        cached decoded record prefixes at their anchors and only the
        uncovered tail is read from the device — results are
        bit-identical to the cold path because cache entries *are* prior
        verified cold reads.  ``None`` (default) runs uncached.
    """

    read_ahead_blocks: int = DEFAULT_READ_AHEAD_BLOCKS
    retry_policy: "RetryPolicy | None" = None
    verify_checksums: "bool | None" = None
    time_budget: "float | None" = None
    tracer: "object | None" = None
    metrics: "object | None" = None
    track: "str | None" = None
    result_cache: "object | None" = None
    #: Extraction-kernel backend name, resolved through
    #: :mod:`repro.mc.backends` by the triangulating layer (façade,
    #: cluster node, serving front-end).  ``"mc-batch"`` is the exact
    #: default; ``"surface-nets"`` trades exact-MC geometry for ~2x
    #: throughput.  Validated against the registry at construction.
    backend: str = "mc-batch"
    #: Metacells per vectorized triangulation pass (``None``: the
    #: kernel's :data:`~repro.mc.marching_cubes.DEFAULT_BATCH_CHUNK`).
    batch_chunk: "int | None" = None

    def __post_init__(self) -> None:
        if self.read_ahead_blocks < 1:
            raise ValueError(
                f"read_ahead_blocks must be >= 1, got {self.read_ahead_blocks}"
            )
        if self.time_budget is not None and self.time_budget != self.time_budget:
            raise ValueError("time_budget must not be NaN")
        if self.backend != "mc-batch":
            # Lazy import: repro.core must stay importable without the
            # triangulation package; the default name needs no registry.
            from repro.mc.backends import validate_backend

            validate_backend(self.backend)
        if self.batch_chunk is not None and self.batch_chunk < 1:
            raise ValueError(
                f"batch_chunk must be >= 1, got {self.batch_chunk}"
            )


#: Options used when a caller passes none.
DEFAULT_QUERY_OPTIONS = QueryOptions()


def _checked(value, default, where: str):
    """The options/request argument of an entry point: ``None`` means
    ``default``; anything but ``default``'s class is a caller bug worth
    a precise message (a dict or a bare policy object would otherwise
    fail far from the call site)."""
    if value is None:
        return default
    if not isinstance(value, type(default)):
        raise TypeError(
            f"{where} must be a {type(default).__name__} (got "
            f"{type(value).__name__})"
        )
    return value


@dataclass
class QueryResult:
    """Everything produced by one isosurface query on one node.

    Attributes
    ----------
    lam:
        The isovalue.
    records:
        The active metacell records, in retrieval order.
    plan:
        The I/O plan that was executed.
    io_stats:
        Device accounting for this query only (including any retries,
        checksum failures, and fault-injected delay).
    n_records_read:
        Records decoded from disk (``>= len(records)``: Case-2 bricks may
        read one terminator record past the active prefix, and block
        granularity may pull in trailing bytes).
    deadline_expired:
        True when a ``time_budget`` ran out before the plan finished:
        ``records`` then covers a *prefix* of the plan and the result is
        partial.
    skipped_runs:
        The plan runs that were skipped entirely or cut short by the
        budget (in plan order); their span-space bricks are in
        :attr:`skipped_bricks`.
    n_records_skipped:
        Upper bound on the records the budget left unread (prefix scans
        count their full ``max_count`` since the active prefix length is
        unknown without reading).
    """

    lam: float
    records: MetacellRecords
    plan: QueryPlan
    io_stats: IOStats
    n_records_read: int
    deadline_expired: bool = False
    skipped_runs: "list" = field(default_factory=list)
    n_records_skipped: int = 0

    @property
    def n_active(self) -> int:
        return len(self.records)

    @property
    def skipped_bricks(self) -> "list[int]":
        """Span-space brick ids the budget prevented from being scanned
        (Case-2 prefix scans only; Case-1 runs are reported per run)."""
        return [
            r.brick_id for r in self.skipped_runs if isinstance(r, BrickPrefixScan)
        ]

    def io_time(self, cost_model) -> float:
        """Modeled retrieval time under a disk cost model."""
        return self.io_stats.read_time(cost_model)


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


def _verify_or_repair(
    dataset: IndexedDataset,
    start_pos: int,
    chunk: memoryview,
    policy: RetryPolicy,
    checks: BrickChecksums,
    tracer=NULL_TRACER,
) -> None:
    """Verify a run of complete records, re-reading corrupted spans.

    ``chunk`` is a *writable* view of the records at layout positions
    ``start_pos ..``; repairs splice the re-read bytes in place instead
    of rebuilding the buffer (the former ``head + repaired + tail``
    concatenation copied the whole chunk per repair attempt).

    The clean case is a single ``zlib.crc32`` over the span when the
    dataset carries a cumulative table (:meth:`BrickChecksums.verify_span`);
    only a failed or unavailable span check pays for per-record CRCs.
    Each checksum mismatch is counted in ``stats.checksum_failures``;
    the corrupted span is then re-read (with retry and backoff) up to
    ``policy.max_read_repairs`` times — which heals transient torn reads
    — before the query gives up with :class:`BrickCorruptionError`.
    """
    rec = dataset.codec.record_size
    device = dataset.device
    if checks.verify_span(start_pos, chunk, rec):
        return
    bad = checks.find_corrupt(start_pos, chunk, rec)
    if not len(bad):
        return
    for attempt in range(policy.max_read_repairs):
        device.stats.checksum_failures += len(bad)
        device.stats.retries += 1
        device.stats.charge_delay(policy.backoff_for(attempt))
        lo, hi = int(bad[0]), int(bad[-1]) + 1
        tracer.instant(
            "checksum.repair", category="fault",
            args={"records": [start_pos + lo, start_pos + hi],
                  "corrupt": len(bad), "attempt": attempt + 1},
        )
        repaired = read_with_retry(
            device, dataset.record_offset(start_pos + lo), (hi - lo) * rec, policy
        )
        chunk[lo * rec : hi * rec] = repaired
        bad = checks.find_corrupt(start_pos, chunk, rec)
        if not len(bad):
            return
    device.stats.checksum_failures += len(bad)
    lo, hi = int(bad[0]), int(bad[-1]) + 1
    raise BrickCorruptionError(
        f"records [{start_pos + lo}, {start_pos + hi}) on node "
        f"{dataset.node_rank} failed CRC32 verification after "
        f"{policy.max_read_repairs} re-read(s): persistent corruption"
    )


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


def execute_query(
    dataset: IndexedDataset,
    lam: float,
    options: "QueryOptions | None" = None,
) -> QueryResult:
    """Run the full out-of-core query for isovalue ``lam`` on one node.

    All configuration goes through ``options`` (:class:`QueryOptions`;
    ``None`` means the defaults).
    """
    opts = _checked(
        options, DEFAULT_QUERY_OPTIONS, "execute_query() third argument"
    )
    tracer = opts.tracer or NULL_TRACER
    with tracer.span(
        "query.plan", track=opts.track, category="plan",
        args={"lam": float(lam)},
    ) as sp:
        plan = dataset.tree.plan_query(lam)
        sp.merge_args(
            runs=len(plan.runs),
            bricks_skipped=plan.bricks_skipped,
        )
    return execute_plan(dataset, plan, opts)


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


def _publish_query_metrics(registry, result: QueryResult, device) -> None:
    """Fold one query's accounting into the unified metrics namespace."""
    registry.absorb_io_stats(result.io_stats)
    registry.inc("query.count")
    registry.inc("query.records_read", result.n_records_read)
    registry.inc("query.active_metacells", result.n_active)
    registry.inc("query.records_skipped", result.n_records_skipped)
    registry.inc("query.runs_skipped", len(result.skipped_runs))
    if result.deadline_expired:
        registry.inc("query.deadline_expired")
    registry.observe(
        "query.io_seconds", result.io_stats.read_time(device.cost_model)
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
