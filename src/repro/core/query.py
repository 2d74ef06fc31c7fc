"""Isosurface query execution against block devices (paper Section 5).

The planner (:meth:`CompactIntervalTree.plan_query`) decides *what* to
read; this module performs the reads honestly, at block granularity:

* **Case 1 runs** are one long sequential read, streamed in bounded
  chunks (same block count, one seek).
* **Case 2 brick prefixes** are read incrementally: a block-aligned
  chunk at a time, looking at the ``vmin`` column of the complete
  records as they arrive and stopping after the chunk holding the first
  ``vmin > lam`` — the reader does not know the prefix length in
  advance, exactly like a real out-of-core consumer.

Every chunk's records are CRC-verified as one span and kept as bytes;
the query decodes once, at the end, cutting each Case-2 brick at its
first ``vmin > lam`` with one vectorised mask.

All I/O is metered by the device, so the resulting
:class:`~repro.io.blockdevice.IOStats` *is* the external-memory cost of
the query, which the cost model converts to the paper's "active metacell
retrieval time".

Resilience (see ``docs/robustness.md``): every read goes through the
bounded retry-with-backoff of :mod:`repro.io.faults`, and — when the
dataset carries CRC32 checksums — every record read is verified
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
from repro.core.compact_tree import BrickPrefixScan, QueryPlan
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
            runs=plan.n_runs,
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
    # getattr: duck-typed datasets (e.g. the unstructured pipeline) may
    # predate checksum tables entirely.
    checksums = getattr(dataset, "checksums", None)
    if opts.verify_checksums and checksums is None:
        raise ValueError(
            "verify_checksums=True but the dataset has no checksum tables "
            "(built with checksum=False or loaded from a format-1 store)"
        )
    checks = checksums if opts.verify_checksums in (None, True) else None
    device = dataset.device
    stats_before = device.stats.copy()
    reader = _PlanReader(dataset, plan, opts, checks)
    with reader.tracer.span(
        "query.execute", track=opts.track, category="query",
        args={"lam": float(plan.lam), "runs": plan.n_runs},
    ) as reader.qspan:
        reader.read()
    result = QueryResult(
        lam=float(plan.lam),
        records=reader.records(),
        plan=plan,
        io_stats=device.stats.copy() - stats_before,
        n_records_read=reader.n_read,
        deadline_expired=bool(reader.skipped),
        skipped_runs=[plan.run(i) for i in reader.skipped],
        n_records_skipped=reader.n_skipped,
    )
    if opts.metrics is not None:
        _publish_query_metrics(opts.metrics, result, device)
    return result


class _PlanReader:
    """State of one :func:`execute_plan` call and its one read loop.

    :meth:`read` walks the plan arrays in order.  Each run is read chunk
    by chunk with one metered device read per chunk, so every device
    stack (faults, hedging, block cache), the result-cache prefix path,
    CRC repairs and deadline cuts see the same sequence of reads.  A
    chunk's complete records are verified with one span CRC and kept as
    bytes in :attr:`parts`; nothing is decoded until :meth:`records`
    decodes them all at once and applies every Case-2 cut as one mask.
    """

    def __init__(self, dataset, plan: QueryPlan, opts: QueryOptions,
                 checks: "BrickChecksums | None") -> None:
        self.dataset, self.plan, self.checks = dataset, plan, checks
        self.device, self.codec = dataset.device, dataset.codec
        self.rec = dataset.codec.record_size
        self.base = dataset.record_offset(0)  # record positions are linear
        self.vmin_at = dataset.codec.vmin_at
        self.block_size = dataset.device.cost_model.block_size
        self.lam = float(plan.lam)
        self.read_ahead_blocks = opts.read_ahead_blocks
        self.policy = opts.retry_policy or DEFAULT_RETRY_POLICY
        self.tracer = opts.tracer or NULL_TRACER
        self.track = opts.track
        #: Epoch-fenced ResultCacheView (duck-typed) or None.  Decoded
        #: record prefixes are only *stored* when checksum verification
        #: ran (``checks``), so cache contents are always verified bytes.
        self.rcache = opts.result_cache
        self.clock = QueryClock(self.device, opts.time_budget)
        self.qspan = None
        #: Verified record bytes in retrieval order, and the segments
        #: they form: one per run read (``seg_cut`` True for a Case-2
        #: scan, cut at its first vmin > lam) or cached prefix served.
        self.parts: list = []
        self.seg_len: "list[int]" = []
        self.seg_cut: "list[bool]" = []
        self.n_read = 0
        #: Plan indices of the runs the budget skipped or cut short.
        self.skipped: "list[int]" = []
        self.n_skipped = 0

    def read(self) -> None:
        plan, expired = self.plan, self.clock.expired
        runs = zip(plan.start.tolist(), plan.count.tolist(), plan.scan.tolist(),
                   plan.brick.tolist())
        for i, (start, count, scan, brick) in enumerate(runs):
            if expired():
                self.skipped.append(i)
                self.n_skipped += count
                self.qspan.annotate(
                    "query.run_skipped",
                    {"records": count, "reason": "time budget expired"},
                )
            else:
                self._run(i, start, count, scan, brick)

    def _run(self, i: int, start: int, count: int, scan: bool, brick: int) -> None:
        """One run: Case 1 (``scan`` False) reads all ``count`` records;
        Case 2 reads the brick's records up to the first ``vmin > lam``."""
        cached = None
        if self.rcache is not None:
            # Anchors are shared between Case-1 runs and Case-2 brick
            # starts, so either run kind can extend — and be served by —
            # the other's entries.
            cached = self.rcache.record_prefix(self.dataset.node_rank, start)
        # Clamp to the run: a Case-1 entry at a brick's anchor may span
        # brick boundaries, past which vmins are no longer sorted.
        m = min(len(cached), count) if cached is not None else 0
        if scan:
            name, args = "read.brick_prefix", {"brick": brick, "max_count": count}
        else:
            name, args = "read.sequential_run", {"start": start, "count": count}
        args["cached"] = m
        with self.tracer.io_span(name, self.device, track=self.track, args=args):
            if m and scan:
                # Records within a brick are vmin-sorted, so the active
                # prefix ends where vmin first exceeds lam.
                k = int(np.searchsorted(
                    cached.vmins[:m].astype(np.float64), self.lam, side="right",
                ))
                if k < m or m == count:
                    # Terminator (or brick end) inside the cache: the
                    # whole scan is answered without touching the device.
                    self._serve(cached, k)
                    return
            if m:  # a cached prefix served in full continues on the device
                self._serve(cached, m)
            mark = len(self.parts)
            got, cut = self._read_records(
                start + m, count - m,
                self.read_ahead_blocks if scan else MAX_SEQUENTIAL_CHUNK_BLOCKS, scan,
            )
        if self.rcache is not None:
            self._store_prefix(start, cached, mark)
        if cut:
            self.skipped.append(i)
            self.n_skipped += count - m - got
            self.qspan.annotate(
                "query.brick_cut" if scan else "query.run_cut",
                {**({"brick": brick} if scan else {}),
                 "records_left": count - m - got, "reason": "time budget expired"},
            )

    def _read_records(self, pos: int, n: int, chunk_blocks: int,
                      scan: bool) -> "tuple[int, bool]":
        """Read the records at layout positions ``[pos, pos + n)``.

        The first chunk ends on a block boundary at most ``chunk_blocks``
        away and later chunks are block-aligned, so no block is charged
        twice; a record split by a chunk boundary is carried into the
        next chunk.  Each chunk's complete records are verified as one
        span and kept as bytes.  The clock is checked after every chunk
        that completes a record.  A ``scan`` (Case 2) stops after the
        chunk holding a ``vmin > lam``: verified records of a brick are
        vmin-sorted (a layout invariant the CRC seals), so the chunk's
        last record decides; unverified bytes get their whole vmin
        column looked at, viewed in place.  Returns ``(records read,
        cut)``, ``cut`` meaning the clock stopped the read short of ``n``.
        """
        rec, bs, parts = self.rec, self.block_size, self.parts
        off = self.base + pos * rec
        end = off + n * rec
        carry = b""
        got = 0
        cut_short = False
        while off < end:
            stop = min((off // bs + chunk_blocks) * bs, end)
            buf = read_with_retry(
                self.device, off, stop - off, self.policy, self.tracer
            )
            off = stop
            new = (len(carry) + len(buf)) // rec
            if not new:
                carry += buf
                continue
            cut = new * rec - len(carry)
            first = len(parts)
            self._keep(pos + got, carry, buf, cut)
            carry = buf[cut:]
            got += new
            if scan:
                last = parts[-1]
                if self.vmin_at(last, len(last) - rec) > self.lam or (
                    self.checks is None and self._any_over(parts[first:])
                ):
                    break
            if self.clock.expired():
                cut_short = got < n
                break
        else:
            if carry:
                raise IOError(
                    f"record run at position {pos} ended mid-record "
                    f"({len(carry)} trailing bytes): layout corrupted"
                )
        self.n_read += got
        if got:
            self.seg_len.append(got)
            self.seg_cut.append(scan)
        return got, cut_short

    def _keep(self, pos: int, carry, buf, cut: int) -> None:
        """Keep the records a chunk completes — ``carry`` (the head of a
        record split by the previous read) then ``buf[:cut]``, at layout
        positions from ``pos`` — verifying them when checks are on, and
        re-reading a corrupt span (or raising) when they fail."""
        rec, checks = self.rec, self.checks
        if checks is None or checks.verify_span(pos, buf, rec, carry):
            need = rec - len(carry) if carry else 0
            if carry:
                self.parts.append(carry + buf[:need])
            if cut > need:
                self.parts.append(memoryview(buf)[need:cut])
            return
        span = bytearray(carry)
        span += memoryview(buf)[:cut]
        _verify_or_repair(
            self.dataset, pos, memoryview(span), self.policy, checks, self.tracer
        )
        self.parts.append(span)

    def _any_over(self, pieces) -> bool:
        """Whether any record of ``pieces`` has ``vmin > lam``."""
        lam = np.float64(self.lam)
        return any(bool((self.codec.decode_vmins(p) > lam).any()) for p in pieces)

    def _serve(self, cached, k: int) -> None:
        """Keep the first ``k`` records of a cached prefix, as record
        bytes like every other segment, so the one decode covers them."""
        self.n_read += k
        if k:
            self.parts.append(self.codec.encode(
                cached.ids[:k], cached.vmins[:k], cached.values[:k]
            ))
            self.seg_len.append(k)
            self.seg_cut.append(False)

    def _store_prefix(self, anchor: int, cached, mark: int) -> None:
        """Extend the cache entry at ``anchor`` with the records read
        since ``parts[mark]`` (terminator and batch-mates included —
        valid bytes a higher isovalue can use), decoded into arrays of
        their own.  Only verified reads populate."""
        if self.checks is None or mark == len(self.parts):
            return
        new = self.codec.decode(b"".join(self.parts[mark:]))
        if cached is not None and len(cached):
            new = MetacellRecords.concat([cached, new])
        self.rcache.store_record_prefix(self.dataset.node_rank, anchor, new)

    def records(self) -> MetacellRecords:
        """Every kept record, decoded once: one ``np.frombuffer`` over
        the joined bytes, the Case-2 cuts as one vectorised mask, one
        gather.

        Each Case-2 segment is cut at its first ``vmin > lam``; Case-1
        segments and cached prefixes are never cut.  On verified bytes
        that is every record with ``vmin > lam`` (Case-1 records contain
        the split, a brick's are vmin-sorted), so only unverified bytes
        pay for the per-segment cut, which adds ~20 % to this call.
        """
        if not self.parts:
            return MetacellRecords.empty(self.codec)
        blob = b"".join(self.parts)
        self.parts.clear()  # the read buffers go; the joined copy stays
        over = self.codec.decode_vmins(blob) > np.float64(self.lam)
        if self.checks is None:
            lens = np.asarray(self.seg_len)
            over &= np.repeat(self.seg_cut, lens)
            seen = np.cumsum(over)
            first = np.cumsum(lens) - lens
            over = seen != np.repeat(seen[first] - over[first], lens)
        return self.codec.decode(blob, ~over)


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
