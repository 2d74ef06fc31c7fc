"""Deterministic fault injection for block devices.

The paper assumes ``p`` healthy local disks and a perfect interconnect;
production storage does not cooperate.  This module provides the fault
model for the resilience subsystem:

* :class:`FaultPlan` — a seeded, fully deterministic description of the
  faults a device should exhibit: transient read errors (succeed on
  retry), silent payload corruption (caught by the per-brick CRC32
  checksums of :mod:`repro.io.layout`), latency spikes (extra modeled
  seconds fed into :class:`~repro.io.blockdevice.IOStats`), and
  permanent device loss.
* :class:`FaultInjectingDevice` — a wrapper implementing the
  :class:`~repro.io.blockdevice.BlockDevice` protocol that executes a
  fault plan against any backing device.
* :class:`RetryPolicy` / :func:`read_with_retry` — the bounded
  retry-with-backoff used by the query read path; retry costs (repeat
  blocks, modeled backoff seconds) are accounted in the device's
  ``IOStats`` so degraded runs report honest modeled times.

The typed exception hierarchy (all rooted at :class:`StorageFault`,
itself an ``IOError``) is what lets the cluster layer distinguish "retry
this read" from "this node is gone" — see
:meth:`repro.parallel.cluster.SimulatedCluster.extract` degraded mode.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.io.blockdevice import IOStats
from repro.io.cost_model import IOCostModel, latency_quantile
from repro.obs.tracer import NULL_TRACER


class StorageFault(IOError):
    """Base class for every injected or detected storage failure."""


class TornWriteError(StorageFault):
    """A write was torn: only a prefix of the payload reached the media."""


class TransientReadError(StorageFault):
    """A read attempt failed but the same extent may succeed on retry."""


class RetryExhaustedError(StorageFault):
    """Retries of a transiently failing read exceeded the policy bound."""


class DeviceFailedError(StorageFault):
    """The device is permanently gone (node loss); retrying is futile."""


class BrickCorruptionError(StorageFault):
    """Decoded record bytes failed CRC32 verification after re-reads."""


class SimulatedCrash(BaseException):
    """A process kill injected at a :class:`CrashSchedule` point.

    Deliberately *not* a :class:`StorageFault` (nor even an
    ``Exception``): a killed process does not flow through recovery
    code, so no ``except Exception`` handler in the write path may
    absorb it.  Only the crash-kill harness catches it, exactly where a
    supervising test would observe the process exit.
    """

    def __init__(self, point: str) -> None:
        super().__init__(point)
        self.point = point


@dataclass
class CrashSchedule:
    """Deterministic process-kill injection for the build write path.

    The journaled builder calls :meth:`point` at every durability
    decision point (after a group write, around each commit rename,
    ...).  The schedule counts the points; when the counter passes
    ``kill_at`` it raises :class:`SimulatedCrash`, simulating a
    ``SIGKILL`` at exactly that instruction boundary.  Running a build
    with ``kill_at=None`` counts the points without killing, which is
    how the harness discovers the kill-point space before randomizing
    over it.

    Parameters
    ----------
    kill_at:
        Zero-based index of the crash point to die at (``None``: never).
    hard:
        When True the scheduled point calls ``os._exit(137)`` instead of
        raising — a true process kill with no unwinding, for harness
        runs that fork the builder into a child process.
    """

    kill_at: "int | None" = None
    hard: bool = False
    #: Points visited so far (doubles as the total after a survived run).
    points_seen: int = 0
    #: Name of the point the crash fired at, for harness reporting.
    fired_at: "str | None" = None
    #: Ordered names of every point visited (labels the kill-point space).
    trace: "list[str]" = field(default_factory=list)

    def point(self, name: str) -> None:
        """Visit a named crash point; dies here when scheduled to."""
        idx = self.points_seen
        self.points_seen += 1
        self.trace.append(name)
        if self.kill_at is not None and idx == self.kill_at:
            self.fired_at = name
            if self.hard:  # pragma: no cover - exits the process
                import os

                os._exit(137)
            raise SimulatedCrash(name)


#: Shared no-op schedule used when the caller injects no crashes.
class _NullCrashSchedule:
    __slots__ = ()

    def point(self, name: str) -> None:
        return None


NULL_CRASH_SCHEDULE = _NullCrashSchedule()


@dataclass(frozen=True)
class FaultPlan:
    """Deterministic, seeded description of a device's misbehaviour.

    All probabilistic draws come from ``random.Random(seed)`` advanced
    once per read call, so a fixed sequence of reads injects a fixed
    sequence of faults — runs are reproducible and tests can assert
    exact outcomes.

    Parameters
    ----------
    seed:
        RNG seed; two devices with equal plans fault identically.
    transient_error_rate:
        Per-read probability of raising :class:`TransientReadError`.
    transient_burst:
        Consecutive failures per triggered transient fault.  A burst
        longer than the retry budget turns a transient fault into a
        :class:`RetryExhaustedError` (used to test retry exhaustion).
    corruption_rate:
        Per-read probability of silently flipping one byte of the
        returned payload (position chosen by the RNG).  Undetectable
        without checksums — the failure mode the CRC32 layer exists for.
    corrupt_extents:
        Byte ranges ``(offset, length)`` whose content is *always*
        returned corrupted (persistent media damage: re-reads do not
        help, so verification must escalate to
        :class:`BrickCorruptionError` or a replica).
    latency_spike_rate, latency_spike_seconds:
        Per-read probability and size of an extra modeled delay, charged
        to ``stats.fault_delay`` (a slow/straggler disk).
    fail_after_reads:
        Permanently fail the device after this many successful reads
        (mid-query node loss).  ``None`` disables.
    fail_all:
        Start the device dead (node lost before the query).
    torn_write_rate:
        Per-write probability of *silently* tearing the write: only a
        prefix (length chosen by the RNG, possibly zero) reaches the
        media and no error is raised — the lost-power failure mode that
        only journal/CRC verification can discover after the fact.
    fail_after_writes:
        Kill the device during this (0-based) write: a torn prefix of
        the payload is applied, then :class:`TornWriteError` is raised
        and the device is permanently failed — a crash mid-flush.
        ``None`` disables.
    """

    seed: int = 0
    transient_error_rate: float = 0.0
    transient_burst: int = 1
    corruption_rate: float = 0.0
    corrupt_extents: "tuple[tuple[int, int], ...]" = ()
    latency_spike_rate: float = 0.0
    latency_spike_seconds: float = 0.0
    fail_after_reads: "int | None" = None
    fail_all: bool = False
    torn_write_rate: float = 0.0
    fail_after_writes: "int | None" = None

    def __post_init__(self) -> None:
        for name in ("transient_error_rate", "corruption_rate", "latency_spike_rate",
                     "torn_write_rate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be a probability, got {v}")
        if self.transient_burst < 1:
            raise ValueError(f"transient_burst must be >= 1, got {self.transient_burst}")
        if self.latency_spike_seconds < 0:
            raise ValueError(
                f"latency_spike_seconds must be >= 0, got {self.latency_spike_seconds}"
            )

    @classmethod
    def from_spec(cls, spec: str, seed: int = 0) -> "FaultPlan":
        """Parse a CLI fault spec.

        Comma-separated ``key=value`` items::

            transient=0.05,corrupt=0.01,latency=0.02:0.01,seed=7,burst=2

        ``latency`` takes ``rate:seconds``.  ``fail`` alone kills the
        device outright; ``fail=N`` kills it after N reads.
        """
        kwargs: dict = {"seed": seed}
        for item in filter(None, (s.strip() for s in spec.split(","))):
            key, _, value = item.partition("=")
            if key == "transient":
                kwargs["transient_error_rate"] = float(value)
            elif key == "corrupt":
                kwargs["corruption_rate"] = float(value)
            elif key == "latency":
                rate, _, secs = value.partition(":")
                kwargs["latency_spike_rate"] = float(rate)
                kwargs["latency_spike_seconds"] = float(secs) if secs else 0.01
            elif key == "seed":
                kwargs["seed"] = int(value)
            elif key == "burst":
                kwargs["transient_burst"] = int(value)
            elif key == "fail":
                if value:
                    kwargs["fail_after_reads"] = int(value)
                else:
                    kwargs["fail_all"] = True
            elif key == "torn":
                kwargs["torn_write_rate"] = float(value) if value else 1.0
            else:
                raise ValueError(
                    f"unknown fault spec key {key!r} "
                    "(known: transient, corrupt, latency, seed, burst, fail, torn)"
                )
        return cls(**kwargs)


@dataclass
class FaultStats:
    """What the injector actually did (distinct from what the consumer paid)."""

    transient_errors: int = 0
    corrupted_reads: int = 0
    latency_spikes: int = 0
    failed_reads: int = 0
    torn_writes: int = 0


class FaultInjectingDevice:
    """Block-device wrapper that executes a :class:`FaultPlan`.

    Writes pass through untouched (the paper's stores are write-once at
    preprocessing time; the fault model targets the query read path).
    Accounting stays on the backing device's meter so consumers see one
    continuous :class:`~repro.io.blockdevice.IOStats` whether or not a
    device is wrapped.

    The fault plan's RNG advances once per read call, so fault
    sequences are reproducible exactly because the query layer issues
    the same per-chunk reads on every device stack.

    Examples
    --------
    >>> from repro.io.blockdevice import SimulatedBlockDevice
    >>> dev = FaultInjectingDevice(SimulatedBlockDevice(),
    ...                            FaultPlan(transient_error_rate=1.0))
    >>> off = dev.allocate(4); dev.write(off, b"abcd")
    >>> try:
    ...     dev.read(off, 4)
    ... except TransientReadError:
    ...     print("faulted")
    faulted
    """

    def __init__(self, backing, plan: FaultPlan | None = None) -> None:
        self.backing = backing
        self.plan = plan or FaultPlan()
        self.cost_model: IOCostModel = backing.cost_model
        self.fault_stats = FaultStats()
        self._rng = random.Random(self.plan.seed)
        self._wrng = random.Random(self.plan.seed ^ 0x5EED_717E)
        self._reads_served = 0
        self._writes_served = 0
        self._pending_burst = 0
        self._failed = self.plan.fail_all

    # -- BlockDevice interface ------------------------------------------------

    @property
    def stats(self) -> IOStats:
        return self.backing.stats

    @property
    def size(self) -> int:
        return self.backing.size

    def allocate(self, nbytes: int) -> int:
        return self.backing.allocate(nbytes)

    def write(self, offset: int, data: bytes) -> None:
        if self._failed:
            raise DeviceFailedError(
                f"device failed permanently; write [{offset}, "
                f"{offset + len(data)}) refused"
            )
        idx = self._writes_served
        self._writes_served += 1
        if self.plan.fail_after_writes is not None and idx >= self.plan.fail_after_writes:
            # Crash mid-flush: a torn prefix lands, then the device dies.
            self._failed = True
            self.fault_stats.torn_writes += 1
            keep = self._wrng.randrange(len(data) + 1) if data else 0
            if keep:
                self.backing.write(offset, data[:keep])
            raise TornWriteError(
                f"device failed during write [{offset}, {offset + len(data)}): "
                f"{keep}/{len(data)} bytes reached the media"
            )
        if (
            self.plan.torn_write_rate
            and data
            and self._wrng.random() < self.plan.torn_write_rate
        ):
            # Silent tear: a prefix lands, no error — detectable only by
            # journal / CRC verification after the fact.
            self.fault_stats.torn_writes += 1
            keep = self._wrng.randrange(len(data))
            if keep:
                self.backing.write(offset, data[:keep])
            return
        self.backing.write(offset, data)

    def read(self, offset: int, nbytes: int) -> bytes:
        if self._failed:
            self.fault_stats.failed_reads += 1
            raise DeviceFailedError(
                f"device failed permanently; read [{offset}, {offset + nbytes}) refused"
            )
        if (
            self.plan.fail_after_reads is not None
            and self._reads_served >= self.plan.fail_after_reads
        ):
            self._failed = True
            self.fault_stats.failed_reads += 1
            raise DeviceFailedError(
                f"device failed after {self._reads_served} reads; "
                f"read [{offset}, {offset + nbytes}) refused"
            )
        if self._pending_burst > 0:
            self._pending_burst -= 1
            self.fault_stats.transient_errors += 1
            raise TransientReadError(
                f"transient read error at [{offset}, {offset + nbytes}) (burst)"
            )
        roll = self._rng.random()
        if roll < self.plan.transient_error_rate:
            self._pending_burst = self.plan.transient_burst - 1
            self.fault_stats.transient_errors += 1
            raise TransientReadError(
                f"transient read error at [{offset}, {offset + nbytes})"
            )

        data = self.backing.read(offset, nbytes)
        self._reads_served += 1

        if self.plan.latency_spike_rate and self._rng.random() < self.plan.latency_spike_rate:
            self.stats.charge_delay(self.plan.latency_spike_seconds)
            self.fault_stats.latency_spikes += 1

        corrupt_at: "list[int]" = []
        if self.plan.corruption_rate and nbytes and self._rng.random() < self.plan.corruption_rate:
            corrupt_at.append(self._rng.randrange(nbytes))
        for ext_off, ext_len in self.plan.corrupt_extents:
            lo = max(offset, ext_off)
            hi = min(offset + nbytes, ext_off + ext_len)
            corrupt_at.extend(range(lo - offset, hi - offset))
        if corrupt_at:
            buf = bytearray(data)
            for i in corrupt_at:
                buf[i] ^= 0xFF
            data = bytes(buf)
            self.fault_stats.corrupted_reads += 1
        return data

    def reset_stats(self) -> None:
        self.backing.reset_stats()

    def truncate(self, nbytes: int) -> None:
        self.backing.truncate(nbytes)

    # Durability pass-throughs: the journaled builder flushes/fsyncs at
    # commit points whatever device it was handed, wrapped or not.

    def flush(self) -> None:
        if hasattr(self.backing, "flush"):
            self.backing.flush()

    def fsync(self) -> None:
        if hasattr(self.backing, "fsync"):
            self.backing.fsync()

    def close(self) -> None:
        if hasattr(self.backing, "close"):
            self.backing.close()

    # -- fault control --------------------------------------------------------

    @property
    def failed(self) -> bool:
        return self._failed

    def fail(self) -> None:
        """Kill the device permanently (simulated node loss)."""
        self._failed = True

    def heal(self) -> None:
        """Bring a failed device back (node rejoin); faults resume per plan."""
        self._failed = False


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry-with-backoff for transiently failing reads.

    ``max_retries`` bounds re-issues of a read that raised
    :class:`TransientReadError`; each retry charges
    ``backoff * backoff_multiplier**attempt`` modeled seconds to
    ``stats.fault_delay``.  ``max_read_repairs`` bounds whole-extent
    re-reads triggered by checksum mismatches before the query gives up
    with :class:`BrickCorruptionError`.

    ``jitter`` spreads retries out so concurrent nodes don't hammer a
    recovering device (or a healing partition) in lockstep: each
    backoff is stretched by up to ``jitter`` of itself, drawn from a
    deterministic hash of ``(jitter_seed, token, attempt)`` — callers
    pass a per-site ``token`` (e.g. the read offset) so distinct reads
    de-synchronize while the same read replays identically.  The
    default ``jitter=0`` is bit-identical to the pre-jitter policy.
    """

    max_retries: int = 3
    backoff: float = 2e-3
    backoff_multiplier: float = 2.0
    max_read_repairs: int = 2
    jitter: float = 0.0
    jitter_seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff < 0 or self.backoff_multiplier < 1.0:
            raise ValueError(
                f"need backoff >= 0 and multiplier >= 1, got "
                f"{self.backoff}/{self.backoff_multiplier}"
            )
        if self.max_read_repairs < 0:
            raise ValueError(
                f"max_read_repairs must be >= 0, got {self.max_read_repairs}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def backoff_for(self, attempt: int, token: int = 0) -> float:
        base = self.backoff * self.backoff_multiplier ** attempt
        if not self.jitter:
            return base
        # Deterministic jitter: an integer-mixed seed (never Python's
        # salted hash()) so the same (policy, token, attempt) always
        # stretches the same amount, on any interpreter run.
        mix = (self.jitter_seed * 1000003 + int(token)) * 1000003 + attempt
        return base * (1.0 + self.jitter * random.Random(mix).random())


#: Policy used by the query layer when the caller does not pass one.
DEFAULT_RETRY_POLICY = RetryPolicy()


def read_with_retry(
    device, offset: int, nbytes: int, policy: RetryPolicy = DEFAULT_RETRY_POLICY,
    tracer=NULL_TRACER,
) -> bytes:
    """Read an extent, retrying transient errors with modeled backoff.

    Every retry re-issues the full read (honestly re-charging its blocks
    and seek on the device meter), bumps ``stats.retries``, and adds the
    backoff delay to ``stats.fault_delay``.  Permanent failures
    (:class:`DeviceFailedError`) propagate immediately; exhausting the
    budget raises :class:`RetryExhaustedError`.  Each retry drops an
    ``io.retry`` instant on the tracer's active track.
    """
    attempt = 0
    while True:
        try:
            return device.read(offset, nbytes)
        except TransientReadError as exc:
            if attempt >= policy.max_retries:
                raise RetryExhaustedError(
                    f"read [{offset}, {offset + nbytes}) still failing after "
                    f"{policy.max_retries} retries: {exc}"
                ) from exc
            device.stats.retries += 1
            backoff = policy.backoff_for(attempt, token=offset)
            device.stats.charge_delay(backoff)
            tracer.instant(
                "io.retry", category="fault",
                args={"extent": [offset, offset + nbytes],
                      "attempt": attempt + 1,
                      "backoff": backoff},
            )
            attempt += 1


# ---------------------------------------------------------------------------
# Hedged replica reads (time-domain straggler mitigation)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HedgePolicy:
    """When and how to hedge a slow primary read against a replica.

    The classic tail-latency defence: if a read takes longer than a
    threshold derived from this query's own observed read times, issue
    the identical read to the chained-declustering replica and take the
    first completion.  All times are modeled seconds, so hedging is
    fully deterministic.

    Parameters
    ----------
    quantile:
        Quantile of the observed per-read latency history used as the
        base threshold.  The default (median) is robust against fault
        plans where a large fraction of reads spike.
    multiplier:
        The threshold is ``quantile_value * multiplier`` — a read must
        be this many times slower than the recent typical read before
        the hedge fires.
    min_samples:
        No hedging until this many reads have been observed (the
        threshold would be noise).
    floor:
        Absolute lower bound on the threshold in modeled seconds; the
        device's ``single_block_time`` is always applied as well, since
        no replica read can beat one block + one seek.
    history_cap:
        Sliding-window size of the latency history.
    failover:
        When True, a *permanent* primary failure
        (:class:`DeviceFailedError`, e.g. the node was killed or
        drained mid-read) falls back to a full replica read instead of
        propagating — the payload is bit-identical either way, and the
        consumer pays the time-to-failure plus the replica read.  The
        default (False) preserves the original contract: permanent
        faults propagate so the cluster layer can run its replica
        recovery, health accounting, and failover promotion.  The
        elastic cluster (:mod:`repro.elastic`) enables this so a hedged
        read racing a membership change completes cleanly.
    """

    quantile: float = 0.5
    multiplier: float = 4.0
    min_samples: int = 4
    floor: float = 0.0
    history_cap: int = 256
    failover: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.quantile <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {self.quantile}")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        if self.min_samples < 1:
            raise ValueError(f"min_samples must be >= 1, got {self.min_samples}")
        if self.floor < 0:
            raise ValueError(f"floor must be >= 0, got {self.floor}")
        if self.history_cap < self.min_samples:
            raise ValueError(
                f"history_cap ({self.history_cap}) must cover min_samples "
                f"({self.min_samples})"
            )


class HedgedDevice:
    """Primary + replica read path with quantile-triggered hedging.

    Implements the :class:`~repro.io.blockdevice.BlockDevice` read
    protocol over *two* backing devices: the node's own disk and the
    region of a surviving node's disk holding the chained-declustering
    replica of the same layout (byte-identical, so either source yields
    the same payload).

    Semantics, all on the modeled clock:

    * every read goes to the primary first and its modeled cost
      ``t_p`` (blocks, seeks, injected delay) is measured;
    * if ``t_p`` exceeds the hedge threshold, the same extent is read
      from the replica — conceptually issued *at* the threshold mark —
      and the earlier completion wins:
      ``t_eff = min(t_p, threshold + t_r)``;
    * both backing meters stay honest (each device is charged for the
      work it physically did); this wrapper's **own** ``stats`` meter
      records the *effective* cost the consumer waited for, which is
      what :class:`~repro.core.query.QueryResult` reports;
    * the latency history holds effective times, so absorbed spikes do
      not inflate the threshold.

    Permanent faults (:class:`DeviceFailedError`) propagate untouched
    by default — node loss is the cluster layer's recovery problem, not
    a per-read hedge.  With ``policy.failover`` set, a permanent
    primary failure instead falls back to the replica read (payload
    bit-identical; the consumer pays the time-to-failure plus the
    replica transfer) — the behaviour a live-resharding cluster wants
    when the primary drains mid-read.
    """

    def __init__(
        self,
        primary,
        primary_base: int,
        replica,
        replica_base: int,
        policy: HedgePolicy | None = None,
        tracer=NULL_TRACER,
    ) -> None:
        self.primary = primary
        self.replica = replica
        self.primary_base = primary_base
        self.replica_base = replica_base
        self.policy = policy or HedgePolicy()
        self.cost_model: IOCostModel = primary.cost_model
        self.stats = IOStats()
        self._history: "list[float]" = []
        #: Tracer receiving ``hedge.fired`` / ``hedge.win`` instants on
        #: its active track (the no-op tracer by default).
        self.tracer = tracer

    @property
    def size(self) -> int:
        return self.primary.size

    def allocate(self, nbytes: int) -> int:  # pragma: no cover - write path
        return self.primary.allocate(nbytes)

    def write(self, offset: int, data: bytes) -> None:  # pragma: no cover
        self.primary.write(offset, data)

    def hedge_threshold(self) -> "float | None":
        """Current threshold in modeled seconds, or None (too few samples)."""
        if len(self._history) < self.policy.min_samples:
            return None
        base = latency_quantile(self._history, self.policy.quantile)
        return max(
            base * self.policy.multiplier,
            self.policy.floor,
            self.cost_model.single_block_time,
        )

    def _observe(self, t_eff: float) -> None:
        self._history.append(t_eff)
        if len(self._history) > self.policy.history_cap:
            del self._history[0]

    def _failover_read(self, offset: int, nbytes: int, delta_p, exc) -> bytes:
        """Replica fallback after a permanent primary failure mid-read.

        The consumer's clock pays everything the primary charged before
        dying (``delta_p``, carried as ``fault_delay``) plus the full
        replica read.  If the replica is also unreadable the *original*
        primary error propagates — same signal the cluster layer would
        have seen without failover.
        """
        r_offset = offset - self.primary_base + self.replica_base
        r_before = self.replica.stats.copy()
        try:
            r_data = self.replica.read(r_offset, nbytes)
        except StorageFault:
            raise exc from None
        delta_r = self.replica.stats - r_before
        self.stats.hedged_reads += 1
        self.stats.hedge_wins += 1
        self.tracer.instant(
            "hedge.failover", category="fault",
            args={"extent": [offset, offset + nbytes],
                  "error": str(exc)},
        )
        eff = delta_r.copy()
        eff.fault_delay += delta_p.read_time(self.cost_model)
        self.stats += eff
        self._observe(eff.read_time(self.replica.cost_model))
        return r_data

    def read(self, offset: int, nbytes: int) -> bytes:
        before = self.primary.stats.copy()
        try:
            data = self.primary.read(offset, nbytes)
        except DeviceFailedError as exc:
            if not self.policy.failover:
                raise
            delta_p = self.primary.stats - before
            return self._failover_read(offset, nbytes, delta_p, exc)
        delta_p = self.primary.stats - before
        t_p = delta_p.read_time(self.cost_model)
        threshold = self.hedge_threshold()
        if threshold is None or t_p <= threshold:
            self.stats += delta_p
            self._observe(t_p)
            return data
        # Hedge: re-issue against the replica region at the threshold mark.
        self.stats.hedged_reads += 1
        self.tracer.instant(
            "hedge.fired", category="fault",
            args={"extent": [offset, offset + nbytes],
                  "primary_seconds": t_p, "threshold": threshold},
        )
        r_offset = offset - self.primary_base + self.replica_base
        r_before = self.replica.stats.copy()
        try:
            r_data = self.replica.read(r_offset, nbytes)
        except StorageFault:
            # Replica also misbehaving: the primary result stands.
            self.stats += delta_p
            self._observe(t_p)
            return data
        delta_r = self.replica.stats - r_before
        t_r = threshold + delta_r.read_time(self.replica.cost_model)
        if t_r < t_p:
            # Replica finished first: the consumer paid the threshold wait
            # plus the replica transfer; the primary's slow read keeps
            # burdening only the primary's own meter.
            self.stats.hedge_wins += 1
            self.tracer.instant(
                "hedge.win", category="fault",
                args={"extent": [offset, offset + nbytes],
                      "primary_seconds": t_p, "effective_seconds": t_r},
            )
            eff = delta_r.copy()
            eff.fault_delay += threshold
            self.stats += eff
            self._observe(t_r)
            return r_data
        self.stats += delta_p
        self._observe(t_p)
        return data

    def reset_stats(self) -> None:  # pragma: no cover - parity with devices
        self.stats.reset()
