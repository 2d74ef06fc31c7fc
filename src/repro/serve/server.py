"""The multi-tenant serving front-end over ``SimulatedCluster``.

:class:`QueryServer` runs a :class:`~repro.serve.traffic.TrafficTrace`
through a discrete-event loop on the **modeled clock**: arrivals pass
admission control (:mod:`repro.serve.admission`), queue under weighted
deficit-round-robin (:mod:`repro.serve.scheduler`), execute on a fixed
pool of executor slots against the cluster, and a brownout controller
(:mod:`repro.serve.brownout`) watches the load signals between events.
No wall time is consulted anywhere, so a ``(trace, config)`` pair maps
to exactly one :class:`ServingReport` — the determinism the soak
benchmark asserts byte for byte.

Every request ends in **exactly one** terminal state:

* ``ok`` — completed with full coverage;
* ``degraded`` — completed with partial coverage (deadline cut or an
  unrecovered node failure inside the cluster);
* ``shed`` — rejected at admission with a typed
  :class:`~repro.serve.admission.RejectedQuery`;
* ``failed`` — dispatched but delivered zero coverage.  Should never
  happen: a budget exhausted by queue wait is shed at the executor door
  (``deadline_elapsed``) instead of dispatched, and an elastic cluster
  failover keeps at least one copy of every stripe reachable.  A
  ``failed`` terminal therefore indicates real data loss.

Deadline accounting composes through
:meth:`~repro.core.deadline.Deadline.consume`: the budget a query
actually runs under is its contract budget minus its queue wait, scaled
by the brownout ladder's shrink factor — so queue time and degradation
are charged against the same end-to-end contract the client sees.

Preemption: when a gold request arrives and every slot is busy, the
bulk job with the latest finish time is cut at its next *brick-batch
boundary* (service time divided into ``brick_batches`` equal batches —
the granularity at which a node query can be cleanly suspended between
brick reads).  The victim re-queues at the head of its tenant's queue
and resumes its remaining service later; the freed slot goes to the
oldest waiting gold request via
:meth:`~repro.serve.scheduler.DeficitRoundRobin.pop_tier`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.deadline import Deadline
from repro.io.cache import CacheOptions
from repro.io.cost_model import latency_quantile
from repro.obs.metrics import SlidingWindow
from repro.obs.tracer import NULL_TRACER, coerce_tracer
from repro.parallel.cluster import ExtractRequest
from repro.serve.admission import (
    SHED_DEADLINE_ELAPSED,
    AdmissionController,
    RejectedQuery,
)
from repro.serve.brownout import BrownoutConfig, BrownoutController
from repro.serve.scheduler import DeficitRoundRobin
from repro.serve.traffic import TIERS, QueryRequest, TenantSpec, TrafficTrace

#: Terminal request states.
TERMINAL_STATES = ("ok", "degraded", "shed", "failed")


@dataclass(frozen=True)
class ServeConfig:
    """Everything configurable about the serving front-end."""

    tenants: "tuple[TenantSpec, ...]"
    #: Concurrent query slots (the cluster executes one query per slot;
    #: slots model front-end concurrency, not extra disks).
    n_executors: int = 2
    #: Bound on queued (admitted, undispatched) requests.
    max_queue_depth: int = 32
    #: DRR base credit per round, in estimated modeled seconds.
    quantum: float = 0.02
    #: Admission feasibility slack (see AdmissionController).
    admission_slack: float = 1.0
    #: Hedge replica reads (disabled by brownout level >= 2).
    hedge: bool = False
    #: Speculative straggler re-execution inside the cluster.
    speculate: bool = False
    #: Allow gold to preempt running bulk jobs at batch boundaries.
    preemption: bool = True
    #: Brick-batch boundaries per query (preemption granularity).
    brick_batches: int = 8
    #: Brownout ladder thresholds.
    brownout: BrownoutConfig = field(default_factory=BrownoutConfig)
    #: Completions in the sliding window feeding the p99 signal.
    latency_window: int = 64
    #: Cache configuration (:class:`~repro.io.cache.CacheOptions`).
    #: ``result_cache_bytes`` attaches a λ-keyed result cache (reused
    #: from the cluster's own when it has one); ``coalesce`` lets
    #: concurrent same-λ-bucket requests share one in-flight extraction.
    #: None — the default — disables both, the pre-cache behaviour.
    cache: "CacheOptions | None" = None
    #: Extraction-kernel backend every dispatched query runs with
    #: (resolved through :mod:`repro.mc.backends`; cost estimates and
    #: result-cache probes key on it).
    backend: str = "mc-batch"

    def __post_init__(self) -> None:
        if self.backend != "mc-batch":
            from repro.mc.backends import validate_backend

            validate_backend(self.backend)
        if self.n_executors < 1:
            raise ValueError(f"n_executors must be >= 1, got {self.n_executors}")
        if self.brick_batches < 1:
            raise ValueError(f"brick_batches must be >= 1, got {self.brick_batches}")
        if not self.tenants:
            raise ValueError("need at least one tenant")
        if self.cache is not None and not isinstance(self.cache, CacheOptions):
            raise TypeError(
                f"cache must be a CacheOptions (got "
                f"{type(self.cache).__name__})"
            )


@dataclass
class _Job:
    """Mutable per-request serving state (internal)."""

    request: QueryRequest
    est_cost: float
    dispatched_at: "float | None" = None
    #: Modeled service seconds of the whole query (set at first dispatch).
    service_total: float = 0.0
    #: Service seconds completed in earlier (preempted) segments.
    service_done: float = 0.0
    segment_start: float = 0.0
    finish_at: float = 0.0
    preempt_at: "float | None" = None
    preemptions: int = 0
    result: "object | None" = None
    effective_budget: float = 0.0
    #: Same-λ jobs riding on this in-flight extraction (they complete
    #: with it, charging only their own queue wait).
    waiters: "list" = field(default_factory=list)
    #: Same-bucket different-λ jobs parked until this extraction lands
    #: (so they dispatch against a warm cache instead of racing it).
    followers: "list" = field(default_factory=list)
    #: ``(λ-bucket, epoch)`` under which this job leads the in-flight
    #: table, or None.
    inflight_key: "tuple | None" = None


@dataclass
class ServedRecord:
    """One request's terminal accounting (the report row)."""

    request_id: int
    tenant: str
    tier: str
    lam: float
    arrival: float
    budget: float
    state: str
    #: Shed reason for ``state == "shed"``, else "".
    reason: str = ""
    queue_wait: float = 0.0
    service_time: float = 0.0
    finish: float = 0.0
    latency: float = 0.0
    coverage: float = 0.0
    preemptions: int = 0
    met_deadline: bool = False
    #: Triangle count the query delivered (0 for shed requests) — the
    #: elastic soak compares ok-state counts against a reference run to
    #: prove migrations never changed an answer.
    triangles: int = 0
    #: True when this request attached to another request's in-flight
    #: extraction instead of running its own (service_time is 0; the
    #: answer is the leader's, bit for bit).
    coalesced: bool = False

    def as_dict(self) -> dict:
        return {
            "request_id": self.request_id, "tenant": self.tenant,
            "tier": self.tier, "lam": self.lam, "arrival": self.arrival,
            "budget": self.budget, "state": self.state, "reason": self.reason,
            "queue_wait": self.queue_wait, "service_time": self.service_time,
            "finish": self.finish, "latency": self.latency,
            "coverage": self.coverage, "preemptions": self.preemptions,
            "met_deadline": self.met_deadline, "triangles": self.triangles,
            "coalesced": self.coalesced,
        }


@dataclass
class ServingReport:
    """Everything one serving run produced, with derived summaries."""

    records: "list[ServedRecord]"
    transitions: "list"
    horizon: float
    scheduler_gaps: "dict[str, int]" = field(default_factory=dict)
    scheduler_gap_bounds: "dict[str, int]" = field(default_factory=dict)
    #: Block-cache totals across the cluster's node disks (zeros when no
    #: node has a cache) — always present so the payload schema is
    #: stable with and without caching.
    cache_stats: "dict[str, float]" = field(default_factory=dict)
    #: λ-keyed result-cache totals (zeros when result reuse is off).
    result_cache_stats: "dict[str, float]" = field(default_factory=dict)

    def by_state(self, state: str) -> "list[ServedRecord]":
        return [r for r in self.records if r.state == state]

    @property
    def n_requests(self) -> int:
        return len(self.records)

    @property
    def completed(self) -> "list[ServedRecord]":
        """Requests that produced an answer (full or partial)."""
        return [r for r in self.records if r.state in ("ok", "degraded")]

    @property
    def shed_rate(self) -> float:
        n = self.n_requests
        return len(self.by_state("shed")) / n if n else 0.0

    @property
    def goodput(self) -> float:
        """Answered requests per modeled second of trace horizon."""
        if self.horizon <= 0:
            return 0.0
        return len(self.completed) / self.horizon

    def latencies(self, tier: "str | None" = None) -> "list[float]":
        return [
            r.latency for r in self.completed
            if tier is None or r.tier == tier
        ]

    def latency_quantile(self, q: float, tier: "str | None" = None) -> float:
        samples = self.latencies(tier)
        return latency_quantile(samples, q) if samples else 0.0

    @property
    def max_brownout_level(self) -> int:
        return max((t.to_level for t in self.transitions), default=0)

    def to_payload(self) -> dict:
        """Flat metrics + series, shaped for ``BENCH_serving.json``
        (metrics: finite non-negative scalars; series under extra)."""
        counts = {s: len(self.by_state(s)) for s in TERMINAL_STATES}
        shed_by_reason: "dict[str, int]" = {}
        for r in self.by_state("shed"):
            shed_by_reason[r.reason] = shed_by_reason.get(r.reason, 0) + 1
        metrics = {
            "requests": float(self.n_requests),
            "goodput_qps": self.goodput,
            "shed_rate": self.shed_rate,
            "preemptions": float(sum(r.preemptions for r in self.records)),
            "brownout_transitions": float(len(self.transitions)),
            "brownout_max_level": float(self.max_brownout_level),
            "coalesced": float(sum(1 for r in self.records if r.coalesced)),
        }
        for k in ("hits", "misses", "hit_rate", "evictions", "invalidations"):
            metrics[f"cache_{k}"] = float(self.cache_stats.get(k, 0.0))
        for k in (
            "hits", "misses", "hit_rate", "record_hits", "mesh_hits",
            "evictions", "invalidations", "records_from_cache",
        ):
            metrics[f"rcache_{k}"] = float(
                self.result_cache_stats.get(k, 0.0)
            )
        for s in TERMINAL_STATES:
            metrics[f"state_{s}"] = float(counts[s])
        for tier in TIERS:
            if self.latencies(tier):
                metrics[f"latency_p50_{tier}"] = self.latency_quantile(0.50, tier)
                metrics[f"latency_p99_{tier}"] = self.latency_quantile(0.99, tier)
        series = {
            "brownout": [
                [t.time, t.to_level, t.reason] for t in self.transitions
            ],
            "shed_by_reason": shed_by_reason,
            "scheduler_max_service_gap_rounds": self.scheduler_gaps,
            "scheduler_gap_bounds": self.scheduler_gap_bounds,
        }
        return {"metrics": metrics, "series": series}


class QueryServer:
    """Admission + DRR + brownout over one ``SimulatedCluster``.

    Parameters
    ----------
    cluster:
        The :class:`~repro.parallel.cluster.SimulatedCluster` to serve.
    config:
        :class:`ServeConfig`.
    tracer / metrics:
        Optional :class:`~repro.obs.tracer.Tracer` /
        :class:`~repro.obs.metrics.MetricsRegistry`; the tracer gets
        ``serve.brownout`` / ``serve.shed`` instants on a ``serve``
        track, the registry gets ``serve.*`` counters and histograms
        plus the cluster's own per-query publication.
    controller:
        Optional elastic control loop (anything with an
        ``on_tick(now, server)`` method, e.g.
        :class:`~repro.elastic.sim.ElasticController`).  Ticked at the
        brownout evaluation cadence, between queries — never while one
        is in flight, which together with the cluster's epoch fencing
        keeps membership changes invisible to running extractions.
    """

    def __init__(self, cluster, config: ServeConfig,
                 tracer=None, metrics=None, controller=None) -> None:
        self.cluster = cluster
        self.config = config
        self.controller = controller
        self.tracer = coerce_tracer(tracer) if tracer is not None else NULL_TRACER
        self.metrics = metrics
        self.admission = AdmissionController(
            config.tenants, config.max_queue_depth, config.admission_slack
        )
        self.scheduler = DeficitRoundRobin(config.tenants, config.quantum)
        self.brownout = BrownoutController(
            config.brownout, metrics=metrics, tracer=self.tracer
        )
        #: Cost estimates keyed by ``(lam, ownership_epoch)``: a scale
        #: event bumps the cluster's epoch, invalidating every cached
        #: estimate at once so admission feasibility tracks live
        #: capacity instead of the node count at server start.
        self._est_cache: "dict[tuple[float, int], float]" = {}
        self._ratio_window = SlidingWindow(config.latency_window)
        self._running: "list[_Job]" = []
        self._records: "dict[int, ServedRecord]" = {}
        self._gold_claims = 0
        #: Leader jobs keyed by ``(λ-bucket, epoch)``; later same-key
        #: requests coalesce onto them instead of re-extracting.
        self._inflight: "dict[tuple, _Job]" = {}
        #: The λ-keyed result cache this server probes and populates:
        #: the cluster's own when it has one (so both layers see the
        #: same entries), else server-owned per ``config.cache``.
        self.result_cache = None
        if config.cache is not None and config.cache.result_cache_bytes > 0:
            self.result_cache = getattr(cluster, "result_cache", None)
            if self.result_cache is None:
                from repro.serve.rcache import ResultCache

                self.result_cache = ResultCache(
                    config.cache.result_cache_bytes,
                    lambda_bucket=config.cache.lambda_bucket,
                )
                if hasattr(cluster, "add_ownership_listener"):
                    cluster.add_ownership_listener(
                        self.result_cache.on_ownership_change
                    )

    # -- helpers ---------------------------------------------------------

    def _estimate(self, lam: float) -> float:
        backend = self.config.backend
        key = (lam, getattr(self.cluster, "ownership_epoch", 0), backend)
        if key not in self._est_cache:
            self._est_cache[key] = self.cluster.estimate_extract_time(
                lam, backend=backend
            )
        return self._est_cache[key]

    def _cached_fraction(self, lam: float) -> float:
        """Fraction of the cluster's stripes whose complete result for
        ``lam`` is sitting in the result cache — the admission gate's
        feasibility discount.  Uses a non-perturbing membership probe so
        estimating cost never skews hit rates or LRU order."""
        rc = self.result_cache
        if rc is None or not hasattr(self.cluster, "_result_fingerprint"):
            return 0.0
        view = rc.view(
            self.cluster._result_fingerprint(),
            getattr(self.cluster, "ownership_epoch", 0),
        )
        p = self.cluster.p
        hits = sum(
            1 for s in range(p)
            if view.mesh_contains(s, lam, False, backend=self.config.backend)
        )
        return hits / p if p else 0.0

    def _backlog_seconds(self, now: float) -> float:
        queued = sum(
            j.est_cost - j.service_done for j in self.scheduler.queued_jobs()
        )
        running = sum(max(0.0, j.finish_at - now) for j in self._running)
        return queued + running

    def _inc(self, name: str, amount: "int | float" = 1) -> None:
        if self.metrics is not None:
            self.metrics.inc(name, amount)

    def _observe(self, name: str, value: float) -> None:
        if self.metrics is not None:
            self.metrics.observe(name, value)

    # -- event handlers --------------------------------------------------

    def _admit(self, req: QueryRequest, now: float) -> None:
        self._inc("serve.arrivals")
        rejection = self.admission.admit(
            req, now,
            queue_depth=self.scheduler.backlog,
            start_delay=self._backlog_seconds(now) / self.config.n_executors,
            est_cost=self._estimate(req.lam),
            shed_bulk=self.brownout.shed_bulk,
            cached_fraction=self._cached_fraction(req.lam),
        )
        if rejection is not None:
            self._shed(rejection)
            return
        self._inc("serve.admitted")
        job = _Job(request=req, est_cost=self._estimate(req.lam))
        self.scheduler.enqueue(job)
        if (
            self.config.preemption
            and req.tier == "gold"
            and len(self._running) >= self.config.n_executors
        ):
            self._arm_preemption(now)

    def _shed(self, rejection: RejectedQuery) -> None:
        req = rejection.request
        self._records[req.request_id] = ServedRecord(
            request_id=req.request_id, tenant=req.tenant, tier=req.tier,
            lam=req.lam, arrival=req.arrival, budget=req.budget,
            state="shed", reason=rejection.reason, finish=rejection.time,
        )
        self._inc(f"serve.shed.{rejection.reason}")
        if self.tracer.enabled:
            self.tracer.seek("serve", rejection.time)
            self.tracer.instant(
                "serve.shed", track="serve", category="serve",
                args={"request": req.request_id, "tenant": req.tenant,
                      "reason": rejection.reason},
            )

    def _arm_preemption(self, now: float) -> None:
        """Mark the least-urgent running bulk job for preemption at its
        next brick-batch boundary."""
        victims = [
            j for j in self._running
            if j.request.tier == "bulk" and j.preempt_at is None
        ]
        if not victims:
            return
        victim = max(
            victims, key=lambda j: (j.finish_at, j.request.request_id)
        )
        if victim.service_total <= 0.0:
            return
        batch = victim.service_total / self.config.brick_batches
        progress = victim.service_done + (now - victim.segment_start)
        k = int(progress / batch) + 1
        boundary = victim.segment_start + (k * batch - victim.service_done)
        if boundary < victim.finish_at - 1e-12:
            victim.preempt_at = boundary

    def _dispatch(self, job: _Job, now: float) -> None:
        resumed = job.result is not None
        if not resumed:
            queue_wait = now - job.request.arrival
            # Budget re-split: the query runs under what is left of the
            # end-to-end contract after queue wait, scaled by the
            # brownout ladder.
            eff = Deadline(job.request.budget).consume(queue_wait)
            if eff.budget <= 1e-12:
                # Late shed at the executor door: the queue wait has
                # consumed the whole contract, so running the query
                # could only deliver zero coverage.  A typed shed keeps
                # the terminal-state promise (never ``failed``).
                self._shed(RejectedQuery(
                    job.request, SHED_DEADLINE_ELAPSED, now,
                    detail=(
                        f"queue wait {queue_wait:.4f}s consumed budget "
                        f"{job.request.budget:.4f}s before dispatch"
                    ),
                ))
                return
            eff = Deadline(
                eff.budget * self.brownout.budget_factor,
                node_fraction=eff.node_fraction,
            )
            job.effective_budget = eff.budget
            co = self.config.cache
            if co is not None and co.coalesce:
                key = (
                    co.bucket_of(job.request.lam),
                    getattr(self.cluster, "ownership_epoch", 0),
                )
                leader = self._inflight.get(key)
                if leader is not None:
                    # The slot this job was about to take stays free;
                    # the charged DRR credit goes back to its tenant.
                    job.dispatched_at = now
                    self.scheduler.refund(job.request.tenant, job.est_cost)
                    if leader.request.lam == job.request.lam:
                        # Waiter: completes with the leader, charging
                        # only its own queue wait on the modeled clock.
                        leader.waiters.append(job)
                        self._inc("serve.coalesced")
                        self._observe("serve.queue_wait", queue_wait)
                        if self.tracer.enabled:
                            self.tracer.seek("serve", now)
                            self.tracer.instant(
                                "rcache.coalesce", track="serve",
                                category="cache",
                                args={"request": job.request.request_id,
                                      "leader": leader.request.request_id,
                                      "lam": job.request.lam},
                            )
                    else:
                        # Follower (same bucket, different λ): parked
                        # until the leader lands, then re-queued at the
                        # head so it runs against a warm cache instead
                        # of racing the extraction that would feed it.
                        job.dispatched_at = None
                        leader.followers.append(job)
                        self._inc("serve.coalesce_deferred")
                    return
                job.inflight_key = key
                self._inflight[key] = job
            hedge = self.config.hedge and self.brownout.hedging_enabled
            populate = not (
                self.brownout.shed_bulk and job.request.tier == "bulk"
            )
            result = self.cluster.extract(job.request.lam, ExtractRequest(
                deadline=eff,
                hedge=True if hedge else None,
                speculate=self.config.speculate,
                tenant=job.request.tenant,
                metrics=self.metrics,
                result_cache=self.result_cache,
                cache_populate=populate,
                backend=self.config.backend,
            ))
            job.result = result
            job.service_total = result.total_time
            job.dispatched_at = now
            self._observe("serve.queue_wait", queue_wait)
        job.segment_start = now
        job.finish_at = now + (job.service_total - job.service_done)
        job.preempt_at = None
        self._running.append(job)

    def _preempt(self, job: _Job, now: float) -> None:
        job.service_done += now - job.segment_start
        job.preemptions += 1
        job.preempt_at = None
        self._running.remove(job)
        self.scheduler.requeue_front(job)
        self._gold_claims += 1
        self._inc("serve.preemptions")

    def _terminal_record(self, job: _Job, now: float, result,
                         service_time: float, coalesced: bool) -> None:
        """Write one completed request's report row and window samples."""
        req = job.request
        coverage = result.coverage
        if coverage <= 1e-12:
            state = "failed"
        elif result.degraded or coverage < 1.0 - 1e-12:
            state = "degraded"
        else:
            state = "ok"
        latency = now - req.arrival
        queue_wait = (job.dispatched_at or req.arrival) - req.arrival
        self._records[req.request_id] = ServedRecord(
            request_id=req.request_id, tenant=req.tenant, tier=req.tier,
            lam=req.lam, arrival=req.arrival, budget=req.budget,
            state=state, queue_wait=queue_wait,
            service_time=service_time, finish=now, latency=latency,
            coverage=coverage, preemptions=job.preemptions,
            met_deadline=latency <= req.budget + 1e-9,
            triangles=int(result.n_triangles),
            coalesced=coalesced,
        )
        self._ratio_window.observe(latency / req.budget)
        self._inc(f"serve.completed.{state}")
        self._observe("serve.latency", latency)
        self._observe(f"serve.latency.{req.tier}", latency)

    def _complete(self, job: _Job, now: float) -> None:
        self._running.remove(job)
        if job.inflight_key is not None:
            self._inflight.pop(job.inflight_key, None)
            job.inflight_key = None
        self._terminal_record(
            job, now, job.result, job.service_total, coalesced=False
        )
        # Waiters land with the leader: the identical answer, their own
        # latency accounting, zero service time of their own.
        for w in sorted(job.waiters, key=lambda j: j.request.request_id):
            self._terminal_record(w, now, job.result, 0.0, coalesced=True)
        job.waiters.clear()
        # Followers go back to the head of their queues (reversed so the
        # original arrival order is preserved front-to-back) and will
        # re-dispatch this same tick against the now-warm cache.
        for f in reversed(job.followers):
            self.scheduler.requeue_front(f)
        job.followers.clear()

    def _apply_overlay(self, event, now: float) -> None:
        if event.action == "kill":
            self.cluster.fail_node(event.rank)
        elif event.action == "heal":
            self.cluster.heal_node(event.rank)
        elif event.action in ("partition", "partition-heal"):
            # Chaos-engine split-brain: only meaningful when a network
            # fault session is installed; a no-op otherwise so traces
            # carrying partitions replay unchanged on healthy clusters.
            net = getattr(self.cluster, "net", None)
            if net is not None:
                if event.action == "partition":
                    net.set_partition(event.groups)
                else:
                    net.clear_partition()
        else:
            self.cluster.inject_faults(event.rank, event.plan)
        if self.tracer.enabled:
            self.tracer.seek("serve", now)
            self.tracer.instant(
                "serve.overlay", track="serve", category="fault",
                args={"action": event.action, "rank": event.rank},
            )

    def _dispatch_free_slots(self, now: float) -> None:
        while len(self._running) < self.config.n_executors:
            job = None
            if self._gold_claims > 0:
                job = self.scheduler.pop_tier("gold")
                self._gold_claims = self._gold_claims - 1 if job else 0
            if job is None:
                job = self.scheduler.next_job()
            if job is None:
                return
            self._dispatch(job, now)

    # -- the event loop --------------------------------------------------

    def serve(self, trace: TrafficTrace) -> ServingReport:
        """Run the whole trace to completion and report every request's
        terminal state.  Re-running on a fresh cluster with the same
        trace and config reproduces the report exactly."""
        cfg = self.config
        arrivals = list(trace.requests)
        overlays = list(trace.overlays)
        ai = oi = 0
        next_eval = cfg.brownout.eval_interval
        self._records.clear()
        self._running.clear()

        while True:
            candidates = []
            for job in self._running:
                t = job.preempt_at if job.preempt_at is not None else job.finish_at
                candidates.append(t)
            if oi < len(overlays):
                candidates.append(overlays[oi].time)
            if ai < len(arrivals):
                candidates.append(arrivals[ai].arrival)
            work_pending = (
                ai < len(arrivals) or self._running or self.scheduler.backlog
            )
            if work_pending:
                candidates.append(next_eval)
            if not candidates:
                break
            now = min(candidates)

            # Fixed intra-tick order keeps ties deterministic:
            # completions/preemptions, overlays, brownout, arrivals.
            due = [
                j for j in list(self._running)
                if (j.preempt_at if j.preempt_at is not None else j.finish_at)
                == now
            ]
            for job in sorted(due, key=lambda j: j.request.request_id):
                if job.preempt_at is not None and job.preempt_at == now:
                    self._preempt(job, now)
                else:
                    self._complete(job, now)
            while oi < len(overlays) and overlays[oi].time == now:
                self._apply_overlay(overlays[oi], now)
                oi += 1
            if work_pending and next_eval == now:
                self.brownout.evaluate(
                    now, self.scheduler.backlog, self._ratio_window.quantile(0.99)
                )
                if self.controller is not None:
                    self.controller.on_tick(now, self)
                next_eval += cfg.brownout.eval_interval
            while ai < len(arrivals) and arrivals[ai].arrival == now:
                self._admit(arrivals[ai], now)
                ai += 1
            self._dispatch_free_slots(now)
            if self.metrics is not None:
                self.metrics.set_gauge("serve.queue_depth", self.scheduler.backlog)

        records = [self._records[rid] for rid in sorted(self._records)]
        gap_bounds = {}
        if records:
            lams = {r.lam for r in records}
            max_cost = max(
                (cost for (lam, _epoch, _bk), cost in self._est_cache.items()
                 if lam in lams),
                default=0.0,
            )
            if max_cost > 0:
                gap_bounds = {
                    t.name: self.scheduler.gap_bound(t.name, max_cost)
                    for t in cfg.tenants
                }
        bc = None
        if hasattr(self.cluster, "cache_stats"):
            bc = self.cluster.cache_stats()
        cache_stats = {
            "hits": float(bc.hits) if bc else 0.0,
            "misses": float(bc.misses) if bc else 0.0,
            "hit_rate": float(bc.hit_rate) if bc else 0.0,
            "evictions": float(bc.evictions) if bc else 0.0,
            "invalidations": float(bc.invalidations) if bc else 0.0,
        }
        rc = self.result_cache
        rs = rc.stats if rc is not None else None
        result_cache_stats = {
            "hits": float(rs.hits) if rs else 0.0,
            "misses": float(rs.misses) if rs else 0.0,
            "hit_rate": float(rs.hit_rate) if rs else 0.0,
            "record_hits": float(rs.record_hits) if rs else 0.0,
            "mesh_hits": float(rs.mesh_hits) if rs else 0.0,
            "evictions": float(rs.evictions) if rs else 0.0,
            "invalidations": float(rs.invalidations) if rs else 0.0,
            "records_from_cache": (
                float(rs.records_from_cache) if rs else 0.0
            ),
        }
        if rc is not None and self.metrics is not None:
            from repro.serve.rcache import publish_result_cache_stats

            publish_result_cache_stats(self.metrics, rc)
        return ServingReport(
            records=records,
            transitions=list(self.brownout.transitions),
            horizon=trace.horizon,
            scheduler_gaps=dict(self.scheduler.max_service_gap_rounds),
            scheduler_gap_bounds=gap_bounds,
            cache_stats=cache_stats,
            result_cache_stats=result_cache_stats,
        )
