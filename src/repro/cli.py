"""Command-line interface.

Exposes the preprocess-once / query-many workflow from the shell::

    repro preprocess --rm-step 250 --shape 97x97x89 --out ds/
    repro preprocess --input field.npy --out ds/
    repro info ds/
    repro query ds/ 130
    repro extract ds/ 130 --obj surface.obj
    repro render ds/ 130 --out surface.ppm --size 512 --smooth
    repro spanspace ds/

Dataset directories are the self-describing layout of
:mod:`repro.core.persistence` (bricks.bin + index.npz + meta.json).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from repro.core.builder import FunctionSlabSource
from repro.core.persistence import build_persistent_dataset, load_dataset
from repro.core.query import QueryOptions, execute_query
from repro.grid.rm_instability import rm_timestep
from repro.grid.volume import Volume
from repro.mc.backends import available_backends
from repro.mc.geometry import TriangleMesh
from repro.parallel.node import extract_node


def _parse_shape(text: str) -> tuple[int, int, int]:
    try:
        parts = tuple(int(p) for p in text.lower().replace(",", "x").split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad shape {text!r}; use e.g. 97x97x89")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"shape needs 3 dims, got {text!r}")
    return parts  # type: ignore[return-value]


def _read_input(path, mmap_mode=None) -> np.ndarray:
    data = np.load(path, mmap_mode=mmap_mode)
    if data.ndim != 3:
        raise SystemExit(f"error: {path} holds a {data.ndim}D array, need 3D")
    return data


def _load_volume(args) -> Volume:
    if args.input:
        return Volume(_read_input(args.input), name=Path(args.input).stem)
    return rm_timestep(args.rm_step, shape=args.shape, seed=args.seed)


def _extract_mesh(dataset, iso: float) -> TriangleMesh:
    return extract_node(dataset, iso)[1]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_preprocess(args) -> int:
    if args.input:
        # Memory-mapped and streamed one metacell layer at a time: the
        # file is never read into memory whole.
        data = _read_input(args.input, mmap_mode="r")
        volume = FunctionSlabSource(
            lambda x0, x1: data[x0:x1], data.shape, data.dtype,
            name=Path(args.input).stem,
        )
    else:
        volume = _load_volume(args)
    m = args.metacell
    dataset = build_persistent_dataset(volume, args.out, metacell_shape=(m, m, m))
    rep = dataset.report
    print(f"preprocessed {volume.name} {volume.shape} -> {args.out}")
    print(f"  metacells stored : {rep.n_metacells_stored}/{rep.n_metacells_total}")
    print(f"  store size       : {rep.stored_bytes} bytes "
          f"(raw volume {rep.original_bytes}, saving {rep.space_saving:.1%})")
    print(f"  index size       : {rep.index_bytes} bytes "
          f"({rep.n_bricks} bricks, height {rep.tree_height})")
    dataset.device.close()
    return 0


def cmd_info(args) -> int:
    ds = load_dataset(args.dataset)
    rep = ds.report
    meta = ds.meta
    print(f"dataset   : {args.dataset}")
    print(f"volume    : {meta.name} {meta.volume_shape}")
    print(f"metacells : {meta.metacell_shape} grid {meta.grid_shape}")
    print(f"stored    : {rep.n_metacells_stored} records x {ds.codec.record_size} bytes")
    print(f"index     : {rep.index_bytes} bytes, n={rep.n_distinct_endpoints} "
          f"endpoints, {rep.n_bricks} bricks, height {rep.tree_height}")
    lo, hi = float(ds.tree.endpoints[0]), float(ds.tree.endpoints[-1])
    print(f"isovalues : [{lo:g}, {hi:g}]")
    ds.device.close()
    return 0


def cmd_query(args) -> int:
    from repro.io.faults import FaultInjectingDevice, FaultPlan, RetryPolicy

    ds = load_dataset(args.dataset)
    closer = ds.device
    if args.inject_faults:
        ds.device = FaultInjectingDevice(
            ds.device, FaultPlan.from_spec(args.inject_faults)
        )
    policy = (
        RetryPolicy(max_retries=args.max_retries)
        if args.max_retries is not None
        else None
    )
    res = execute_query(
        ds,
        args.iso,
        QueryOptions(
            retry_policy=policy,
            verify_checksums=False if args.no_verify else None,
            backend=getattr(args, "backend", "mc-batch"),
        ),
    )
    io = res.io_stats
    print(f"isovalue {args.iso:g}: {res.n_active} active metacells")
    print(f"  plan     : {res.plan.n_sequential_runs} sequential runs, "
          f"{res.plan.n_prefix_scans} brick prefix scans, "
          f"{res.plan.bricks_skipped} bricks skipped with no I/O")
    print(f"  I/O      : {io.blocks_read} blocks, {io.seeks} seeks, "
          f"{io.bytes_read} bytes")
    if args.inject_faults or io.retries or io.checksum_failures:
        print(f"  faults   : {io.retries} retries, "
              f"{io.checksum_failures} checksum failures, "
              f"{io.fault_delay * 1e3:.2f} ms retry/backoff delay")
    print(f"  modeled  : {io.read_time(ds.device.cost_model) * 1e3:.2f} ms "
          f"at {ds.device.cost_model.bandwidth / 1e6:.0f} MB/s")
    closer.close()
    return 0


def _cache_options(args):
    """The single place cache flags become a
    :class:`~repro.io.cache.CacheOptions` — shared by every cluster and
    serving subcommand, so ``--cache-blocks``, ``--result-cache-mb``,
    ``--lambda-bucket`` and ``--no-coalesce`` mean the same thing
    everywhere.  All-defaults is a valid (fully disabled) value."""
    from repro.io.cache import CacheOptions
    from repro.parallel.perfmodel import PAPER_CLUSTER

    blocks = getattr(args, "cache_blocks", None) or 0
    return CacheOptions(
        block_cache_bytes=blocks * PAPER_CLUSTER.disk.block_size,
        result_cache_bytes=int(
            (getattr(args, "result_cache_mb", 0.0) or 0.0) * (1 << 20)
        ),
        lambda_bucket=getattr(args, "lambda_bucket", 0.0) or 0.0,
        coalesce=not getattr(args, "no_coalesce", False),
    )


def _build_cluster(args):
    from repro.io.faults import FaultPlan
    from repro.parallel.cluster import SimulatedCluster

    volume = _load_volume(args)
    fault_plans = {}
    if args.inject_faults:
        plan = FaultPlan.from_spec(args.inject_faults)
        targets = args.fault_node if args.fault_node else range(args.nodes)
        fault_plans = {rank: plan for rank in targets}
    return SimulatedCluster(
        volume,
        p=args.nodes,
        metacell_shape=(args.metacell,) * 3,
        replication=args.replication,
        fault_plans=fault_plans,
        cache=_cache_options(args),
    )


def _hedge_policy(args):
    from repro.io.faults import HedgePolicy

    if args.no_hedging or args.replication < 2:
        return None
    return HedgePolicy(quantile=args.hedge_quantile)


def _extract_request(args, tracer=None, metrics=None):
    """The single place a cluster command's flags become an
    :class:`~repro.parallel.cluster.ExtractRequest` — shared by
    ``cluster``, ``health``, ``trace``, and ``metrics`` so every
    subcommand runs the exact same extraction."""
    from repro.parallel.cluster import ExtractRequest

    return ExtractRequest(
        deadline=args.deadline,
        hedge=_hedge_policy(args),
        tracer=tracer,
        metrics=metrics,
        backend=getattr(args, "backend", "mc-batch"),
    )


def cmd_cluster(args) -> int:
    from repro.obs import MetricsRegistry, Tracer, write_chrome_trace, write_metrics_json

    cluster = _build_cluster(args)
    for rank in args.fail_node or []:
        cluster.fail_node(rank)
    tracer = Tracer() if args.trace else None
    registry = MetricsRegistry() if args.metrics_out else None
    res = cluster.extract(args.iso, _extract_request(args, tracer, registry))
    status = "DEGRADED (partial result)" if res.degraded else "complete"
    print(f"isovalue {args.iso:g} on p={args.nodes} "
          f"(replication r={args.replication}): {status}")
    print(f"  triangles : {res.n_triangles} from "
          f"{res.n_active_metacells} active metacells "
          f"({res.coverage:.1%} coverage)")
    if res.failed_nodes:
        print(f"  failures  : nodes {res.failed_nodes} "
              f"(unrecovered: {res.unrecovered_nodes or 'none'})")
    print(f"  modeled   : {res.total_time * 1e3:.2f} ms total, "
          f"{res.composite_bytes} composite bytes")
    if res.n_hedged_reads:
        print(f"  hedging   : {res.n_hedged_reads} hedged reads, "
              f"{res.n_hedge_wins} replica wins")
    dl = res.deadline
    if dl is not None:
        verdict = "MET" if dl.met else (
            f"MISSED by {dl.over_budget_by * 1e3:.2f} ms"
            if dl.over_budget_by > 0 else "MISSED (partial coverage)"
        )
        print(f"  deadline  : {dl.budget * 1e3:.2f} ms budget "
              f"(node stage {dl.node_budget * 1e3:.2f} ms): {verdict}")
        if dl.expired_nodes:
            print(f"              expired nodes {dl.expired_nodes}, "
                  f"speculatively re-run: {dl.speculated_nodes or 'none'}")
    if res.skipped_bricks:
        for rank, bricks in sorted(res.skipped_bricks.items()):
            print(f"  skipped   : node {rank} left span-space bricks "
                  f"{bricks} unread")
    print(f"  {'node':>4} {'status':>10} {'active':>8} {'tris':>8} "
          f"{'retries':>8} {'crcfail':>8} {'hedged':>7} {'cov%':>6} "
          f"{'time ms':>9}")
    for m in res.nodes:
        if m.failed:
            status = "FAILED"
        elif m.circuit_open:
            status = "OPEN"
        elif m.recovered_ranks:
            status = f"+serve{m.recovered_ranks}"
        else:
            status = "ok"
        print(f"  {m.node_rank:>4} {status:>10} {m.n_active_metacells:>8} "
              f"{m.n_triangles:>8} {m.n_retries:>8} {m.n_checksum_failures:>8} "
              f"{m.n_hedged_reads:>7} {m.coverage * 100:>6.1f} "
              f"{m.total_time * 1e3:>9.2f}")
    served = [m for m in res.nodes if m.served_by is not None]
    if served:
        print("  recovery attribution:")
        for m in served:
            print(f"    node {m.node_rank} <- replica on node {m.served_by} "
                  f"[{m.recovery_reason.replace('-', ' ')}]")
    if tracer is not None:
        path = write_chrome_trace(args.trace, tracer)
        print(f"  trace     : {len(tracer.spans)} spans / "
              f"{len(tracer.events)} events on {len(tracer.tracks())} "
              f"tracks -> {path}")
    if registry is not None:
        path = write_metrics_json(args.metrics_out, registry)
        print(f"  metrics   : {len(registry)} instruments -> {path}")
    return 0 if not res.degraded else 1


def cmd_health(args) -> int:
    cluster = _build_cluster(args)
    for rank in args.fail_node or []:
        cluster.fail_node(rank)
    for rank in getattr(args, "retire_node", None) or []:
        cluster.retire_node(rank)
    request = _extract_request(args)
    for i in range(args.queries):
        res = cluster.extract(args.iso, request)
        routed = [m.node_rank for m in res.nodes if m.circuit_open]
        note = f" routed-around: {routed}" if routed else ""
        print(f"query {i + 1}: coverage {res.coverage:.1%}, "
              f"{res.total_time * 1e3:.2f} ms"
              f"{' DEGRADED' if res.degraded else ''}{note}")
    print()
    print(cluster.health.report())
    return 0


def cmd_trace(args) -> int:
    from repro.obs import Tracer, write_chrome_trace

    cluster = _build_cluster(args)
    for rank in args.fail_node or []:
        cluster.fail_node(rank)
    tracer = Tracer()
    res = cluster.extract(args.iso, _extract_request(args, tracer=tracer))
    path = write_chrome_trace(args.out, tracer)
    print(f"isovalue {args.iso:g} on p={args.nodes}: {res.n_triangles} "
          f"triangles, {res.total_time * 1e3:.2f} ms modeled")
    print(f"  {'track':>8} {'io ms':>9} {'triangulate ms':>15} "
          f"{'render ms':>10}")
    for track in tracer.tracks():
        if track == "cluster":
            continue
        print(f"  {track:>8} "
              f"{tracer.total('stage.io', track=track) * 1e3:>9.2f} "
              f"{tracer.total('stage.triangulate', track=track) * 1e3:>15.2f} "
              f"{tracer.total('stage.render', track=track) * 1e3:>10.2f}")
    print(f"  composite: {tracer.total('composite') * 1e3:.2f} ms")
    print(f"wrote {len(tracer.spans)} spans / {len(tracer.events)} events "
          f"on {len(tracer.tracks())} tracks -> {path}")
    print("open in chrome://tracing or https://ui.perfetto.dev "
          "(timestamps are modeled microseconds)")
    return 0 if not res.degraded else 1


def cmd_metrics(args) -> int:
    from repro.obs import MetricsRegistry, dumps_metrics, write_metrics_json

    cluster = _build_cluster(args)
    for rank in args.fail_node or []:
        cluster.fail_node(rank)
    registry = MetricsRegistry()
    request = _extract_request(args, metrics=registry)
    for _ in range(args.queries):
        res = cluster.extract(args.iso, request)
    extra = {"isovalue": args.iso, "nodes": args.nodes,
             "queries": args.queries}
    if args.out:
        path = write_metrics_json(args.out, registry, extra)
        print(f"{len(registry)} instruments after {args.queries} "
              f"extraction(s) -> {path}")
    else:
        print(dumps_metrics(registry, extra), end="")
    return 0 if not res.degraded else 1


class _ServingScenario:
    """Everything ``serve-sim`` and ``elastic-sim`` share, built once.

    The single place a serving command's flags become the traffic trace
    and :class:`~repro.serve.ServeConfig` — both subcommands run the
    exact same tenant mix, burst window, fault overlays, and cache
    configuration, so their reports differ only by the cluster under
    them.
    """

    def __init__(self, args, cluster) -> None:
        from repro.serve import (
            BrownoutConfig,
            BurstWindow,
            ClusterEvent,
            ServeConfig,
            TenantSpec,
            TrafficConfig,
            generate_trace,
        )

        if args.isovalues:
            isovalues = tuple(float(s) for s in args.isovalues.split(","))
        else:
            eps = cluster.datasets[0].tree.endpoints
            lo, hi = float(eps[0]), float(eps[-1])
            isovalues = tuple(
                lo + (hi - lo) * f for f in (0.35, 0.45, 0.5, 0.55, 0.65)
            )
        # One "service unit" = the worst predicted single-query time;
        # every duration/rate/budget flag is expressed in these units so
        # the same command works at any volume size.
        self.isovalues = isovalues
        self.unit = unit = max(
            cluster.estimate_extract_time(l) for l in isovalues
        )
        self.duration = duration = args.duration * unit
        base_rate = args.rate / unit
        self.tenants = tenants = (
            TenantSpec(name="gold", tier="gold", arrival_share=0.3,
                       rate=base_rate, burst=8,
                       deadline_budget=args.budget_gold * unit),
            TenantSpec(name="silver", tier="silver", arrival_share=0.4,
                       rate=base_rate, burst=8,
                       deadline_budget=args.budget_silver * unit),
            TenantSpec(name="bulk", tier="bulk", arrival_share=0.3,
                       rate=base_rate, burst=8,
                       deadline_budget=args.budget_bulk * unit),
        )
        overlays = []
        for spec in args.kill_node or []:
            rank_s, _, frac_s = spec.partition("@")
            overlays.append(ClusterEvent(
                time=float(frac_s or 0.5) * duration, action="kill",
                rank=int(rank_s),
            ))
        bursts = ()
        if args.overload > 1.0:
            bursts = (BurstWindow(start=duration / 3, duration=duration / 3,
                                  factor=args.overload),)
        self.trace = generate_trace(
            TrafficConfig(
                duration=duration, base_rate=base_rate, isovalues=isovalues,
                seed=args.trace_seed, bursts=bursts, overlays=tuple(overlays),
            ),
            tenants,
        )
        self.config = ServeConfig(
            tenants=tenants, n_executors=args.executors,
            max_queue_depth=args.queue_depth, quantum=unit / 5,
            brownout=BrownoutConfig(eval_interval=unit),
            cache=_cache_options(args),
            backend=getattr(args, "backend", "mc-batch"),
        )


def _write_serving_outputs(args, payload, tracer, registry) -> None:
    """The shared ``--json`` / ``--trace`` / ``--metrics-out`` tail."""
    from repro.obs import write_chrome_trace, write_metrics_json

    if args.json and payload is not None:
        Path(args.json).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"  payload   -> {args.json}")
    if tracer is not None:
        path = write_chrome_trace(args.trace, tracer)
        print(f"  trace     -> {path}")
    if registry is not None:
        path = write_metrics_json(args.metrics_out, registry)
        print(f"  metrics   -> {path}")


def cmd_serve_sim(args) -> int:
    from repro.obs import MetricsRegistry, Tracer
    from repro.parallel.cluster import SimulatedCluster
    from repro.serve import TERMINAL_STATES, QueryServer

    volume = _load_volume(args)
    cluster = SimulatedCluster(
        volume, p=args.nodes, metacell_shape=(args.metacell,) * 3,
        replication=args.replication,
        cache=_cache_options(args),
    )
    sc = _ServingScenario(args, cluster)
    duration = sc.duration
    tracer = Tracer() if args.trace else None
    registry = MetricsRegistry() if args.metrics_out else None
    server = QueryServer(cluster, sc.config, tracer=tracer, metrics=registry)
    report = server.serve(sc.trace)

    counts = {s: len(report.by_state(s)) for s in TERMINAL_STATES}
    print(f"served {report.n_requests} requests over "
          f"{duration * 1e3:.1f} ms modeled "
          f"(p={args.nodes}, r={args.replication}, "
          f"{args.executors} executors, {args.overload:g}x burst)")
    print(f"  states    : " + ", ".join(
        f"{s}={counts[s]}" for s in TERMINAL_STATES))
    shed = {}
    for r in report.by_state("shed"):
        shed[r.reason] = shed.get(r.reason, 0) + 1
    if shed:
        print("  shed      : " + ", ".join(
            f"{k}={v}" for k, v in sorted(shed.items())))
    print(f"  goodput   : {report.goodput:.1f} answered queries/s modeled, "
          f"shed rate {report.shed_rate:.1%}")
    for tier in ("gold", "silver", "bulk"):
        lats = report.latencies(tier)
        if lats:
            print(f"  {tier:<6}    : p50 "
                  f"{report.latency_quantile(0.50, tier) * 1e3:.2f} ms, "
                  f"p99 {report.latency_quantile(0.99, tier) * 1e3:.2f} ms "
                  f"({len(lats)} answered)")
    if report.transitions:
        print("  brownout  :")
        for t in report.transitions:
            print(f"    {t.time * 1e3:9.1f} ms  level {t.from_level} -> "
                  f"{t.to_level}  [{t.reason}]")
    gaps = report.scheduler_gaps
    bounds = report.scheduler_gap_bounds
    print("  fairness  : " + ", ".join(
        f"{n} gap {gaps[n]}/{bounds.get(n, '-')}" for n in sorted(gaps)))
    _print_cache_lines(report)
    _write_serving_outputs(
        args, report.to_payload() if args.json else None, tracer, registry)
    return 0


def _print_cache_lines(report) -> None:
    """Block- and result-cache summary lines (omitted when both off)."""
    bc = report.cache_stats
    if bc.get("hits", 0) or bc.get("misses", 0):
        print(f"  blockcache: {bc['hits']:.0f} hits / "
              f"{bc['misses']:.0f} misses "
              f"(rate {bc.get('hit_rate', 0.0):.1%})")
    rc = report.result_cache_stats
    if rc.get("hits", 0) or rc.get("misses", 0):
        coalesced = sum(1 for r in report.records if r.coalesced)
        print(f"  rcache    : {rc['hits']:.0f} hits / "
              f"{rc['misses']:.0f} misses "
              f"(rate {rc.get('hit_rate', 0.0):.1%}), "
              f"{rc.get('records_from_cache', 0):.0f} records reused, "
              f"{coalesced} coalesced requests")


def cmd_elastic_sim(args) -> int:
    from repro.elastic import (
        Autoscaler,
        ElasticCluster,
        ElasticController,
        Rebalancer,
        ScaleEvent,
        check_balance,
        fsck_cluster,
    )
    from repro.obs import MetricsRegistry, Tracer
    from repro.serve import TERMINAL_STATES, QueryServer

    volume = _load_volume(args)
    tracer = Tracer() if args.trace else None
    registry = MetricsRegistry() if args.metrics_out else None
    cluster = ElasticCluster(
        volume, nodes=args.nodes, n_stripes=args.stripes,
        metacell_shape=(args.metacell,) * 3,
        tracer=tracer, metrics=registry,
        cache=_cache_options(args),
    )
    sc = _ServingScenario(args, cluster)
    duration = sc.duration
    scale_plan = []
    for spec in args.scale if args.scale is not None else ["8@0.34", "3@0.67"]:
        n_s, _, frac_s = spec.partition("@")
        scale_plan.append(ScaleEvent(
            time=float(frac_s or 0.5) * duration, nodes=int(n_s),
        ))
    controller = ElasticController(
        cluster,
        rebalancer=Rebalancer(cluster, max_io_fraction=args.max_io_fraction),
        plan=() if args.autoscale else scale_plan,
        autoscaler=Autoscaler() if args.autoscale else None,
        balance_isovalues=sc.isovalues,
        metrics=registry, tracer=tracer,
    )
    server = QueryServer(
        cluster, sc.config,
        tracer=tracer, metrics=registry, controller=controller,
    )
    report = server.serve(sc.trace)
    controller.finish(sc.trace.horizon)
    isovalues = sc.isovalues

    counts = {s: len(report.by_state(s)) for s in TERMINAL_STATES}
    print(f"served {report.n_requests} requests over "
          f"{duration * 1e3:.1f} ms modeled "
          f"({args.nodes} -> {len(cluster.membership.target_ids())} nodes, "
          f"{cluster.n_stripes} stripes, {args.overload:g}x burst)")
    print("  states    : " + ", ".join(
        f"{s}={counts[s]}" for s in TERMINAL_STATES))
    print(f"  goodput   : {report.goodput:.1f} answered queries/s modeled, "
          f"shed rate {report.shed_rate:.1%}")
    print("  members   : " + ", ".join(
        f"{k}={v}" for k, v in sorted(cluster.membership.counts().items())))
    print(f"  ownership : epoch {cluster.ownership.epoch}, "
          f"stripes/node " + ", ".join(
              f"{n}:{c}" for n, c in sorted(cluster.ownership.counts().items())))
    print(f"  migration : {len(cluster.migrations)} moves, "
          f"{cluster.migration_bytes} bytes, "
          f"{cluster.migration_seconds * 1e3:.2f} ms modeled")
    for ev in controller.rebalance_events:
        print(f"  rebalance : {ev.started * 1e3:9.1f} -> "
              f"{ev.finished * 1e3:9.1f} ms, {ev.n_moves} moves, "
              f"-> {ev.serving_nodes} nodes, "
              f"balance {'OK' if ev.balance.ok else 'VIOLATED'}")
    balance = check_balance(cluster, isovalues)
    print(f"  balance   : spread {balance.assignment_spread} "
          f"({'OK' if balance.ok else 'VIOLATED'})")
    if args.autoscale:
        for d in controller.autoscaler.decisions:
            arrow = "up" if d.direction > 0 else "down"
            print(f"  autoscale : {d.time * 1e3:9.1f} ms {arrow} -> "
                  f"{d.target_nodes} [{d.reason}]")
    if args.fsck:
        print(fsck_cluster(cluster).summary())
    _print_cache_lines(report)
    payload = None
    if args.json:
        payload = report.to_payload()
        payload["elastic"] = {
            "migrations": len(cluster.migrations),
            "migration_bytes": cluster.migration_bytes,
            "migration_seconds": cluster.migration_seconds,
            "epoch": cluster.ownership.epoch,
            "members": cluster.membership.counts(),
            "rebalances": [ev.as_dict() for ev in controller.rebalance_events],
        }
    _write_serving_outputs(args, payload, tracer, registry)
    failed = counts["failed"]
    if failed:
        print(f"ERROR: {failed} queries ended 'failed'", file=sys.stderr)
    return 1 if failed else 0


def cmd_chaos(args) -> int:
    from repro.chaos import (
        ChaosEngine,
        ChaosSpec,
        load_schedule,
        save_schedule,
        schedule_as_dicts,
        shrink_schedule,
    )
    from repro.obs import MetricsRegistry

    registry = MetricsRegistry()
    engine = ChaosEngine(metrics=registry)

    if args.replay:
        spec, schedule, payload = load_schedule(args.replay)
        result = engine.run_trial(spec, schedule=schedule)
        print(f"replayed {args.replay}: seed {spec.seed}, "
              f"{len(schedule)} events, "
              f"{len(result.violations)} violation(s)")
        for v in result.violations:
            print(f"  VIOLATION [{v.oracle}] {v.message}")
        if args.json:
            Path(args.json).write_text(json.dumps(
                result.as_dict(), indent=2, sort_keys=True) + "\n")
        return 1 if result.violations else 0

    base = ChaosSpec(
        seed=args.seed,
        n_kills=args.kills, n_fault_bursts=args.fault_bursts,
        n_scales=args.scales, n_partitions=args.partitions,
        duration_units=args.duration_units,
    )
    results = engine.run_trials(base, args.trials)
    failing = [r for r in results if r.violations]
    states: "dict[str, int]" = {}
    for r in results:
        for k, v in r.states.items():
            states[k] = states.get(k, 0) + v
    print(f"chaos: {args.trials} trials (seeds {args.seed}.."
          f"{args.seed + args.trials - 1}), "
          f"{len(failing)} with violations")
    print("  states : " + ", ".join(
        f"{k}={v}" for k, v in sorted(states.items())))
    net = {k: v for k, v in registry.to_dict().items()
           if k.startswith("chaos.net.") and k != "chaos.net.delay_seconds"}
    print("  net    : " + (", ".join(
        f"{k.rsplit('.', 1)[-1]}={int(v)}" for k, v in sorted(net.items()))
        or "(no session)"))

    repro_paths = []
    for r in failing:
        print(f"  seed {r.seed}: {len(r.violations)} violation(s)")
        for v in r.violations:
            print(f"    [{v.oracle}] {v.message}")
        if args.shrink:
            spec = ChaosSpec(**{**base.as_dict(), "seed": r.seed})
            def still_fails(candidate, _spec=spec):
                return bool(engine.run_trial(_spec, schedule=candidate).violations)
            minimal, probes = shrink_schedule(r.schedule, still_fails)
            path = Path(args.shrink_dir) / f"repro_seed{r.seed}.json"
            save_schedule(path, spec, minimal,
                          violations=r.violations, probes=probes)
            repro_paths.append(str(path))
            print(f"    shrunk {len(r.schedule)} -> {len(minimal)} events "
                  f"({probes} probes) -> {path}")

    if args.json:
        payload = {
            "trials": args.trials, "seed": args.seed,
            "violating": len(failing),
            "states": states,
            "metrics": registry.to_dict(),
            "failing": [
                {"seed": r.seed,
                 "violations": [v.as_dict() for v in r.violations],
                 "schedule": schedule_as_dicts(r.schedule)}
                for r in failing
            ],
            "repro_schedules": repro_paths,
        }
        out = Path(args.json)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"  report : {out}")
    return 1 if failing else 0


def cmd_extract(args) -> int:
    from repro.mc.mesh_io import write_obj, write_ply

    ds = load_dataset(args.dataset)
    if args.stream:
        from repro.mc.mesh_stream import stream_isosurface_to_file

        target = args.ply or args.obj
        if not target:
            print("error: --stream needs --ply or --obj", file=sys.stderr)
            return 2
        path, n = stream_isosurface_to_file(ds, args.iso, target)
        print(f"isovalue {args.iso:g}: streamed {n} triangles -> {path}")
        ds.device.close()
        return 0
    mesh = _extract_mesh(ds, args.iso)
    print(f"isovalue {args.iso:g}: {mesh.n_triangles} triangles")
    if args.weld:
        mesh = mesh.weld()
        print(f"welded to {mesh.n_vertices} vertices")
    if args.decimate:
        from repro.mc.simplify import simplify_to_budget

        mesh = simplify_to_budget(mesh, args.decimate)
        print(f"decimated to {mesh.n_triangles} triangles")
    wrote = False
    if args.obj:
        print(f"wrote {write_obj(args.obj, mesh, comment=f'iso {args.iso}')}")
        wrote = True
    if args.ply:
        print(f"wrote {write_ply(args.ply, mesh)}")
        wrote = True
    if not wrote:
        print("(no --obj/--ply given; nothing written)")
    ds.device.close()
    return 0


def cmd_render(args) -> int:
    from repro.render.camera import Camera
    from repro.render.image import write_ppm
    from repro.render.rasterizer import Framebuffer, render_mesh, render_mesh_smooth

    ds = load_dataset(args.dataset)
    mesh = _extract_mesh(ds, args.iso)
    ds.device.close()
    if mesh.n_triangles == 0:
        print(f"no geometry at isovalue {args.iso:g}", file=sys.stderr)
        return 1
    cam = Camera.fit_mesh(mesh)
    fb = Framebuffer(args.size, args.size)
    if args.smooth:
        welded = mesh.weld()
        render_mesh_smooth(fb, welded, cam, welded.vertex_normals())
    else:
        render_mesh(fb, mesh, cam)
    print(f"rendered {mesh.n_triangles} triangles "
          f"({fb.coverage():.0%} coverage) -> {write_ppm(args.out, fb.to_uint8())}")
    return 0


def _parse_steps(text: str) -> "list[int]":
    """'180-195' or '10,50,90' -> list of step numbers."""
    out: list[int] = []
    for part in text.split(","):
        if "-" in part:
            a, b = part.split("-", 1)
            out.extend(range(int(a), int(b) + 1))
        else:
            out.append(int(part))
    if not out:
        raise argparse.ArgumentTypeError("no time steps given")
    return out


def cmd_preprocess_series(args) -> int:
    from repro.core.timevarying import TimeVaryingIndex
    from repro.grid.rm_instability import rm_time_series

    steps = args.steps
    tvi = TimeVaryingIndex.from_series(
        rm_time_series(steps, shape=args.shape, n_steps=args.n_steps, seed=args.seed),
        p=args.nodes,
        metacell_shape=(args.metacell,) * 3,
        directory=args.out,
    )
    tvi.close()
    print(f"indexed steps {steps[0]}..{steps[-1]} ({len(steps)} steps) "
          f"on {args.nodes} node(s) -> {args.out}")
    print(f"combined in-memory index: {tvi.total_index_size_bytes()} bytes")
    return 0


def cmd_query_series(args) -> int:
    from repro.core.timevarying import TimeVaryingIndex

    tvi = TimeVaryingIndex.load(args.dataset)
    steps = args.steps if args.steps else tvi.steps
    print(f"{'step':>6} {'active MC':>10} {'triangles':>10}  per-node active")
    for t in steps:
        if t not in tvi:
            print(f"{t:>6} (not indexed)")
            continue
        nodes = [extract_node(ds, args.iso)[0] for ds in tvi.datasets(t)]
        amc = [m.n_active_metacells for m in nodes]
        print(f"{t:>6} {sum(amc):>10} {sum(m.n_triangles for m in nodes):>10}  {amc}")
    tvi.close()
    return 0


def cmd_verify(args) -> int:
    from repro.core.validation import verify_dataset

    ds = load_dataset(args.dataset)
    report = verify_dataset(ds, deep=not args.quick)
    print(report.summary())
    ds.device.close()
    return 0 if report.ok else 1


#: ``repro fsck`` exit codes, one per failure class (0 = clean).
FSCK_EXIT_OK = 0
FSCK_EXIT_STRUCTURAL = 1
FSCK_EXIT_CORRUPT = 3
FSCK_EXIT_MISSING = 4
FSCK_EXIT_BAD_VERSION = 5


def cmd_fsck(args) -> int:
    import json as _json

    from repro.core.persistence import DatasetFormatError, MissingArtifactError
    from repro.core.validation import verify_dataset

    result: dict = {"dataset": str(args.dataset), "action": "fsck"}

    def finish(code: int, failure_class: str) -> int:
        result["exit_code"] = code
        result["failure_class"] = failure_class
        if args.json:
            print(_json.dumps(result, indent=2))
        return code

    try:
        ds = load_dataset(args.dataset)
    except MissingArtifactError as exc:
        result["error"] = str(exc)
        if not args.json:
            print(f"fsck: missing artifact: {exc}", file=sys.stderr)
        return finish(FSCK_EXIT_MISSING, "missing-file")
    except DatasetFormatError as exc:
        result["error"] = str(exc)
        if not args.json:
            print(f"fsck: unsupported format: {exc}", file=sys.stderr)
        return finish(FSCK_EXIT_BAD_VERSION, "bad-index-version")
    except IOError as exc:
        result["error"] = str(exc)
        if not args.json:
            print(f"fsck: corrupt store: {exc}", file=sys.stderr)
        return finish(FSCK_EXIT_CORRUPT, "corrupt-brick")

    report = verify_dataset(ds, deep=not args.quick)
    result["verify"] = report.as_dict()

    if args.repair and report.has_corruption:
        from repro.core.repair import repair_dataset

        volume = None
        if args.input or args.rm_step is not None:
            volume = _load_volume(args)
        repair = repair_dataset(
            ds,
            source_volume=volume,
            positions=report.corrupt_records,
        )
        result["repair"] = repair.as_dict()
        if not args.json:
            print(repair.summary())
        # Re-verify: the exit code reports the store as it is *now*.
        report = verify_dataset(ds, deep=not args.quick)
        result["verify_after_repair"] = report.as_dict()

    if not args.json:
        print(report.summary())
    ds.device.close()
    if report.has_corruption:
        return finish(FSCK_EXIT_CORRUPT, "corrupt-brick")
    if not report.ok:
        return finish(FSCK_EXIT_STRUCTURAL, "structural")
    return finish(FSCK_EXIT_OK, "clean")


def cmd_scrub(args) -> int:
    import json as _json

    from repro.io.scrub import ScrubConfig, Scrubber
    from repro.obs import MetricsRegistry, write_metrics_json

    ds = load_dataset(args.dataset)
    registry = MetricsRegistry()
    scrubber = Scrubber(
        ds,
        ScrubConfig(
            bricks_per_tick=args.bricks_per_tick,
            idle_seconds=args.idle,
        ),
        metrics=registry,
    )
    if args.ticks is not None:
        report = None
        for _ in range(args.ticks):
            report = scrubber.tick(report)
        from repro.io.scrub import ScrubReport

        report = report or ScrubReport()
    else:
        report = scrubber.sweep()
    if args.metrics_out:
        write_metrics_json(args.metrics_out, registry)
    if args.json:
        print(_json.dumps(report.as_dict(), indent=2))
    else:
        print(report.summary())
    ds.device.close()
    return FSCK_EXIT_OK if report.clean else FSCK_EXIT_CORRUPT


def cmd_suggest(args) -> int:
    from repro.core.analysis import suggest_isovalues

    ds = load_dataset(args.dataset)
    picks = suggest_isovalues(ds.tree, selectivities=tuple(args.selectivity))
    print("selectivity  isovalue  active metacells")
    for target, iso in sorted(picks.items()):
        count = ds.tree.query_count(iso)
        print(f"{target:>11.2%}  {iso:>8g}  {count}")
    ds.device.close()
    return 0


def cmd_estimate(args) -> int:
    from repro.core.analysis import estimate_query_cost

    ds = load_dataset(args.dataset)
    est = estimate_query_cost(
        ds.tree, args.iso, ds.codec.record_size, ds.device.cost_model, ds.base_offset
    )
    print(f"isovalue {args.iso:g} (predicted without touching the store):")
    print(f"  active metacells : {est.n_active}")
    print(f"  runs             : {est.n_runs}")
    print(f"  blocks           : {est.blocks}")
    print(f"  payload bytes    : {est.bytes_payload}")
    print(f"  modeled I/O time : {est.io_time(ds.device.cost_model) * 1e3:.2f} ms")
    ds.device.close()
    return 0


def cmd_spanspace(args) -> int:
    from repro.core.intervals import IntervalSet
    from repro.core.span_space import SpanSpaceStats, ascii_span_space

    ds = load_dataset(args.dataset)
    tree = ds.tree
    # Reconstruct (vmin, vmax) per record from the brick table.
    vmaxs = np.empty(tree.n_records, dtype=np.float64)
    for b in range(tree.n_bricks):
        s, c = int(tree.brick_start[b]), int(tree.brick_count[b])
        vmaxs[s : s + c] = float(tree.brick_vmax[b])
    iv = IntervalSet(
        vmin=tree.record_vmins.astype(np.float64),
        vmax=vmaxs,
        ids=tree.record_ids,
    )
    stats = SpanSpaceStats.from_intervals(iv)
    print(f"N={stats.n_intervals} intervals, n={stats.n_distinct_endpoints} "
          f"endpoints, {stats.n_distinct_pairs} distinct (vmin, vmax) pairs")
    print(ascii_span_space(iv, bins=args.bins))
    ds.device.close()
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Out-of-core isosurface extraction (compact interval tree).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="build a dataset directory")
    src = p.add_mutually_exclusive_group()
    src.add_argument("--input", help="3D .npy scalar volume to index")
    src.add_argument("--rm-step", type=int, default=250,
                     help="RM-instability time step to synthesize (default 250)")
    p.add_argument("--shape", type=_parse_shape, default=(97, 97, 89),
                   help="synthetic volume shape, e.g. 97x97x89")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--metacell", type=int, default=9,
                   help="metacell vertices per axis (default 9)")
    p.add_argument("--out", required=True, help="dataset directory to create")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("info", help="describe a dataset directory")
    p.add_argument("dataset")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("query", help="run an isosurface query (I/O report)")
    p.add_argument("dataset")
    p.add_argument("iso", type=float)
    p.add_argument("--inject-faults", metavar="SPEC",
                   help="fault-inject the device, e.g. "
                        "'transient=0.05,corrupt=0.01,latency=0.02:0.01,seed=7'")
    p.add_argument("--max-retries", type=int, default=None,
                   help="transient-read retry budget (default policy: 3)")
    p.add_argument("--no-verify", action="store_true",
                   help="skip CRC32 record verification")
    p.add_argument("--backend", choices=available_backends(),
                   default="mc-batch",
                   help="extraction kernel the query is planned for "
                        "(default mc-batch)")
    p.set_defaults(func=cmd_query)

    def add_cache_args(p) -> None:
        """The unified cache flags (one CacheOptions everywhere)."""
        p.add_argument("--result-cache-mb", type=float, default=0.0,
                       metavar="MB",
                       help="λ-keyed result cache budget in MiB (default 0: "
                            "off); repeated and nearby isovalues are then "
                            "answered without touching the disks, fenced by "
                            "the ownership epoch")
        p.add_argument("--lambda-bucket", type=float, default=0.0,
                       metavar="WIDTH",
                       help="isovalue bucket width for coalescing and the "
                            "result-cache mesh tier (default 0: exact "
                            "isovalues only)")
        p.add_argument("--no-coalesce", action="store_true",
                       help="dispatch duplicate in-flight isovalues "
                            "separately instead of attaching them to the "
                            "running extraction")

    def add_cluster_args(p) -> None:
        p.add_argument("iso", type=float)
        src = p.add_mutually_exclusive_group()
        src.add_argument("--input", help="3D .npy scalar volume")
        src.add_argument("--rm-step", type=int, default=250,
                         help="RM-instability time step to synthesize "
                              "(default 250)")
        p.add_argument("--shape", type=_parse_shape, default=(49, 49, 45),
                       help="synthetic volume shape (default 49x49x45)")
        p.add_argument("--seed", type=int, default=7)
        p.add_argument("--metacell", type=int, default=9)
        p.add_argument("-p", "--nodes", type=int, default=4, help="node count")
        p.add_argument("--replication", type=int, default=1,
                       help="brick replication factor r (default 1: none)")
        p.add_argument("--fail-node", type=int, action="append", metavar="RANK",
                       help="kill this node's disk before the query "
                            "(repeatable)")
        p.add_argument("--inject-faults", metavar="SPEC",
                       help="fault spec applied to node disks (see 'query')")
        p.add_argument("--fault-node", type=int, action="append", metavar="RANK",
                       help="restrict --inject-faults to these ranks "
                            "(repeatable; default: all nodes)")
        p.add_argument("--deadline", type=float, default=None, metavar="SECONDS",
                       help="modeled-time budget for the whole query; expired "
                            "nodes return partial, coverage-flagged results")
        p.add_argument("--hedge-quantile", type=float, default=0.5,
                       help="latency quantile anchoring the hedged-read "
                            "threshold (default 0.5, i.e. median)")
        p.add_argument("--no-hedging", action="store_true",
                       help="disable hedged replica reads (hedging is on by "
                            "default when replication >= 2)")
        p.add_argument("--cache-blocks", type=int, default=None, metavar="N",
                       help="LRU block cache of N blocks per node disk; "
                            "hits/misses show up as cache.* metrics")
        p.add_argument("--backend", choices=available_backends(),
                       default="mc-batch",
                       help="extraction kernel every node triangulates with "
                            "(default mc-batch; surface-nets trades exact MC "
                            "geometry for ~2x kernel throughput)")
        add_cache_args(p)

    p = sub.add_parser(
        "cluster",
        help="striped multi-node extraction with failures and replication",
    )
    add_cluster_args(p)
    p.add_argument("--trace", metavar="PATH",
                   help="write a Chrome trace-event JSON of the run "
                        "(modeled clock; byte-identical across same-seed "
                        "runs)")
    p.add_argument("--metrics-out", metavar="PATH",
                   help="write the run's flat metrics JSON here")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser(
        "health",
        help="run repeated cluster queries and report node health states",
    )
    add_cluster_args(p)
    p.add_argument("--queries", type=int, default=6,
                   help="extractions to run against the same cluster "
                        "(default 6)")
    p.add_argument("--retire-node", type=int, action="append", metavar="RANK",
                   help="mark this node permanently removed before the "
                        "queries: the breaker enters its terminal 'retired' "
                        "state — routed around forever, never probed — "
                        "unlike an open circuit (repeatable)")
    p.set_defaults(func=cmd_health)

    p = sub.add_parser(
        "trace",
        help="trace one cluster extraction to Chrome trace-event JSON",
    )
    add_cluster_args(p)
    p.add_argument("--out", default="trace.json",
                   help="trace file to write (default trace.json)")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "metrics",
        help="run cluster extraction(s) and dump the unified metrics",
    )
    add_cluster_args(p)
    p.add_argument("--queries", type=int, default=1,
                   help="extractions to aggregate (default 1)")
    p.add_argument("--out", default=None,
                   help="metrics JSON file (default: print to stdout)")
    p.set_defaults(func=cmd_metrics)

    def add_serving_args(p) -> None:
        """Flags shared verbatim by ``serve-sim`` and ``elastic-sim``
        (the :class:`_ServingScenario` inputs)."""
        src = p.add_mutually_exclusive_group()
        src.add_argument("--input", help="3D .npy scalar volume")
        src.add_argument("--rm-step", type=int, default=250,
                         help="RM-instability time step to synthesize "
                              "(default 250)")
        p.add_argument("--shape", type=_parse_shape, default=(33, 33, 29),
                       help="synthetic volume shape (default 33x33x29)")
        p.add_argument("--seed", type=int, default=7,
                       help="volume synthesis seed")
        p.add_argument("--metacell", type=int, default=9)
        p.add_argument("--isovalues", default=None,
                       help="comma-separated isovalue universe (default: "
                            "spread over the dataset's value range)")
        p.add_argument("--trace-seed", type=int, default=0,
                       help="traffic generator seed (default 0)")
        p.add_argument("--duration", type=float, default=120,
                       help="trace length in estimated-service units "
                            "(default 120)")
        p.add_argument("--rate", type=float, default=2.0,
                       help="base arrivals per estimated-service unit "
                            "(default 2)")
        p.add_argument("--overload", type=float, default=4.0,
                       help="burst multiplier over the middle third of the "
                            "trace (default 4; 1 disables the burst)")
        p.add_argument("--kill-node", action="append", metavar="RANK[@FRAC]",
                       help="kill this node at FRAC of the trace "
                            "(default 0.5); repeatable")
        p.add_argument("--executors", type=int, default=2,
                       help="concurrent query slots (default 2)")
        p.add_argument("--queue-depth", type=int, default=32,
                       help="admission queue bound (default 32)")
        p.add_argument("--budget-gold", type=float, default=4.0,
                       help="gold deadline budget in service units "
                            "(default 4)")
        p.add_argument("--budget-silver", type=float, default=6.0,
                       help="silver deadline budget in service units "
                            "(default 6)")
        p.add_argument("--budget-bulk", type=float, default=12.0,
                       help="bulk deadline budget in service units "
                            "(default 12)")
        p.add_argument("--backend", choices=available_backends(),
                       default="mc-batch",
                       help="extraction kernel every dispatched query runs "
                            "with (default mc-batch)")
        add_cache_args(p)
        p.add_argument("--json", metavar="PATH",
                       help="write the full serving payload JSON here "
                            "(includes cache_* and rcache_* metrics)")
        p.add_argument("--trace", metavar="PATH",
                       help="write a Chrome trace with serve.* instants here")
        p.add_argument("--metrics-out", metavar="PATH",
                       help="write the serve.* metrics JSON here")

    p = sub.add_parser(
        "serve-sim",
        help="multi-tenant serving simulation: admission, fair-share "
             "scheduling, load shedding, brownout, result reuse",
    )
    p.add_argument("-p", "--nodes", type=int, default=4, help="node count")
    p.add_argument("--replication", type=int, default=2,
                   help="brick replication factor (default 2: survive kills)")
    p.add_argument("--cache-blocks", type=int, default=None, metavar="N",
                   help="LRU block cache of N blocks per node disk")
    add_serving_args(p)
    p.set_defaults(func=cmd_serve_sim)

    p = sub.add_parser(
        "elastic-sim",
        help="elastic membership simulation: live resharding, failover, "
             "autoscaling under serving traffic — zero failed queries",
    )
    p.add_argument("-p", "--nodes", type=int, default=4,
                   help="initial node count (default 4)")
    p.add_argument("--stripes", type=int, default=12,
                   help="logical stripes to over-partition into (default 12; "
                        "must be >= the largest node count you scale to)")
    p.add_argument("--scale", action="append", metavar="N[@FRAC]",
                   help="scripted waypoint: be at N nodes from FRAC of the "
                        "trace on (default plan: 8@0.34 then 3@0.67); "
                        "repeatable; ignored under --autoscale")
    p.add_argument("--autoscale", action="store_true",
                   help="replace the scripted plan with metric-driven "
                        "scaling (queue depth, p99/budget ratio, utilization)")
    p.add_argument("--max-io-fraction", type=float, default=0.5,
                   help="migration I/O budget as a fraction of serving I/O "
                        "(default 0.5)")
    p.add_argument("--fsck", action="store_true",
                   help="run the ownership-aware fsck after the trace and "
                        "print its summary (stale copies are not issues)")
    add_serving_args(p)
    p.set_defaults(func=cmd_elastic_sim)

    p = sub.add_parser(
        "chaos",
        help="deterministic chaos trials: composed kill/storage/scale/"
             "partition schedules, invariant oracles, failing-seed "
             "shrinking to replayable repros",
    )
    p.add_argument("--trials", type=int, default=25,
                   help="seeded trials to run (default 25)")
    p.add_argument("--seed", type=int, default=0,
                   help="first trial seed (trial i uses seed + i)")
    p.add_argument("--kills", type=int, default=1,
                   help="node kills per schedule (default 1)")
    p.add_argument("--fault-bursts", type=int, default=1,
                   help="storage fault bursts per schedule (default 1)")
    p.add_argument("--scales", type=int, default=1,
                   help="scale waypoints per schedule (default 1)")
    p.add_argument("--partitions", type=int, default=1,
                   help="network partitions per schedule (default 1)")
    p.add_argument("--duration-units", type=float, default=30.0,
                   help="trace length in service units (default 30)")
    p.add_argument("--json", default=None, metavar="FILE",
                   help="write the trial report as JSON")
    p.add_argument("--replay", default=None, metavar="FILE",
                   help="replay a saved repro-chaos/1 schedule instead of "
                        "running fresh trials")
    p.add_argument("--no-shrink", dest="shrink", action="store_false",
                   help="report violating schedules without minimizing them")
    p.add_argument("--shrink-dir", default="out/chaos", metavar="DIR",
                   help="directory for minimized repro schedules "
                        "(default out/chaos)")
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser("extract", help="extract a mesh to OBJ/PLY")
    p.add_argument("dataset")
    p.add_argument("iso", type=float)
    p.add_argument("--obj", help="write Wavefront OBJ here")
    p.add_argument("--ply", help="write binary PLY here")
    p.add_argument("--weld", action="store_true", help="weld duplicate vertices")
    p.add_argument("--decimate", type=int, metavar="N",
                   help="simplify toward a triangle budget before writing")
    p.add_argument("--stream", action="store_true",
                   help="stream straight to disk with bounded memory")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("render", help="render an isosurface to PPM")
    p.add_argument("dataset")
    p.add_argument("iso", type=float)
    p.add_argument("--out", default="isosurface.ppm")
    p.add_argument("--size", type=int, default=512)
    p.add_argument("--smooth", action="store_true", help="Gouraud shading")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("spanspace", help="ASCII span-space view of a dataset")
    p.add_argument("dataset")
    p.add_argument("--bins", type=int, default=24)
    p.set_defaults(func=cmd_spanspace)

    p = sub.add_parser(
        "preprocess-series", help="index a window of RM time steps (Section 5.2)"
    )
    p.add_argument("--steps", type=_parse_steps, required=True,
                   help="e.g. 180-195 or 10,50,90")
    p.add_argument("--shape", type=_parse_shape, default=(65, 65, 57))
    p.add_argument("--n-steps", type=int, default=270)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--nodes", type=int, default=1, help="stripe across N nodes")
    p.add_argument("--metacell", type=int, default=9)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_preprocess_series)

    p = sub.add_parser("query-series", help="sweep one isovalue across time steps")
    p.add_argument("dataset", help="directory written by preprocess-series")
    p.add_argument("iso", type=float)
    p.add_argument("--steps", type=_parse_steps, default=None)
    p.set_defaults(func=cmd_query_series)

    p = sub.add_parser("verify", help="integrity-check a dataset (fsck)")
    p.add_argument("dataset")
    p.add_argument("--quick", action="store_true", help="structural checks only")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "fsck",
        help="classify dataset damage (distinct exit codes) and optionally "
             "repair it in place",
        description="Exit codes: 0 clean, 1 structural problem, 3 corrupt "
                    "brick/record, 4 missing artifact, 5 unsupported index "
                    "version.",
    )
    p.add_argument("dataset")
    p.add_argument("--quick", action="store_true", help="structural checks only")
    p.add_argument("--json", action="store_true",
                   help="print a machine-readable JSON summary")
    p.add_argument("--repair", action="store_true",
                   help="rebuild CRC-failing records in place from the source "
                        "volume (give --input or --rm-step)")
    p.add_argument("--input", help="source volume (.npy) for --repair")
    p.add_argument("--rm-step", type=int, default=None,
                   help="re-synthesize the RM source volume for --repair")
    p.add_argument("--shape", type=_parse_shape, default=(97, 97, 89),
                   help="synthetic source volume shape (with --rm-step)")
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=cmd_fsck)

    p = sub.add_parser(
        "scrub",
        help="paced background integrity sweep over a dataset's bricks",
    )
    p.add_argument("dataset")
    p.add_argument("--ticks", type=int, default=None,
                   help="run exactly this many ticks (default: one full sweep)")
    p.add_argument("--bricks-per-tick", type=int, default=4)
    p.add_argument("--idle", type=float, default=0.0,
                   help="modeled idle seconds accounted between ticks")
    p.add_argument("--json", action="store_true",
                   help="print the report as JSON")
    p.add_argument("--metrics-out", metavar="PATH",
                   help="write scrub.* metrics JSON here")
    p.set_defaults(func=cmd_scrub)

    p = sub.add_parser("suggest", help="suggest isovalues by selectivity")
    p.add_argument("dataset")
    p.add_argument(
        "--selectivity", type=float, nargs="+", default=[0.01, 0.05, 0.25, 0.5]
    )
    p.set_defaults(func=cmd_suggest)

    p = sub.add_parser("estimate", help="predict a query's I/O without running it")
    p.add_argument("dataset")
    p.add_argument("iso", type=float)
    p.set_defaults(func=cmd_estimate)

    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, IOError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
