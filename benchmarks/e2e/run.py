"""End-to-end benchmark runner.

One workload, one result line (what the comparison driver calls)::

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

prints every metric by name and unit and, as the last line of stdout, one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding the
end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``) named in ``BENCHMARK.json``.

Every workload, both passes, one file (what a person runs)::

    python3 benchmarks/e2e/run.py --seed 12 --out result.json

runs each workload in a fresh child process, untraced then traced, and
writes everything to ``--out`` for ``compare.py``.

Protocol, per workload: inputs come from ``inputs.py`` (generated in a
child, digest-checked); the workload is set up three times and
``setup_s`` is the median; the oracle references are computed, untimed;
then ops run in pass order, each timed on its own, until at least one
whole pass is done and ``--seconds`` have elapsed.  Wall metrics use
every timed op; the modeled clock and the I/O counts use the first pass
only, so they do not depend on how many ops the machine got through.
Files go to ``.e2e_cache/`` in the checkout and nowhere else.
"""

from __future__ import annotations

import os

# One thread of load: the numeric libraries must not fan out behind the
# single caller the workloads model.  Has to precede the numpy import.
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CACHE = ROOT / ".e2e_cache"
for p in (ROOT / "src", HERE):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))

import numpy as np

from spans import SpanRecorder, children_ms, per_op_ms

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
N_SETUPS = 3
#: Share of ``--seconds`` a traced run spends untraced first (it needs
#: the untraced median to state the tracing overhead against).
UNTRACED_SHARE = 0.4
MIN_TRACED_OPS = 8


def modeled_tail_percentile(n: int) -> int:
    """The highest of p99/p90/p75 that has ten samples beyond it, the
    median when even p75 does not.  ``n`` is the first pass's sample
    count, which is fixed per workload, so the choice never moves."""
    for q, need in ((99, 1000), (90, 100), (75, 40)):
        if n >= need:
            return q
    return 50


def measure(wl, seed: int, seconds: float, paths, workdir: Path, n_setups: int):
    """Set up ``n_setups`` times, then time ops.  Returns the end-to-end
    metrics, bookkeeping for the report, and the live workload state."""
    setups, st = [], None
    for i in range(n_setups):
        if st is not None:
            wl.teardown(st)
        gc.collect()
        t0 = time.perf_counter()
        st = wl.setup(paths, workdir / f"setup{i}", seed)
        setups.append(time.perf_counter() - t0)
    expected = wl.expected(st)

    n = len(st.ops)
    samples, first_pass, baseline = [], [], {}
    attempted = failed = units = 0
    busy = 0.0
    deadline = time.perf_counter() + seconds
    i = 0
    while i < n or time.perf_counter() < deadline:
        j = i % n
        if j == 0:
            gc.collect()
        t0 = time.perf_counter()
        result = wl.run_op(st, st.ops[j])
        dt = time.perf_counter() - t0
        obs = wl.observe(st, st.ops[j], result)
        del result
        agrees = (
            all(obs.facts.get(k) == v for k, v in expected[j].items())
            and baseline.setdefault(j, obs.facts) == obs.facts
        )
        attempted += obs.units
        failed += obs.bad if agrees else obs.units
        samples.append(dt * 1e3 / obs.units)
        busy += dt
        units += obs.units
        if i < n:
            first_pass.append(obs)
        i += 1

    modeled = [ms for obs in first_pass for ms in obs.modeled_ms]
    first_units = sum(obs.units for obs in first_pass)
    q_wall = wl.tail_percentile
    q_model = modeled_tail_percentile(len(modeled))
    metrics = {
        "setup_s": statistics.median(setups),
        "op_ms_p50": float(np.percentile(samples, 50)),
        "op_ms_tail": float(np.percentile(samples, q_wall)),
        "ops_per_s": units / busy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_share": (attempted - failed) / attempted,
        "modeled_ms_per_op": sum(modeled) / first_units,
        "modeled_tail_ms": float(np.percentile(modeled, q_model)),
        "io_blocks_per_op": sum(o.io_blocks for o in first_pass) / first_units,
        "stored_bytes_per_volume_byte": wl.stored_ratio(st),
    }
    info = {
        "attempted": attempted, "failed": failed,
        "timed_samples": len(samples), "timed_units": units,
        "passes": round(i / n, 2), "op_ms_tail_percentile": q_wall,
        "modeled_samples": len(modeled), "modeled_tail_percentile": q_model,
        "setup_s_all": setups,
    }
    return metrics, info, st


def trace(wl, st, seconds: float, untraced_p50: float, trace_out):
    """Traced ops over the live state, then the per-layer metrics."""
    rec = SpanRecorder()
    counters = []
    deadline = time.perf_counter() + seconds
    n = len(st.ops)
    i = 0
    while i < min(n, MIN_TRACED_OPS) or time.perf_counter() < deadline:
        if i % n == 0:
            gc.collect()
        rec.next_op()
        counters.append(wl.trace_op(st, st.ops[i % n], rec))
        i += 1
    if trace_out:
        rec.write(trace_out)
    return layer_metrics(wl, st, rec.spans, counters, untraced_p50)


def layer_metrics(wl, st, spans, counters, untraced_p50: float) -> dict:
    """Per-layer metrics from the traced ops' spans and raw counts.

    Times are mean milliseconds per unit of work (per request on
    ``serve_zipf``, per op elsewhere), so the layers of one workload add
    up; counts are totals over the traced ops divided the same way.  A
    layer that is not on a workload's path reads 0 there.
    """
    by_op = per_op_ms(spans)
    c, total = Counter(), Counter()
    for row in counters:
        c.update(row)
    for row in by_op.values():
        total.update(row)
    units = c["units"] or len(counters)

    def t(name: str) -> float:
        return total[name] / units

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    served = "parallel.extract" in total
    built = "core.builder.build" in total
    crc_ms = max(t("extra.execute_verify") - t("extra.execute_noverify"), 0.0)
    # op ids are the traced ops' positions, so they index ``counters``.
    traced_p50 = float(np.percentile(
        [row["op"] / counters[k].get("units", 1) for k, row in by_op.items()],
        50,
    ))
    balance_n = c["extract_calls"] or c["frames"]

    if served:
        # Inside a served request only the seams with proxies separate:
        # what is left of an extract call is orchestration plus the query
        # executor and decode, which cannot be told apart from outside.
        overhead = t("parallel.extract") - t("mc.batch") - t("io.device")
        closure = ratio(total["parallel.extract"], total["op"])
    elif built:
        # Decomposed by difference, so it closes by construction.
        overhead, closure = 0.0, 1.0
    else:
        # Cluster orchestration: the render-free extraction minus the
        # stages it is made of (0 where no cluster is on the path).
        overhead = t("extra.extract_mesh_only") and (
            t("extra.extract_mesh_only") - t("core.compact_tree.plan")
            - t("core.query.execute") - t("io.decode") - t("mc.batch")
        )
        closure = ratio(children_ms(spans, "replay"), total["op"])

    m = dict.fromkeys((x["name"] for x in SPEC["per_layer"]), 0.0)
    m.update(wl.statics(st))
    m.update({
        "grid.partition_ms": t("grid.partition"),
        "core.compact_tree.build_ms": t("core.compact_tree.build"),
        "core.compact_tree.plan_us": t("core.compact_tree.plan") * 1e3,
        "core.compact_tree.runs_per_query": ratio(c["runs"], c["queries"]),
        "core.builder.build_ms": t("core.builder.build"),
        "core.builder.stripe_ms": t("extra.core.builder.stripe"),
        "core.persistence.commit_ms": t("op") - t("core.builder.build") if built else 0.0,
        "core.persistence.load_ms": t("extra.core.persistence.load"),
        "core.query.execute_ms": t("core.query.execute"),
        "core.query.self_ms": max(t("core.query.execute") - t("io.device") - crc_ms, 0.0),
        "core.query.records_per_op": c["records_read"] / units,
        "core.query.useful_record_share": ratio(c["records_active"], c["records_read"]),
        "io.device_ms": t("io.device"),
        "io.crc_verify_ms": crc_ms,
        "io.decode_ms": t("io.decode"),
        "io.read_ops_per_op": c["read_ops"] / units,
        "io.seeks_per_op": c["seeks"] / units,
        "io.blocks_read_per_op": c["blocks_read"] / units,
        "io.bytes_read_per_op": c["bytes_read"] / units,
        "io.read_amplification": ratio(c["bytes_read"], c["active_bytes"]),
        "io.blocks_written_per_op": c["blocks_written"] / units,
        "io.bytes_written_per_op": c["bytes_written"] / units,
        "io.cache.hit_rate": ratio(c["cache_hits"], c["cache_hits"] + c["cache_misses"]),
        "io.cache.evictions_per_op": c["cache_evictions"] / units,
        "mc.batch_ms": t("mc.batch"),
        "mc.cells_per_op": c["cells"] / units,
        "mc.triangles_per_op": c["triangles"] / units,
        # Served triangle counts include cached replays the kernel never
        # produced, so the rate is only meaningful on the staged paths.
        "mc.mtri_per_s": 0.0 if served else ratio(c["triangles"], total["mc.batch"] * 1e3),
        "mc.active_cell_share": ratio(c["active_cells"], c["cells"]),
        "mc.surface_nets_ms": t("extra.mc.surface_nets"),
        "render.rasterize_ms": t("render.rasterize"),
        "render.us_per_triangle": ratio(total["render.rasterize"] * 1e3, c["rasterized"]),
        "render.triangles_per_frame": ratio(c["rasterized"], c["frames"]),
        "render.composite_ms": t("render.composite"),
        "render.composite_bytes": ratio(c["composite_bytes"], c["frames"]),
        "render.coverage": ratio(c["image_coverage"], c["frames"]),
        "parallel.extract_overhead_ms": overhead,
        "parallel.active_balance_max_over_mean": ratio(c["active_balance"], balance_n),
        "parallel.triangle_balance_max_over_mean": ratio(c["triangle_balance"], balance_n),
        "serve.self_ms_per_request": t("op") - t("parallel.extract") if served else 0.0,
        "serve.extract_calls_per_request": c["extract_calls"] / units,
        "serve.rcache.hit_rate": ratio(c["rcache_hits"], c["rcache_hits"] + c["rcache_misses"]),
        "serve.rcache.mesh_hits_per_request": c["rcache_mesh_hits"] / units,
        "serve.rcache.evictions_per_request": c["rcache_evictions"] / units,
        "serve.coalesced_share": c["coalesced"] / units,
        "serve.shed_share": c["shed"] / units,
        "serve.modeled_latency_p50_ms": c["latency_p50_ms"] / len(counters),
        "obs.closure_share": closure,
        "obs.trace_overhead_share": (traced_p50 - untraced_p50) / untraced_p50,
    })
    return m


def run_one(name: str, seed: int, seconds: float, traced: bool,
            trace_out=None, n_setups: int = N_SETUPS):
    """One workload in this process.  Returns the contract's result dict
    plus an ``info`` block the all-workloads report keeps."""
    from inputs import ensure_inputs
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    paths = ensure_inputs(wl.inputs, CACHE)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=CACHE))
    try:
        if traced:
            e2e, info, st = measure(
                wl, seed, seconds * UNTRACED_SHARE, paths, workdir, 1
            )
            values = trace(wl, st, seconds * (1 - UNTRACED_SHARE),
                           e2e["op_ms_p50"], trace_out)
            kind = "per_layer"
        else:
            values, info, st = measure(wl, seed, seconds, paths, workdir, n_setups)
            kind = "end_to_end"
        wl.teardown(st)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = {
        x["name"]: {"value": float(values[x["name"]]), "unit": x["unit"]}
        for x in SPEC[kind]
    }
    bad = [k for k, v in metrics.items() if not np.isfinite(v["value"])]
    if bad:
        raise RuntimeError(f"non-finite metrics on {name}: {bad}")
    return {
        "correct": info["failed"] == 0,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": metrics,
    }, info


def print_metrics(name: str, result: dict, info: dict) -> None:
    print(f"# {name}: {info['timed_samples']} timed samples over "
          f"{info['passes']} passes ({info['timed_units']} units); "
          f"op_ms_tail is p{info['op_ms_tail_percentile']} "
          f"({info['timed_samples'] * (100 - info['op_ms_tail_percentile']) // 100} "
          f"samples beyond), modeled_tail_ms "
          f"is p{info['modeled_tail_percentile']} of {info['modeled_samples']}; "
          f"oracle: {info['attempted'] - info['failed']}/{info['attempted']} ok")
    for k, v in result["metrics"].items():
        print(f"{name:18s} {k:42s} {v['value']:>16.6g} {v['unit']}")


def run_all(seed: int, seconds: float, out: Path, do_trace: bool) -> int:
    """Every workload in its own fresh child, untraced then traced."""
    report = {"seed": seed, "seconds": seconds, "workloads": {}}
    ok = True
    for w in SPEC["workloads"]:
        entry: dict = {}
        for flag, kind in ((0, "end_to_end"), (1, "per_layer")):
            if flag and not do_trace:
                continue
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", w["name"], "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(flag)]
            if flag:
                cmd += ["--trace-out", str(out.with_suffix(f".{w['name']}.trace.json"))]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(proc.stdout, end="")
                print(f"{w['name']}: exited with {proc.returncode}", file=sys.stderr)
                return proc.returncode
            *lines, last = proc.stdout.strip().splitlines()
            print("\n".join(lines))
            result = json.loads(last)
            ok = ok and result["correct"]
            entry[kind] = result["metrics"]
            if not flag:
                entry.update({k: result[k] for k in ("correct", "attempted", "failed")})
                entry["samples"] = lines[0].lstrip("# ")
        report["workloads"][w["name"]] = entry
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("--seed", type=int, default=12)
    ap.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out", type=Path, help="write the spans here (traced run)")
    ap.add_argument("--out", type=Path, help="all workloads: write the report here")
    ap.add_argument("--no-trace", action="store_true",
                    help="all workloads: skip the traced pass")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        # An installed copy of the package must not stand in for the
        # checkout's: the benchmark measures this tree or nothing.
        print(f"{ROOT}: no src/repro here, nothing to measure", file=sys.stderr)
        return 2
    if args.workload is None:
        if args.out is None:
            ap.error("give --workload (one result line) or --out (all workloads)")
        return run_all(args.seed, args.seconds, args.out, not args.no_trace)
    result, info = run_one(args.workload, args.seed, args.seconds,
                           bool(args.trace), args.trace_out)
    print_metrics(args.workload, result, info)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
