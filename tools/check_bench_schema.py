#!/usr/bin/env python
"""Validate ``BENCH_<name>.json`` bench outputs and merge them.

CI's benchmark-smoke job runs a couple of small benches (each emitting a
``repro-bench/1`` document via the ``bench_record`` fixture), then runs
this checker: every file must validate against the schema in
``repro.bench.harness`` — any drift (missing key, wrong type, stale
schema tag) fails the job — plus the checker's own value sanity gate
(every metric must be a non-NaN, non-negative finite number: the bench
quantities are all counts, rates, or durations, so a negative or NaN
value means a broken bench, not a valid result) — and the validated
payloads are merged into one ``BENCH_smoke.json`` artifact whose
metrics are namespaced ``<bench>.<metric>``.

Usage::

    PYTHONPATH=src python tools/check_bench_schema.py \
        [--out benchmarks/output/BENCH_smoke.json] \
        [--floor NAME=VALUE ...] [--floor-tolerance FRAC] [FILE ...]

With no FILE arguments, checks every ``BENCH_*.json`` under
``benchmarks/output/`` (excluding a previous merged output).

``--floor`` (repeatable) turns the checker into a perf gate: after
validation, metric ``NAME`` — matched against both the bare metric key
and its ``<bench>.<metric>`` namespaced form — must be at least
``VALUE * (1 - tolerance)``.  The tolerance (default 0.15) absorbs
machine-to-machine noise; a regression past it fails the job.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from repro.bench.harness import BENCH_SCHEMA, OUTPUT_DIR, validate_bench_payload


def check_metric_values(payload: dict) -> None:
    """Raise ``ValueError`` on NaN or negative metric values.

    ``validate_bench_payload`` enforces finiteness; this is the
    checker's stricter gate: every published bench metric is a count,
    rate, or duration, so a NaN or a negative value is a bench bug.
    """
    for key, value in payload.get("metrics", {}).items():
        if isinstance(value, float) and math.isnan(value):
            raise ValueError(f"metric {key!r} is NaN")
        if value < 0:
            raise ValueError(f"metric {key!r} is negative: {value!r}")


#: Rows a named payload must carry: a bench that stops emitting one is
#: schema drift even when no ``--floor`` names the row.
REQUIRED_METRICS = {
    "chaos": ("trials", "violations", "violating_trials"),
    "throughput": (
        "mc_batch_mtri_s", "surface_nets_mtri_s", "full_extract_mtri_s",
        "rasterize_flat_mtri_s", "rasterize_smooth_mtri_s",
        "query_sweep_runs_per_s",
    ),
}


def check_required_metrics(payload: dict) -> None:
    """Raise ``ValueError`` when a payload named in
    :data:`REQUIRED_METRICS` lacks one of its rows."""
    name = payload.get("name")
    for key in REQUIRED_METRICS.get(name, ()):
        if key not in payload.get("metrics", {}):
            raise ValueError(f"{name} payload is missing metric {key!r}")


def check_chaos_payload(payload: dict) -> None:
    """Extra gate for the chaos soak payload (``name == "chaos"``).

    The chaos bench is a pass/fail soak, not a perf table: beyond
    carrying its trial accounting (:func:`check_required_metrics`), a
    payload reporting *any* invariant violation is a red build no
    matter what the suite said — the soak can never be merged green
    with a known violation in its artifact.
    """
    if payload.get("name") != "chaos":
        return
    metrics = payload["metrics"]
    if metrics["trials"] <= 0:
        raise ValueError("chaos payload reports zero trials (vacuous soak)")
    if metrics["violations"] > 0 or metrics["violating_trials"] > 0:
        raise ValueError(
            f"chaos payload carries {int(metrics['violations'])} invariant "
            f"violation(s) across {int(metrics['violating_trials'])} "
            f"trial(s); repro schedules: "
            f"{payload.get('extra', {}).get('repro_schedules', [])}"
        )


def parse_floor(spec: str) -> "tuple[str, float]":
    """Split a ``NAME=VALUE`` floor spec (argparse ``type=``)."""
    name, sep, value = spec.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(
            f"floor spec must be NAME=VALUE, got {spec!r}")
    try:
        return name, float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"floor value for {name!r} is not a number: {value!r}")


def check_floors(merged_metrics: "dict[str, float]",
                 floors: "list[tuple[str, float]]",
                 tolerance: float) -> "list[str]":
    """Return one failure line per unmet (or missing) floor.

    Floors match the namespaced ``<bench>.<metric>`` key or, as a
    convenience, the bare metric name when it is unambiguous across the
    checked files.
    """
    failures = []
    for name, floor in floors:
        candidates = [v for k, v in merged_metrics.items()
                      if k == name or k.split(".", 1)[-1] == name]
        if not candidates:
            failures.append(f"floor metric {name!r} not found in any payload")
            continue
        value = min(candidates)
        cut = floor * (1.0 - tolerance)
        if value < cut:
            failures.append(
                f"metric {name!r} = {value:.4g} below floor {floor:.4g} "
                f"(cutoff {cut:.4g} at {tolerance:.0%} tolerance)")
    return failures


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*", type=Path,
                        help="bench JSON files (default: benchmarks/output/BENCH_*.json)")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the merged smoke payload here")
    parser.add_argument("--floor", action="append", default=[],
                        type=parse_floor, metavar="NAME=VALUE",
                        help="require metric NAME >= VALUE*(1-tolerance); repeatable")
    parser.add_argument("--floor-tolerance", type=float, default=0.15,
                        metavar="FRAC",
                        help="fractional slack applied to every floor (default 0.15)")
    args = parser.parse_args(argv)
    if not 0.0 <= args.floor_tolerance < 1.0:
        parser.error("--floor-tolerance must be in [0, 1)")

    files = args.files or sorted(
        p for p in OUTPUT_DIR.glob("BENCH_*.json")
        if args.out is None or p.resolve() != args.out.resolve()
    )
    if not files:
        print("check_bench_schema: no BENCH_*.json files found", file=sys.stderr)
        return 1

    merged_metrics: "dict[str, float]" = {}
    scale = 1
    failures = 0
    for path in files:
        try:
            payload = json.loads(path.read_text())
            validate_bench_payload(payload)
            check_metric_values(payload)
            check_required_metrics(payload)
            check_chaos_payload(payload)
        except (OSError, ValueError) as exc:
            print(f"FAIL {path}: {exc}", file=sys.stderr)
            failures += 1
            continue
        print(f"ok   {path} ({payload['name']}: {len(payload['metrics'])} metrics)")
        scale = max(scale, payload["scale"])
        for key, value in payload["metrics"].items():
            merged_metrics[f"{payload['name']}.{key}"] = value
    if failures:
        print(f"check_bench_schema: {failures}/{len(files)} files failed",
              file=sys.stderr)
        return 1

    floor_failures = check_floors(merged_metrics, args.floor,
                                  args.floor_tolerance)
    if floor_failures:
        for line in floor_failures:
            print(f"FAIL {line}", file=sys.stderr)
        print(f"check_bench_schema: {len(floor_failures)} perf floor(s) unmet",
              file=sys.stderr)
        return 1
    for name, floor in args.floor:
        print(f"ok   floor {name} >= {floor} "
              f"(-{args.floor_tolerance:.0%} tolerance)")

    if args.out is not None:
        merged = {
            "schema": BENCH_SCHEMA,
            "name": "smoke",
            "scale": scale,
            "metrics": merged_metrics,
            "extra": {"sources": [p.name for p in files]},
        }
        validate_bench_payload(merged)
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n")
        print(f"merged {len(files)} payloads -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
