"""Compare two sets of benchmark reports, one row per (workload, metric).

    python3 benchmarks/e2e/compare.py A.json [A2.json ...] -- B.json [B2.json ...]

Each file is a report written by ``run.py --out``.  ``A`` is the parent
(or the first set of runs of one commit), ``B`` the change (or the second
set).  For every end-to-end metric of every workload the table gives each
side's median and quartiles and one verdict against the bound in
``BENCHMARK.json``:

``ok``
    B's median is no worse than A's by more than the bound.
``regressed``
    it is worse by more than the bound.
``unresolved``
    the run-to-run spread (the wider interquartile range of the two
    sides, over A's median) exceeds the bound, so the runs cannot tell —
    unless every run of B reads better than every run of A, which is
    ``ok``.

Metrics that the program counts rather than times (the modeled clock,
I/O blocks, stored bytes, ``ok_share``) repeat exactly for one commit and
one seed, so when both sides ran the same seeds they are compared seed by
seed and must be identical: any worsening is ``regressed``.

Exit status 1 when any row is ``regressed``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)
#: Counted, not timed: identical for the same commit and seed.
EXACT = {"ok_share", "modeled_ms_per_op", "modeled_tail_ms",
         "io_blocks_per_op", "stored_bytes_per_volume_byte"}


def quartiles(values: "list[float]") -> "tuple[float, float, float]":
    """(q1, median, q3); a single run is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a`` (negative
    when it is better)."""
    delta = (b - a) / abs(a) if a else 0.0
    return delta if better == "lower" else -delta


def verdict(a, b, qa, qb, seeds_a, seeds_b, metric) -> "tuple[str, float, float]":
    name, better, bound = metric["name"], metric["better"], metric["bound"]
    change = worse_by(qa[1], qb[1], better)
    spread = max(qa[2] - qa[0], qb[2] - qb[0]) / abs(qa[1]) if qa[1] else 0.0
    if name in EXACT and set(seeds_a) == set(seeds_b):
        worst = max(
            worse_by(x, y, better)
            for x, sx in zip(a, seeds_a) for y, sy in zip(b, seeds_b) if sx == sy
        )
        return ("regressed" if worst > 0 else "ok"), change, spread
    if spread > bound:
        all_better = all(
            worse_by(x, y, better) < 0 for x in a for y in b
        )
        return ("ok" if all_better else "unresolved"), change, spread
    return ("regressed" if change > bound else "ok"), change, spread


def load(paths) -> "tuple[list[int], dict]":
    """Seeds and ``workload -> metric -> [value per file]`` of one side."""
    seeds, table = [], {}
    for path in paths:
        report = json.loads(Path(path).read_text())
        seeds.append(report["seed"])
        for w, entry in report["workloads"].items():
            for m, v in entry["end_to_end"].items():
                table.setdefault(w, {}).setdefault(m, []).append(v["value"])
    return seeds, table


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--" not in argv or not argv.index("--") or argv[-1] == "--":
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    cut = argv.index("--")
    seeds_a, side_a = load(argv[:cut])
    seeds_b, side_b = load(argv[cut + 1:])
    fmt = "{:17s} {:29s} {:>11s} {:>23s} {:>11s} {:>23s} {:>8s} {:>7s} {:>6s}  {}"
    print(fmt.format("workload", "metric", "A median", "[q1, q3]", "B median",
                     "[q1, q3]", "worse", "spread", "bound", "verdict"))
    regressed = 0
    for w in SPEC["workloads"]:
        for metric in SPEC["end_to_end"]:
            a = side_a.get(w["name"], {}).get(metric["name"])
            b = side_b.get(w["name"], {}).get(metric["name"])
            if not a or not b:
                continue
            qa, qb = quartiles(a), quartiles(b)
            status, change, spread = verdict(a, b, qa, qb, seeds_a, seeds_b, metric)
            regressed += status == "regressed"
            print(fmt.format(
                w["name"], f"{metric['name']} ({metric['unit']})",
                f"{qa[1]:.5g}", f"[{qa[0]:.5g}, {qa[2]:.5g}]",
                f"{qb[1]:.5g}", f"[{qb[0]:.5g}, {qb[2]:.5g}]",
                f"{change:+.1%}", f"{spread:.1%}", f"{metric['bound']:.1%}",
                status,
            ))
    print(f"{len(seeds_a)} run(s) of A (seeds {seeds_a}), "
          f"{len(seeds_b)} of B (seeds {seeds_b}); {regressed} regressed")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
