#!/usr/bin/env python3
"""Time-varying exploration (paper Section 5.2, Table 8).

Indexes a window of time steps of the RM-like run — streaming them one
at a time, as the paper's preprocessing scans each step once — then
interactively hops between (step, isovalue) pairs against the in-memory
per-step indexes.

Run:  python examples/timevarying_exploration.py
"""

from __future__ import annotations

from repro import TimeVaryingIndex, rm_time_series
from repro.parallel.node import extract_node


def main() -> None:
    steps = list(range(180, 196))  # the window of the paper's Table 8
    print(f"indexing time steps {steps[0]}..{steps[-1]} on 4 simulated nodes ...")
    tvi = TimeVaryingIndex.from_series(
        rm_time_series(steps, shape=(65, 65, 57), n_steps=270),
        p=4,
    )
    print(
        f"combined in-memory index: {tvi.total_index_size_bytes()} bytes for "
        f"{len(tvi)} steps (paper: 1.6 MiB for 270 full-size steps)\n"
    )

    iso = 70.0
    print(f"{'step':>5} {'active MC':>10} {'triangles':>10}  per-node active metacells")
    for t in steps:
        nodes = [extract_node(ds, iso)[0] for ds in tvi.datasets(t)]
        amc = [m.n_active_metacells for m in nodes]
        print(f"{t:>5} {sum(amc):>10} {sum(m.n_triangles for m in nodes):>10}  {amc}")

    print(
        "\nper-step work grows as the mixing layer thickens; each row is "
        "answered by 4 independent node-local queries with zero "
        "inter-node communication."
    )


if __name__ == "__main__":
    main()
