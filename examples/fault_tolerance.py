#!/usr/bin/env python3
"""Fault tolerance walkthrough: checksums, retries, and degraded mode.

Four escalating scenarios on the same synthetic volume:

1. a flaky disk (transient errors + latency spikes) absorbed by the
   bounded retry policy, with the cost visible on the I/O meter;
2. silent bit rot caught by the per-record CRC32 tables and healed by
   extent re-reads when the damage is transient;
3. a node lost mid-query on a replicated (r=2) cluster — the surviving
   replica serves its bricks and the result is bit-identical;
4. the same loss without replication — a graceful partial result
   flagged ``degraded`` instead of a crash.

Run:  python examples/fault_tolerance.py
"""

from __future__ import annotations

import numpy as np

from repro import sphere_field
from repro.core.builder import build_indexed_dataset
from repro.core.query import QueryOptions, execute_query
from repro.io.faults import (
    BrickCorruptionError,
    FaultInjectingDevice,
    FaultPlan,
    RetryPolicy,
)
from repro.parallel.cluster import ExtractRequest, SimulatedCluster

ISO = 0.7
SHAPE = (33, 33, 33)


def flaky_disk(volume) -> None:
    print("=== 1. flaky disk: transient errors + latency spikes ===")
    ds = build_indexed_dataset(volume, (5, 5, 5))
    clean = execute_query(ds, ISO)
    ds2 = build_indexed_dataset(volume, (5, 5, 5))
    ds2.device = FaultInjectingDevice(
        ds2.device,
        FaultPlan(seed=11, transient_error_rate=0.5,
                  latency_spike_rate=0.5, latency_spike_seconds=0.005),
    )
    faulty = execute_query(ds2, ISO)
    assert np.array_equal(faulty.records.ids, clean.records.ids)
    cm = ds.device.cost_model
    print(f"  identical {faulty.n_active} active metacells recovered")
    print(f"  cost of resilience: {faulty.io_stats.retries} retries, "
          f"{faulty.io_stats.fault_delay * 1e3:.1f} ms backoff/spike delay")
    print(f"  modeled read time {clean.io_stats.read_time(cm) * 1e3:.2f} ms "
          f"clean -> {faulty.io_stats.read_time(cm) * 1e3:.2f} ms faulty\n")


def bit_rot(volume) -> None:
    print("=== 2. silent corruption vs the CRC32 tables ===")
    ds = build_indexed_dataset(volume, (5, 5, 5))
    # Probabilistic corruption: each faulty read flips one byte; the
    # re-read repair path heals it because the damage is per-read.
    ds.device = FaultInjectingDevice(
        ds.device, FaultPlan(seed=3, corruption_rate=0.5)
    )
    res = execute_query(ds, ISO)
    print(f"  {res.io_stats.checksum_failures} corrupted records detected, "
          f"all healed by re-reads -> {res.n_active} verified metacells")

    # Persistent media damage inside a record the plan covers: re-reads
    # return the same garbage, so verification escalates to a typed error.
    ds2 = build_indexed_dataset(volume, (5, 5, 5))
    start = ds2.tree.plan_query(ISO).runs[0].start
    ds2.device = FaultInjectingDevice(
        ds2.device,
        FaultPlan(corrupt_extents=((ds2.record_offset(start) + 17, 4),)),
    )
    try:
        execute_query(
            ds2, ISO, QueryOptions(retry_policy=RetryPolicy(max_read_repairs=1))
        )
    except BrickCorruptionError as exc:
        print(f"  persistent damage escalates: {exc}\n")


def replicated_recovery(volume) -> None:
    print("=== 3. node loss with replication (r=2): bit-identical ===")
    healthy = SimulatedCluster(volume, p=4, metacell_shape=(5, 5, 5))
    want = healthy.extract(ISO, ExtractRequest(render=True))
    cluster = SimulatedCluster(
        volume, p=4, metacell_shape=(5, 5, 5), replication=2
    )
    cluster.fail_node(1)
    got = cluster.extract(ISO, ExtractRequest(render=True))
    host = got.nodes[1].served_by
    print(f"  node 1 lost; node {host} served its bricks from the replica")
    print(f"  triangles {got.n_triangles} == healthy {want.n_triangles}: "
          f"{got.n_triangles == want.n_triangles}")
    print(f"  image bit-identical: "
          f"{np.array_equal(got.image.color, want.image.color)}")
    print(f"  degraded={got.degraded}, failed_nodes={got.failed_nodes}\n")


def graceful_degradation(volume) -> None:
    print("=== 4. node loss without replication: graceful partial ===")
    cluster = SimulatedCluster(volume, p=4, metacell_shape=(5, 5, 5))
    cluster.fail_node(2)
    res = cluster.extract(ISO, ExtractRequest(render=True))
    survivors = [m.n_triangles for m in res.nodes]
    print(f"  degraded={res.degraded}, failed_nodes={res.failed_nodes}, "
          f"unrecovered={res.unrecovered_nodes}")
    print(f"  partial surface: {res.n_triangles} triangles from "
          f"per-node counts {survivors}")
    print(f"  partial image still composited: "
          f"{res.image.coverage():.0%} pixel coverage")


def main() -> None:
    volume = sphere_field(SHAPE)
    flaky_disk(volume)
    bit_rot(volume)
    replicated_recovery(volume)
    graceful_degradation(volume)


if __name__ == "__main__":
    main()
