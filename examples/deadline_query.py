#!/usr/bin/env python3
"""Deadline-bounded extraction: hedged reads, speculation, and health.

One node of a replicated (r=2) cluster gets a disk that stalls: a
seeded fault plan injects half-second latency spikes on a quarter of
its reads.  The same deadline-bounded query then runs three ways:

1. **no hedging** — the spiky node blows its stage budget, its query is
   cut off at the deadline, and the result comes back *partial*:
   coverage < 100%, the skipped span-space bricks listed, the deadline
   report marked missed;
2. **hedged reads** — each read whose primary attempt exceeds the
   latency-quantile threshold is re-issued against the chained-
   declustering replica and the first completion wins.  Spikes are
   absorbed, the deadline holds, and the image is **bit-identical** to
   a healthy run;
3. **straggler speculation** — with hedging disabled but speculation
   on, the straggler's whole query is re-executed on the replica host
   at the stage-budget mark, again bit-identical and inside budget.

Finally the health state machine watches repeated queries against the
spiky node: it goes suspect, the circuit opens, queries route around it
proactively, and a half-open probe checks for recovery.

Run:  python examples/deadline_query.py
"""

from __future__ import annotations

import numpy as np

from repro import sphere_field
from repro.io.faults import FaultPlan, HedgePolicy
from repro.parallel.cluster import ExtractRequest, SimulatedCluster

ISO = 0.5
SHAPE = (24, 24, 24)
METACELL = (5, 5, 5)
VICTIM = 2
SPIKES = FaultPlan(seed=1, latency_spike_rate=0.25, latency_spike_seconds=0.5)


def build(plan=None) -> SimulatedCluster:
    plans = {VICTIM: plan} if plan else None
    return SimulatedCluster(
        sphere_field(SHAPE), p=4, metacell_shape=METACELL,
        replication=2, fault_plans=plans,
    )


def main() -> None:
    healthy = build().extract(ISO, ExtractRequest(render=True))
    budget = healthy.total_time * 3
    print(f"healthy run: {healthy.n_triangles} triangles in "
          f"{healthy.total_time * 1e3:.1f} ms modeled; "
          f"deadline budget {budget * 1e3:.1f} ms")

    print(f"\n=== 1. spiky node {VICTIM}, no hedging: deadline-partial ===")
    partial = build(SPIKES).extract(ISO, ExtractRequest(
        render=True, deadline=budget, hedge=None, speculate=False,
    ))
    dl = partial.deadline
    assert not dl.met and partial.degraded
    print(f"  coverage {partial.coverage:.1%}, deadline "
          f"{'met' if dl.met else 'MISSED'}, expired nodes {dl.expired_nodes}")
    print(f"  skipped span-space bricks: {partial.skipped_bricks}")

    print(f"\n=== 2. same faults, hedged reads: deadline met ===")
    hedged = build(SPIKES).extract(ISO, ExtractRequest(
        render=True, deadline=budget, hedge=HedgePolicy(), speculate=False,
    ))
    assert hedged.deadline.met and not hedged.degraded
    assert np.array_equal(hedged.image.color, healthy.image.color)
    assert np.array_equal(hedged.image.depth, healthy.image.depth)
    print(f"  {hedged.n_hedged_reads} hedged reads, "
          f"{hedged.n_hedge_wins} replica wins")
    print(f"  coverage {hedged.coverage:.1%} in {hedged.total_time * 1e3:.1f} "
          f"of {budget * 1e3:.1f} ms — image bit-identical to healthy run")

    print(f"\n=== 3. same faults, speculation instead of hedging ===")
    spiky = FaultPlan(seed=7, latency_spike_rate=0.25, latency_spike_seconds=0.5)
    spec = build(spiky).extract(ISO, ExtractRequest(
        render=True, deadline=budget, hedge=None, speculate=True,
    ))
    assert spec.deadline.met and not spec.degraded
    assert np.array_equal(spec.image.color, healthy.image.color)
    print(f"  straggler {spec.deadline.expired_nodes} re-executed on replica "
          f"host {spec.nodes[VICTIM].speculated_to} at the "
          f"{spec.deadline.node_budget * 1e3:.1f} ms mark")
    print(f"  coverage {spec.coverage:.1%} in {spec.total_time * 1e3:.1f} ms "
          f"— image bit-identical again")

    print(f"\n=== 4. the health circuit breaker learns ===")
    cluster = build(FaultPlan(seed=3, latency_spike_rate=0.6,
                              latency_spike_seconds=0.2))
    for i in range(5):
        r = cluster.extract(ISO)
        routed = [m.node_rank for m in r.nodes if m.circuit_open]
        state = cluster.health.state(VICTIM)
        note = f" (routed around {routed})" if routed else ""
        print(f"  query {i + 1}: node {VICTIM} is {state}{note}")
    print()
    print(cluster.health.report())


if __name__ == "__main__":
    main()
