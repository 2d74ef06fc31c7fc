"""Chaos soak: composed-fault trials with zero invariant violations.

The acceptance scenario from docs/robustness.md ("Chaos testing"):
every trial draws a composed fault schedule — a node kill, a storage
fault burst, a scale waypoint, and a network partition — from its
seed, runs the three-tenant burst workload on an elastic cluster with
per-link network faults active, and judges the outcome with the full
oracle catalog.  The soak asserts:

* **zero oracle violations** across every trial — bit-identity of
  ``ok`` results, exactly-one terminal state, no stale cache entries
  across epoch bumps, the load-balance bound after every rebalance,
  coverage-accounting identity;
* **chaos actually happened** — the trials collectively killed nodes,
  aborted migrations across partitions, dropped/duplicated/reordered
  messages (the soak is vacuous if the schedules are no-ops);
* **byte-identical determinism** — re-running a seed yields an
  identical trial result, which is what makes a failing seed a repro.

Trial count here is CI-tier (the dedicated ``chaos-soak`` job runs the
standalone harness at 300+ trials); ``REPRO_CHAOS_TRIALS`` overrides.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace

from repro.bench.harness import emit_bench_json
from repro.chaos import ChaosEngine, ChaosSpec
from repro.obs.metrics import MetricsRegistry

SEED = 2000
TRIALS = int(os.environ.get("REPRO_CHAOS_TRIALS", "25"))


def test_chaos_soak(cfg):
    registry = MetricsRegistry()
    engine = ChaosEngine(metrics=registry)
    base = ChaosSpec(seed=SEED)

    results = engine.run_trials(base, TRIALS)
    assert len(results) == TRIALS

    violations = [
        (r.seed, v) for r in results for v in r.violations
    ]
    assert not violations, (
        f"{len(violations)} invariant violation(s): " + "; ".join(
            f"seed {s} [{v.oracle}] {v.message}" for s, v in violations[:5]
        )
    )

    # The soak must not be vacuous: chaos visibly happened.
    states: "dict[str, int]" = {}
    for r in results:
        for k, v in r.states.items():
            states[k] = states.get(k, 0) + v
    assert sum(states.values()) == sum(r.n_requests for r in results)
    metrics = registry.to_dict()
    assert metrics["chaos.trials"] == TRIALS
    assert metrics["chaos.net.messages"] > 0, "network session never engaged"
    assert metrics["chaos.net.dropped"] > 0, "no message was ever dropped"
    assert any(r.final_epoch > 0 for r in results), "no trial ever resharded"
    assert any(r.migrations > 0 for r in results), "no stripe ever moved"

    # A failing seed is only a repro if trials are pure functions of it.
    again = engine.run_trial(replace(base, seed=SEED))
    assert json.dumps(again.as_dict(), sort_keys=True) == json.dumps(
        results[0].as_dict(), sort_keys=True
    ), "same-seed chaos trials diverged"

    bench = {
        "trials": float(TRIALS),
        "violations": 0.0,
        "violating_trials": 0.0,
        "events": float(sum(len(r.schedule) for r in results)),
        "migrations": float(sum(r.migrations for r in results)),
        "migrations_aborted": float(
            sum(r.migrations_aborted for r in results)
        ),
    }
    for state, n in sorted(states.items()):
        bench[f"state_{state}"] = float(n)
    for k, v in metrics.items():
        if k.startswith("chaos.net."):
            bench[k.replace("chaos.net.", "net_")] = float(v)
    extra = {"seed": SEED, "repro_schedules": []}
    emit_bench_json("chaos", bench, scale=cfg.scale, extra=extra)

    print()
    print(f"chaos soak: {TRIALS} trials, "
          f"{int(bench['events'])} events composed, 0 violations")
    print("  states: " + "  ".join(
        f"{k}={v}" for k, v in sorted(states.items())))
    print(f"  net: {int(metrics['chaos.net.messages'])} messages, "
          f"{int(metrics['chaos.net.dropped'])} dropped, "
          f"{int(metrics['chaos.net.duplicates'])} duplicated, "
          f"{int(metrics['chaos.net.reordered'])} reordered, "
          f"{int(metrics['chaos.net.lost'])} lost past retries")
    print(f"  elastic: {int(bench['migrations'])} migrations "
          f"({int(bench['migrations_aborted'])} aborted across partitions)")
