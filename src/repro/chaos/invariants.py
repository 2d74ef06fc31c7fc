"""Invariant oracles asserted after every chaos trial.

An oracle is a named function ``(TrialContext) -> list[Violation]``
registered in :data:`ORACLES`.  The chaos engine runs every registered
oracle after each trial; a trial passes only when *all* oracles return
empty.  Oracles judge the workload's **outcome** — they never inspect
the engine's own bookkeeping, so a bug in scheduling cannot mask a bug
in the system under test.

The stock catalog (one per correctness contract the repo already
documents in ``docs/robustness.md``):

``ok-bit-identity``
    Every request that terminated ``ok`` produced exactly the
    fault-free reference triangle count for its isovalue — through any
    number of kills, migrations, retries, and partitions.
``terminal-states``
    Every request reached exactly one terminal state, the record stream
    matches the trace's request ids one-to-one, and the per-state
    counts sum to the request count (nothing dropped, nothing
    double-terminated).
``no-stale-cache``
    After epoch churn, the λ-keyed result cache holds only entries
    fenced to the *final* ownership epoch — a stale hit would be a
    silent wrong answer, the one thing chaos must never produce.
``balance``
    The paper's per-λ load-balance bound holds after every completed
    rebalance and in the final membership state.
``coverage``
    Coverage accounting is consistent with the terminal state:
    ``ok`` ⇒ full coverage, ``shed`` ⇒ zero, everything in ``[0, 1]``.

Test-only oracles may be registered (and must be unregistered) via
:func:`register_oracle` / :func:`unregister_oracle` — the planted-bug
acceptance test does exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Terminal states a served request may end in (mirrors
#: ``repro.serve.TERMINAL_STATES``; restated here so stub contexts in
#: oracle unit tests need no serve import).
TERMINAL_STATES = ("ok", "degraded", "shed", "failed")


@dataclass(frozen=True)
class Violation:
    """One oracle failure: which contract broke and how."""

    oracle: str
    message: str
    request_id: "int | None" = None

    def as_dict(self) -> dict:
        d = {"oracle": self.oracle, "message": self.message}
        if self.request_id is not None:
            d["request_id"] = self.request_id
        return d


@dataclass
class TrialContext:
    """Everything an oracle may inspect about a finished trial.

    Oracles access fields defensively (``getattr`` with defaults) so
    unit tests can judge hand-built stub contexts without running a
    full workload.
    """

    spec: object = None
    schedule: "list" = field(default_factory=list)
    cluster: object = None
    controller: object = None
    trace: object = None
    report: object = None
    reference: "dict" = field(default_factory=dict)


#: The oracle registry: name -> callable(ctx) -> list[Violation].
ORACLES: "dict[str, object]" = {}


def register_oracle(name: str, fn=None):
    """Register an oracle (usable as ``@register_oracle("name")``)."""
    if fn is None:
        def deco(f):
            ORACLES[name] = f
            return f
        return deco
    ORACLES[name] = fn
    return fn


def unregister_oracle(name: str) -> None:
    ORACLES.pop(name, None)


def run_oracles(ctx: TrialContext, names=None) -> "list[Violation]":
    """Run the named oracles (default: all registered) in sorted-name
    order and concatenate their violations."""
    selected = sorted(ORACLES) if names is None else list(names)
    out: "list[Violation]" = []
    for name in selected:
        out.extend(ORACLES[name](ctx))
    return out


# -- the stock catalog ------------------------------------------------------


@register_oracle("ok-bit-identity")
def _ok_bit_identity(ctx) -> "list[Violation]":
    report = getattr(ctx, "report", None)
    reference = getattr(ctx, "reference", None) or {}
    if report is None or not reference:
        return []
    out = []
    for r in report.by_state("ok"):
        want = reference.get(r.lam)
        if want is not None and r.triangles != want:
            out.append(Violation(
                "ok-bit-identity",
                f"ok request {r.request_id} (λ={r.lam}) returned "
                f"{r.triangles} triangles, reference is {want}",
                request_id=r.request_id,
            ))
    return out


@register_oracle("terminal-states")
def _terminal_states(ctx) -> "list[Violation]":
    report = getattr(ctx, "report", None)
    trace = getattr(ctx, "trace", None)
    if report is None:
        return []
    out = []
    for r in report.records:
        if r.state not in TERMINAL_STATES:
            out.append(Violation(
                "terminal-states",
                f"request {r.request_id} ended in non-terminal state "
                f"{r.state!r}",
                request_id=r.request_id,
            ))
    counts = sum(len(report.by_state(s)) for s in TERMINAL_STATES)
    if counts != report.n_requests:
        out.append(Violation(
            "terminal-states",
            f"state counts sum to {counts}, expected {report.n_requests}",
        ))
    if trace is not None:
        got = [r.request_id for r in report.records]
        want = [q.request_id for q in trace.requests]
        if got != want:
            out.append(Violation(
                "terminal-states",
                f"record ids diverge from trace: {len(got)} records for "
                f"{len(want)} requests",
            ))
    return out


@register_oracle("no-stale-cache")
def _no_stale_cache(ctx) -> "list[Violation]":
    cluster = getattr(ctx, "cluster", None)
    cache = getattr(cluster, "result_cache", None)
    if cache is None:
        return []
    epoch = cluster.ownership.epoch
    out = []
    for key in list(cache._lru):
        if key[2] != epoch:
            out.append(Violation(
                "no-stale-cache",
                f"result-cache entry {key[:3]} outlived epoch bump to "
                f"{epoch}",
            ))
    return out


@register_oracle("balance")
def _balance(ctx) -> "list[Violation]":
    controller = getattr(ctx, "controller", None)
    cluster = getattr(ctx, "cluster", None)
    if controller is None or cluster is None:
        return []
    out = []
    for ev in getattr(controller, "rebalance_events", []):
        if not ev.balance.ok:
            out.append(Violation(
                "balance",
                f"load-balance bound violated after rebalance finished at "
                f"{ev.finished:.4f}s (epoch {ev.epoch}): spread "
                f"{ev.balance.assignment_spread}",
            ))
    from repro.elastic import check_balance

    isovalues = tuple(getattr(controller, "balance_isovalues", ()))
    final = check_balance(cluster, isovalues)
    if not final.ok:
        out.append(Violation(
            "balance",
            f"final load balance violated: spread {final.assignment_spread}",
        ))
    return out


@register_oracle("coverage")
def _coverage(ctx) -> "list[Violation]":
    report = getattr(ctx, "report", None)
    if report is None:
        return []
    out = []
    for r in report.records:
        if not 0.0 <= r.coverage <= 1.0:
            out.append(Violation(
                "coverage",
                f"request {r.request_id} has coverage {r.coverage} "
                f"outside [0, 1]",
                request_id=r.request_id,
            ))
        elif r.state == "ok" and r.coverage != 1.0:
            out.append(Violation(
                "coverage",
                f"request {r.request_id} is ok with coverage "
                f"{r.coverage} != 1",
                request_id=r.request_id,
            ))
        elif r.state == "shed" and r.coverage != 0.0:
            out.append(Violation(
                "coverage",
                f"request {r.request_id} was shed yet reports coverage "
                f"{r.coverage}",
                request_id=r.request_id,
            ))
    return out
