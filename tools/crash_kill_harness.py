#!/usr/bin/env python
"""Randomized crash-kill harness for the journaled builder.

Repeatedly kills :func:`repro.core.persistence.build_persistent_dataset`
— from an in-memory volume or, for the ``"slabs"`` config, from a
:class:`~repro.core.builder.FunctionSlabSource` that hands it one
metacell layer at a time; and, for the striped and time-series configs,
:func:`~repro.core.persistence.build_persistent_striped` into the
``step_<t>/node_<q>/`` layout of a
:class:`~repro.core.timevarying.TimeVaryingIndex` directory — at
randomized journal/commit points (via
:class:`repro.io.faults.CrashSchedule`), resumes the build, and asserts
the resumed artifacts are **byte-identical** to an uninterrupted
reference build — then runs a deep verify (the fsck core) on every node
directory of the result.

Three trial flavors, mixed by seeded RNG:

soft
    In-process ``SimulatedCrash`` at one kill point, then resume.
    Cheapest; covers every commit-protocol state transition.
double
    Two crashes — the second lands *during the resume* — then a final
    resume.  Exercises journal replay of a journal that was itself
    written by a resumed build.
hard
    A forked child runs the build and dies with ``os._exit(137)`` at
    the kill point (``CrashSchedule(hard=True)``) — a genuine process
    kill, no Python unwinding, no ``finally`` blocks.  The parent
    reaps it and resumes.

Usage::

    PYTHONPATH=src python tools/crash_kill_harness.py --trials 200 \
        --seed 7 --json out/crash_harness.json

Exit status 0 iff every trial resumed byte-identically and verified
clean.  The JSON report is CI-artifact-friendly: per-trial records plus
a summary block.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.chaos.engine import kill_schedule  # noqa: E402
from repro.core.builder import FunctionSlabSource  # noqa: E402
from repro.core.journal import JOURNAL_FILE  # noqa: E402
from repro.core.persistence import (  # noqa: E402
    BRICKS_FILE,
    INDEX_FILE,
    META_FILE,
    build_persistent_dataset,
    build_persistent_striped,
)
from repro.core.timevarying import TimeVaryingIndex  # noqa: E402
from repro.core.validation import verify_dataset  # noqa: E402
from repro.grid.volume import Volume  # noqa: E402
from repro.io.faults import CrashSchedule, SimulatedCrash  # noqa: E402

#: Artifacts whose bytes must match the reference build exactly.
ARTIFACTS = (BRICKS_FILE, INDEX_FILE, META_FILE)

#: (volume shape, metacell shape, group_records, volume seed, layout) —
#: differently-shaped builds so kill points land across varied group
#: counts and partial-tail sizes.  ``layout`` ``None`` is the flat serial
#: build of an in-memory ``Volume``; ``"slabs"`` the flat serial build of
#: the same kind of volume streamed as a multi-slab source (records
#: written out of layout order, its reference also checked against the
#: ``Volume`` build); ``(steps, p)`` is a series of ``steps`` time steps
#: (volume seeds ``seed``, ``seed + 1``, ...) each striped over ``p``
#: nodes, its kill points those of all ``steps * p`` node builds in order.
CONFIGS = (
    ((25, 25, 21), (5, 5, 5), 32, 11, None),
    ((33, 33, 29), (5, 5, 5), 48, 12, None),
    ((17, 17, 17), (4, 4, 4), 16, 13, None),
    ((17, 17, 17), (4, 4, 4), 16, 14, (1, 3)),
    ((17, 17, 17), (4, 4, 4), 32, 15, (2, 2)),
    ((25, 21, 19), (4, 4, 4), 16, 16, "slabs"),
)


def make_volume(shape, seed) -> Volume:
    zz, yy, xx = np.meshgrid(
        *(np.linspace(-1.0, 1.0, s) for s in shape), indexing="ij"
    )
    rng = np.random.default_rng(seed)
    data = (
        np.sqrt(xx**2 + yy**2 + zz**2) + 0.05 * rng.standard_normal(shape)
    ).astype(np.float32)
    return Volume(data)


def artifact_hashes(directory: Path) -> "dict[str, str]":
    """Digest of every artifact under ``directory``, by relative path."""
    return {
        str(path.relative_to(directory)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.rglob("*"))
        if path.name in ARTIFACTS
    }


def slab_source(volume: Volume) -> FunctionSlabSource:
    """``volume`` served one metacell layer at a time, each a fresh array."""
    return FunctionSlabSource(
        lambda x0, x1: volume.data[x0:x1].copy(), volume.shape, volume.dtype,
        name=volume.name,
    )


def build(ref: dict, directory: Path, crash=None) -> list:
    """One build of config ``ref`` into ``directory``; its node datasets."""
    knobs = {"group_records": ref["gr"], "crash": crash}
    if not isinstance(ref["layout"], tuple):
        volume = ref["volumes"][0]
        if ref["layout"] == "slabs":
            volume = slab_source(volume)
        return [build_persistent_dataset(volume, directory, ref["mc"], **knobs)]
    return [
        ds
        for t, volume in enumerate(ref["volumes"])
        for ds in build_persistent_striped(
            volume, directory / f"step_{t:04d}", ref["layout"][1], ref["mc"],
            **knobs,
        )
    ]


def run_to_crash(ref: dict, directory: Path, kill_at: int, hard: bool) -> bool:
    """One killed build attempt; returns True iff the kill fired."""
    if hard:
        pid = os.fork()
        if pid == 0:  # child: die for real at the kill point
            try:
                build(ref, directory, CrashSchedule(kill_at=kill_at, hard=True))
            finally:  # pragma: no cover - only if the point never fired
                os._exit(0)
        _, status = os.waitpid(pid, 0)
        return os.waitstatus_to_exitcode(status) == 137
    try:
        build(ref, directory, CrashSchedule(kill_at=kill_at))
        return False
    except SimulatedCrash:
        return True


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trials", type=int, default=200,
                    help="total randomized kill trials (default 200)")
    ap.add_argument("--seed", type=int, default=7,
                    help="RNG seed for kill-point selection")
    ap.add_argument("--hard-every", type=int, default=10,
                    help="every Nth trial forks + SIGKILL-kills a real "
                         "child process (0 disables; default 10)")
    ap.add_argument("--double-every", type=int, default=5,
                    help="every Nth trial crashes again during resume "
                         "(0 disables; default 5)")
    ap.add_argument("--json", type=Path, default=None,
                    help="write machine-readable report here")
    ap.add_argument("--quiet", action="store_true")
    args = ap.parse_args(argv)

    t_start = time.perf_counter()
    trials: "list[dict]" = []
    failures = 0

    with tempfile.TemporaryDirectory(prefix="crash_harness_") as root:
        root = Path(root)
        # Per config: an uninterrupted reference build + its hashes and
        # the size of the kill-point space.
        refs = []
        for ci, (shape, mc, gr, vseed, layout) in enumerate(CONFIGS):
            ref = {
                "volumes": [
                    make_volume(shape, vseed + t)
                    for t in range(layout[0] if isinstance(layout, tuple) else 1)
                ],
                "mc": mc,
                "gr": gr,
                "layout": layout,
            }
            probe = CrashSchedule(kill_at=None)
            for ds in build(ref, root / f"ref{ci}", probe):
                ds.device.close()
            ref["hashes"] = artifact_hashes(root / f"ref{ci}")
            ref["n_points"] = probe.points_seen
            if layout == "slabs":
                # The streamed reference must be the in-memory build.
                volume_ref = root / f"ref{ci}_volume"
                build_persistent_dataset(
                    ref["volumes"][0], volume_ref, mc, group_records=gr
                ).device.close()
                if artifact_hashes(volume_ref) != ref["hashes"]:
                    print(f"FAIL config {ci}: slab build differs from the "
                          f"Volume build", file=sys.stderr)
                    failures += 1
            refs.append(ref)
            if not args.quiet:
                print(f"config {ci}: shape={shape} layout={layout} "
                      f"kill points={probe.points_seen}")

        trial_dir = root / "trial"
        # The kill schedule comes from the chaos engine's scheduler —
        # one seeded drawing shared with `repro chaos`, so the same
        # (seed, trials) pair replays the same kills everywhere.
        schedule = kill_schedule(
            args.seed, args.trials, [ref["n_points"] for ref in refs],
            hard_every=args.hard_every, double_every=args.double_every,
        )
        for kt in schedule:
            t = kt.trial
            ref = refs[kt.config_index]

            shutil.rmtree(trial_dir, ignore_errors=True)
            fired = run_to_crash(ref, trial_dir, kt.kill_at, kt.hard)
            if kt.double:
                # Crash again while *resuming*; any surviving point works.
                run_to_crash(ref, trial_dir, kt.second_kill, False)
            datasets = build(ref, trial_dir)
            identical = artifact_hashes(trial_dir) == ref["hashes"]
            clean = all(verify_dataset(ds, deep=True).ok for ds in datasets)
            for ds in datasets:
                ds.device.close()
            if isinstance(ref["layout"], tuple):
                # The node directories are a loadable series.
                series = TimeVaryingIndex.load(trial_dir)
                clean = clean and len(series) == len(ref["volumes"])
                series.close()
            journal_gone = not list(trial_dir.rglob(JOURNAL_FILE))
            ok = identical and clean and journal_gone
            failures += 0 if ok else 1
            trials.append({
                "trial": t,
                "config": kt.config_index,
                "kill_at": kt.kill_at,
                "mode": "hard" if kt.hard else ("double" if kt.double else "soft"),
                "second_kill": kt.second_kill,
                "crash_fired": bool(fired),
                "byte_identical": bool(identical),
                "fsck_clean": bool(clean),
                "journal_gone": bool(journal_gone),
                "ok": bool(ok),
            })
            if not ok:
                print(f"FAIL trial {t}: config={kt.config_index} "
                      f"kill_at={kt.kill_at} mode={trials[-1]['mode']} "
                      f"identical={identical} clean={clean}", file=sys.stderr)
            elif not args.quiet and (t + 1) % 50 == 0:
                print(f"  {t + 1}/{args.trials} trials ok")

    elapsed = time.perf_counter() - t_start
    summary = {
        "trials": args.trials,
        "seed": args.seed,
        "failures": failures,
        "modes": {
            m: sum(1 for tr in trials if tr["mode"] == m)
            for m in ("soft", "double", "hard")
        },
        "crashes_fired": sum(1 for tr in trials if tr["crash_fired"]),
        "elapsed_seconds": round(elapsed, 3),
        "configs": [
            {"shape": list(shape), "metacell": list(mc),
             "group_records": gr, "layout": layout,
             "kill_points": refs[ci]["n_points"]}
            for ci, (shape, mc, gr, _s, layout) in enumerate(CONFIGS)
        ],
    }
    if args.json is not None:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(
            json.dumps({"summary": summary, "trials": trials}, indent=2)
        )
    print(f"crash harness: {args.trials - failures}/{args.trials} trials "
          f"byte-identical + fsck-clean in {elapsed:.1f}s "
          f"({summary['modes']})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
