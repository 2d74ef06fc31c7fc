"""Benchmark inputs: generated out of process, handed over as ``.npy``,
pinned by sha256.

The volumes are time steps of the repo's procedural Richtmyer-Meshkov
stand-in, ``RMInstabilityModel(shape, n_steps=270, seed=7).evaluate(step)``
(the model's own seed is fixed; the benchmark's ``--seed`` shapes the
*requests* made against these volumes, see ``workloads.py``).  The
generator peaks above 1 GB RSS for the 6.6 MB volume, so it runs in a
child process and the workload process only ever ``np.load``s the result:
its ``peak_rss_mb`` is the program's, not the generator's.

Generated files are kept in the checkout's ``.e2e_cache/`` (git-ignored)
so the ~100 runs a comparison makes pay the generator once.  Every run
re-hashes what it is about to load; a file that does not match its pin
is regenerated, and a regenerated file that still does not match aborts
the run: numbers from drifted inputs are not comparable, so none are
produced.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
PINS_FILE = HERE / "pins.json"

#: name -> (vertex shape, RM time step).  Frozen with this benchmark.
INPUTS = {
    "rm250_193": ((193, 193, 177), 250),
    "rm130_193": ((193, 193, 177), 130),
    "rm250_49": ((49, 49, 45), 250),
    "rm250_25": ((25, 17, 41), 250),
}


class InputDrift(RuntimeError):
    """A generated input does not match its pinned digest."""


def array_digest(data: np.ndarray) -> str:
    h = hashlib.sha256()
    h.update(f"{data.dtype.str}{data.shape}".encode())
    h.update(np.ascontiguousarray(data))
    return h.hexdigest()


def load_pins() -> "dict[str, str]":
    return json.loads(PINS_FILE.read_text())


def _generate(name: str, out_dir: Path) -> None:
    """Child-process body: evaluate one input and publish it atomically."""
    from repro.grid.rm_instability import RMInstabilityModel

    shape, step = INPUTS[name]
    data = RMInstabilityModel(shape, n_steps=270, seed=7).evaluate(step).data
    tmp = out_dir / f"{name}.{os.getpid()}.tmp"
    with open(tmp, "wb") as fh:
        np.save(fh, data)
    os.replace(tmp, out_dir / f"{name}.npy")


def _matches(path: Path, pin: str) -> bool:
    return path.exists() and array_digest(np.load(path)) == pin


def ensure_inputs(names, cache_dir: Path) -> "dict[str, Path]":
    """Paths of the named inputs, generating (in a child) what is missing
    and verifying every one against its pin."""
    pins = load_pins()
    cache_dir.mkdir(parents=True, exist_ok=True)
    paths = {n: cache_dir / f"{n}.npy" for n in names}
    missing = [n for n in names if not _matches(paths[n], pins[n])]
    if missing:
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--out-dir", str(cache_dir), *missing],
            check=True,
        )
    for n in missing:
        got = array_digest(np.load(paths[n]))
        if got != pins[n]:
            raise InputDrift(
                f"input {n!r} (RM step {INPUTS[n][1]} at {INPUTS[n][0]}) "
                f"hashes to {got[:16]}..., pinned {pins[n][:16]}...: the "
                f"generator or numpy changed, so results would not be "
                f"comparable with earlier runs.  Refusing to measure."
            )
    return paths


def load_volume(name: str, paths: "dict[str, Path]"):
    from repro.grid.volume import Volume

    return Volume(np.load(paths[name]), name=name)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("names", nargs="*", help=f"default: all of {list(INPUTS)}")
    ap.add_argument("--out-dir", type=Path, required=True)
    ap.add_argument(
        "--pin", action="store_true",
        help="rewrite pins.json from the files just generated (only when "
             "the input definition is changed on purpose)",
    )
    args = ap.parse_args(argv)
    sys.path.insert(0, str(HERE.parents[1] / "src"))
    args.out_dir.mkdir(parents=True, exist_ok=True)
    names = args.names or list(INPUTS)
    for name in names:
        _generate(name, args.out_dir)
    if args.pin:
        pins = {
            n: array_digest(np.load(args.out_dir / f"{n}.npy")) for n in names
        }
        PINS_FILE.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
