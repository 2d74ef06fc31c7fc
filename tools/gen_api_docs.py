#!/usr/bin/env python3
"""Generate docs/API.md from the package's docstrings.

Walks every module under ``repro``, collecting module summaries and the
signatures + first docstring paragraphs of public classes and functions.
Deterministic output so the file can be committed and diffed.

Run:  python tools/gen_api_docs.py
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import repro  # noqa: E402


def first_paragraph(doc: str | None) -> str:
    if not doc:
        return "(undocumented)"
    paras = inspect.cleandoc(doc).split("\n\n")
    return " ".join(paras[0].split())


def signature_of(obj) -> str:
    try:
        sig = str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(...)"
    # Defaults whose repr embeds a memory address (e.g. the shared
    # NULL_TRACER singleton) would make the output nondeterministic.
    return re.sub(r"<([\w.]+) object at 0x[0-9a-f]+>", r"<\1>", sig)


def public_members(module):
    names = getattr(module, "__all__", None)
    out = []
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if names is not None and name not in names:
            continue
        if inspect.ismodule(obj):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue  # re-exports documented at their home module
        if inspect.isclass(obj) or inspect.isfunction(obj):
            out.append((name, obj))
    return sorted(out)


def class_methods(cls):
    out = []
    for name, obj in vars(cls).items():
        if name.startswith("_") or not callable(obj):
            continue
        if isinstance(obj, (staticmethod, classmethod)):
            obj = obj.__func__
        if inspect.isfunction(obj):
            out.append((name, obj))
    return sorted(out)


def main() -> int:
    lines = [
        "# API reference",
        "",
        "Generated by `tools/gen_api_docs.py` — do not edit by hand.",
        "One-paragraph summaries; see the docstrings for details.",
        "",
        "## The unified request/options API",
        "",
        "Every tunable of a single-node query lives in one frozen",
        "dataclass, `repro.core.query.QueryOptions` (read-ahead, retry",
        "policy, checksum verification, time budget, plus the",
        "observability hooks `tracer=` / `metrics=`); every tunable of a",
        "cluster extraction lives in `repro.parallel.cluster."
        "ExtractRequest` (render, camera, tile layout, deadline, hedge,",
        "speculate, `tracer=`, `metrics=`).  Derive variants with",
        "`dataclasses.replace`:",
        "",
        "```python",
        "from repro import QueryOptions, ExtractRequest, Tracer",
        "",
        "res = execute_query(ds, 128.0, QueryOptions(time_budget=0.05))",
        "tr = Tracer()",
        "out = cluster.extract(128.0, ExtractRequest(render=True, tracer=tr))",
        "```",
        "",
        "That object (or nothing) is the only call form: `execute_query`,",
        "`execute_plan`, `SimulatedCluster.extract` and `sweep` reject",
        "keyword settings and wrong-typed arguments with a `TypeError`.",
        "Both entry points run the same node stage,",
        "`repro.parallel.node.extract_node` (query → triangulate →",
        "account); `IsosurfacePipeline.extract` is its p=1 instantiation.",
        "Traces and metrics live on the modeled clock, so same-seed runs",
        "serialize byte-identically (see `repro.obs` and",
        "docs/PERFMODEL.md).",
        "",
        "## The read path",
        "",
        "There is one read strategy: `execute_plan` walks the plan's",
        "arrays (`start`, `count`, `brick`, `node`, `scan`) in one serial",
        "loop, one metered device read per chunk, on every device stack",
        "(raw, fault-injecting, hedged, cached) — so `IOStats`, deadline",
        "cut points and fault sequences never depend on a knob.  Each",
        "chunk's records verify with one `zlib.crc32` call against the",
        "cumulative CRC table and stay bytes; the query decodes once,",
        "with one `np.frombuffer` over the joined bytes and one mask for",
        "every Case-2 cut (see docs/ALGORITHM.md and docs/PERFMODEL.md).",
        "Triangulation is one inline kernel call",
        "(`repro.mc.backends.triangulate_records`); process parallelism is",
        "per node (`repro.parallel.mp_backend.extract_parallel_mp`).",
        "",
        "## Caching and cross-query result reuse",
        "",
        "Every cache tunable lives in one frozen dataclass,",
        "`repro.io.cache.CacheOptions`: `block_cache_bytes` (per-node LRU",
        "block cache), `result_cache_bytes` (the λ-keyed result cache of",
        "`repro.serve.rcache`), `lambda_bucket` (isovalue bucket width for",
        "request coalescing and the mesh tier's key), and `coalesce`",
        "(attach duplicate in-flight isovalues to the running extraction).",
        "It is accepted by every layer that owns caches — `SimulatedCluster(",
        "cache=...)`, `ElasticCluster(cache=...)`, `ServeConfig(cache=...)` —",
        "and the CLI builds one from `--cache-blocks`, `--result-cache-mb`,",
        "`--lambda-bucket`, and `--no-coalesce` on `cluster`, `serve-sim`,",
        "and `elastic-sim` alike:",
        "",
        "```python",
        "from repro.io.cache import CacheOptions",
        "",
        "cluster = SimulatedCluster(vol, 4, cache=CacheOptions(",
        "    result_cache_bytes=64 << 20, lambda_bucket=0.02))",
        "```",
        "",
        "Cached, coalesced, and sweep-delta answers are bit-identical to",
        "cold extraction, and",
        "every key embeds the ownership epoch so elastic reshards and",
        "failovers fence the cache atomically — see docs/robustness.md,",
        "\"Result reuse\".",
        "",
        "## Pluggable extraction backends",
        "",
        "Triangulation kernels are selected per request through the",
        "registry in `repro.mc.backends`: `QueryOptions(backend=...)`,",
        "`ExtractRequest(backend=...)`, `ServeConfig(backend=...)`, and",
        "`--backend` on the `query`, `cluster`, `serve-sim`, and",
        "`elastic-sim` CLI commands.  `mc-batch` (default) is the exact",
        "Marching Cubes batch kernel; `surface-nets` is the dual kernel in",
        "`repro.mc.surface_nets` — ~2x the triangulation rate, same",
        "topology, not bit-exact MC geometry.  Unknown names fail fast at",
        "options construction with the known names listed.  `batch_chunk=`",
        "tunes the shared streaming chunk size (default 512 cells;",
        "`None` is bit-identical to an explicit 512).  Mesh-tier cache",
        "keys and serve estimates embed the backend name, and",
        "third-party kernels can be registered with",
        "`repro.mc.backends.register_backend`:",
        "",
        "```python",
        "res = pipe.extract(lam, options=QueryOptions(backend='surface-nets'))",
        "out = cluster.extract(lam, ExtractRequest(backend='surface-nets'))",
        "```",
        "",
        "See docs/PERFMODEL.md, \"Extraction kernels\", for the decision",
        "table and the modeled-clock invariants.",
        "",
    ]
    modules = [repro]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        modules.append(importlib.import_module(info.name))
    modules.sort(key=lambda m: m.__name__)

    for module in modules:
        members = public_members(module)
        lines.append(f"## `{module.__name__}`")
        lines.append("")
        lines.append(first_paragraph(module.__doc__))
        lines.append("")
        for name, obj in members:
            kind = "class" if inspect.isclass(obj) else "def"
            lines.append(f"### `{kind} {name}{signature_of(obj)}`")
            lines.append("")
            lines.append(first_paragraph(obj.__doc__))
            lines.append("")
            if inspect.isclass(obj):
                for mname, mobj in class_methods(obj):
                    lines.append(
                        f"* `.{mname}{signature_of(mobj)}` — "
                        f"{first_paragraph(mobj.__doc__)}"
                    )
                if class_methods(obj):
                    lines.append("")
    out = ROOT / "docs" / "API.md"
    out.write_text("\n".join(lines))
    print(f"wrote {out} ({len(lines)} lines, {len(modules)} modules)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
