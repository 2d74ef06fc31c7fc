"""Design-budget ratchet for the extraction data path, the query planner,
the rasterizer, the preprocessing scan pass, the store writer and the two
extraction kernels (AST walk, no imports of the code under test).

Six budgets, each of which some earlier state of the code blew
(``SimulatedCluster.extract`` had 433 body lines and a ``**legacy_kwargs``
catch-all; ``core/query.py`` carried a second, knob-selected read
strategy and ``parallel/`` a knob-selected shared-memory executor;
``build_persistent_dataset`` had 184 body lines and a second,
non-journaled writer, ``save_dataset``, beside it, and later a
non-journaled slab-streaming builder, ``core/streaming.py``; the
``mc-batch`` kernel had 204 body lines over four index spaces and
SurfaceNets' chunk driver 159; the query executor streamed each run
through a stack of per-run generators):

* no function in the data-path modules exceeds ``MAX_BODY_LINES`` lines,
  docstring excluded;
* the four public entry points take an options/request object or
  nothing — no ``**`` catch-all parameter to smuggle a second call form
  back in;
* the field sets of ``QueryOptions`` and ``ExtractRequest`` are pinned,
  so a new knob is a reviewed diff of this file;
* the names of the deleted forks do not reappear in ``src/repro``, nor
  does ``core/streaming.py``;
* ``core/query.py`` stays under its line ceiling;
* exactly one site writes a dataset's index, and nothing outside ``io/``
  reaches into a device's ``_buf``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
MAX_BODY_LINES = 120

DATA_PATH_MODULES = (
    "core/query.py",
    "core/compact_tree.py",
    "pipeline.py",
    "render/rasterizer.py",
    "render/compositor.py",
    "grid/metacell.py",
    "core/builder.py",
    "core/persistence.py",
    "core/timevarying.py",
    "mc/backends.py",
    "mc/marching_cubes.py",
    "mc/surface_nets.py",
    *sorted(
        p.relative_to(SRC).as_posix()
        for pkg in ("parallel", "io")
        for p in (SRC / pkg).glob("*.py")
    ),
)

#: (module, class) -> the exact set of settable fields.
OPTION_FIELDS = {
    ("core/query.py", "QueryOptions"): {
        "read_ahead_blocks", "retry_policy", "verify_checksums",
        "time_budget", "tracer", "metrics", "track", "result_cache",
        "backend", "batch_chunk",
    },
    ("parallel/cluster.py", "ExtractRequest"): {
        "render", "camera", "keep_meshes", "tile_layout", "smooth",
        "deadline", "hedge", "speculate", "tracer", "metrics", "tenant",
        "result_cache", "cache_populate", "backend", "batch_chunk",
    },
}

#: Names of the two deleted knob-selected forks (coalesced peek+replay
#: reader, shared-memory triangulation pipeline), of the deleted second
#: store writer with its callback and its side file, of the ``mc-batch``
#: kernel's per-family edge grids (scratch object, gather tables and
#: their module-level cache), and of the deleted second preprocessing
#: path (the non-journaled slab-streaming builder and its helpers).
DELETED_FORK_NAMES = (
    "coalesce_gap_blocks", "charge_read", "PipelineOptions",
    "shared_memory", "supports_pipeline",
    "save_dataset", "device_factory", "steps.txt",
    "_BatchScratch", "_GATHER_TABLE_CACHE", "_edge_gather_tables",
    "build_indexed_dataset_streaming", "VolumeSlabSource", "_slab_metacell_stats",
    "_stream_records", "_scan_brick_prefix", "_stream_extent", "_PlanRunner",
)

#: module -> line ceiling, ratcheted down when a module shrinks.
MODULE_LINE_CEILINGS = {"core/query.py": 611}

#: module -> qualified names that must not grow a ``**`` parameter.
ONE_CALL_FORM = {
    "core/query.py": ("execute_query", "execute_plan"),
    "parallel/cluster.py": ("SimulatedCluster.extract", "SimulatedCluster.sweep"),
}


def _functions(module: str):
    """``(qualified name, node)`` for every function in ``module``."""
    tree = ast.parse((SRC / module).read_text())

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield prefix + child.name, child
                yield from walk(child, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, prefix + child.name + ".")

    return list(walk(tree, ""))


def _body_lines(fn) -> int:
    """Lines from ``def`` to the last statement, minus the docstring."""
    total = fn.end_lineno - fn.lineno + 1
    first = fn.body[0]
    if (
        isinstance(first, ast.Expr)
        and isinstance(first.value, ast.Constant)
        and isinstance(first.value.value, str)
    ):
        total -= first.end_lineno - first.lineno + 1
    return total


@pytest.mark.parametrize("module", DATA_PATH_MODULES)
def test_no_function_over_the_line_budget(module):
    over = {
        name: n
        for name, fn in _functions(module)
        if (n := _body_lines(fn)) > MAX_BODY_LINES
    }
    assert not over, f"{module}: functions over {MAX_BODY_LINES} body lines: {over}"


@pytest.mark.parametrize(
    "module,name",
    [(m, n) for m, names in ONE_CALL_FORM.items() for n in names],
)
def test_entry_points_have_no_catch_all_kwargs(module, name):
    fn = dict(_functions(module))[name]
    assert fn.args.kwarg is None, (
        f"{name} grew **{fn.args.kwarg.arg}: settings travel in the "
        f"options/request object only"
    )


@pytest.mark.parametrize("module,cls", OPTION_FIELDS)
def test_option_fields_are_pinned(module, cls):
    tree = ast.parse((SRC / module).read_text())
    node = next(
        n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == cls
    )
    fields = {
        st.target.id for st in node.body if isinstance(st, ast.AnnAssign)
    }
    assert fields == OPTION_FIELDS[module, cls]


def test_deleted_forks_stay_deleted():
    hits = [
        f"{path.relative_to(SRC)}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        for text in [path.read_text()]
        for name in DELETED_FORK_NAMES
        if name in text
    ]
    assert not hits


@pytest.mark.parametrize("module", MODULE_LINE_CEILINGS)
def test_module_stays_under_its_line_ceiling(module):
    lines = len((SRC / module).read_text().splitlines())
    assert lines <= MODULE_LINE_CEILINGS[module], (
        f"{module} has {lines} lines > {MODULE_LINE_CEILINGS[module]}"
    )


def test_one_preprocessing_path():
    """Slab streaming is how the journaled builder reads its input, not a
    module of its own beside it."""
    assert not (SRC / "core" / "streaming.py").exists()


def test_one_store_writer():
    """``index.npz`` is written at one site (the journaled builder's
    publish step) and brick bytes leave a device through its API only."""
    sources = {p.relative_to(SRC).as_posix(): p.read_text() for p in SRC.rglob("*.py")}
    writers = [m for m, text in sources.items() for _ in range(text.count("savez_compressed("))]
    assert writers == ["core/persistence.py"]
    assert [m for m, text in sources.items() if "._buf" in text and not m.startswith("io/")] == []


def test_time_series_takes_a_directory_not_a_callback():
    init = dict(_functions("core/timevarying.py"))["TimeVaryingIndex.__init__"]
    assert [a.arg for a in init.args.args] == [
        "self", "p", "metacell_shape", "cost_model", "directory",
    ]
