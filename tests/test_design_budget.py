"""Design-budget ratchet for the extraction data path, the rasterizer and
the preprocessing scan pass (AST walk, no imports of the code under test).

Two budgets, both of which the pre-refactor code blew
(``SimulatedCluster.extract`` had 433 body lines and a ``**legacy_kwargs``
catch-all):

* no function in the data-path modules exceeds ``MAX_BODY_LINES`` lines,
  docstring excluded;
* the four public entry points take an options/request object or
  nothing — no ``**`` catch-all parameter to smuggle a second call form
  back in.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
MAX_BODY_LINES = 120

DATA_PATH_MODULES = (
    "core/query.py",
    "parallel/cluster.py",
    "parallel/node.py",
    "parallel/mp_backend.py",
    "pipeline.py",
    "render/rasterizer.py",
    "grid/metacell.py",
    "core/builder.py",
)

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
