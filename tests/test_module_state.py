"""The package keeps no module-level state but one cache.

A `global` statement is how a module function rebinds state that outlives the
call.  The one allowed is in `constraint_geometry._projector`, which keeps its
last A and result so that frames at one q and active set share one SVD; any
other `global` in src/projctl fails here.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ALLOWED = {("constraint_geometry", "_projector")}


def global_statements(source: str):
    """(enclosing function, line) of every `global` statement; the function is None at module level."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Global):
                found.append((function, child.lineno))
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
            visit(child, inner)

    visit(ast.parse(source), None)
    return found


def test_global_statements_are_found():
    source = (
        "x = 0\n"
        "def f():\n    global x\n    x = 1\n"
        "class C:\n    def m(self):\n        def inner():\n            global x\n"
        "def g():\n    return 'global x'  # global x\n"
        "global y\n"
    )
    assert global_statements(source) == [("f", 3), ("inner", 8), (None, 11)]


def test_only_the_projector_cache_is_module_state():
    found = {
        (path.stem, function, line)
        for path in sorted((ROOT / "src" / "projctl").rglob("*.py"))
        for function, line in global_statements(path.read_text(encoding="utf-8"))
        if (path.stem, function) not in ALLOWED
    }
    assert found == set()
