"""Every module under src/, tests/ and tools/ reads each name it imports.

A package's __init__.py re-exports what it imports, and a line marked
`# noqa` keeps its import on purpose (an import after a sys.path edit, or a
name kept importable for profilers), so both are exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str):
    """(line, name) of every name the module imports outside a `# noqa` line and never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)) and "# noqa" not in lines[node.lineno - 1]:
            imported += [(node.lineno, alias.asname or alias.name.split(".")[0]) for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in read]


def test_unused_imports_are_caught():
    source = (
        "from __future__ import annotations\nimport os, sys  # noqa: E402\n"
        "import json\nimport a.b\nfrom x import y as z\na.b.c(z)\n"
    )
    assert unused_imports(source) == [(3, "json")]


def test_every_imported_name_is_read():
    modules = sorted(path for top in ("src", "tests", "tools") for path in (ROOT / top).rglob("*.py"))
    found = {
        str(path.relative_to(ROOT)): unused
        for path in modules
        if path.name != "__init__.py" and (unused := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}
