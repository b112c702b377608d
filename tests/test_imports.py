"""Every imported name in the package and the tests is read somewhere.

An `ast` walk, since no linter is a dependency: a module's imports against
the names it loads. Exempt are `__future__` imports, the names a package's
`__all__` exports, and the names of an import statement marked
`# noqa: F401` (kept for a traced benchmark to patch).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(path: Path) -> list[str]:
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id == "__all__"):
            read |= set(ast.literal_eval(node.value))
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                unused.append(f"{path.name}:{node.lineno} {name}")
    return unused


def test_no_unused_imports():
    files = sorted([*(ROOT / "src" / "sqplan").glob("*.py"), *(ROOT / "tests").glob("*.py")])
    assert len(files) > 20
    assert [u for path in files for u in unused_imports(path)] == []


def test_unused_import_walk_flags_and_exempts(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("from __future__ import annotations\n"
                      "import os, sys\n"
                      "import numpy.linalg\n"
                      "from json import dumps as to_json, loads  # noqa: F401\n"
                      "from math import (pi,\n"
                      "                  tau)\n"
                      "__all__ = ['tau']\n"
                      "print(sys.argv, numpy.linalg)\n", encoding="utf-8")
    assert unused_imports(module) == ["module.py:2 os", "module.py:5 pi"]
