"""Every imported name in the package and the tests is read somewhere, and
the package's modules import each other without a cycle.

An `ast` walk, since no linter is a dependency: a module's imports against
the names it loads. Exempt are `__future__` imports, the names a package's
`__all__` exports, and the names of an import statement marked
`# noqa: F401` (kept for a traced benchmark to patch).

A second walk reads each module's module-level relative imports, skipping
`if TYPE_CHECKING:` blocks, which run only under a type checker. The
clearance kernel must not reach the roadmap or the diagram, so that the
roadmap can import it to certify its edges with the posed robot.
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


def package_imports(package: Path) -> dict[str, set[str]]:
    """{module: the package modules it imports when it is imported}: the
    relative imports of its module-level statements, into if, else and try
    blocks but not into `if TYPE_CHECKING:` or into functions."""
    graph = {}
    for path in sorted(package.glob("*.py")):
        imported = set()
        body = list(ast.parse(path.read_text(encoding="utf-8")).body)
        while body:
            node = body.pop()
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                imported |= ({node.module.split(".")[0]} if node.module
                             else {alias.name for alias in node.names})
            elif isinstance(node, ast.If):
                checking = ast.unparse(node.test) in ("TYPE_CHECKING", "typing.TYPE_CHECKING")
                body += node.orelse if checking else node.body + node.orelse
            elif isinstance(node, ast.Try):
                body += node.body + node.orelse + node.finalbody
                body += [n for handler in node.handlers for n in handler.body]
        graph[path.stem] = imported
    return graph


def reached(graph: dict[str, set[str]], module: str) -> set[str]:
    """The modules importing `module` imports, itself included."""
    seen, todo = set(), [module]
    while todo:
        m = todo.pop()
        if m not in seen:
            seen.add(m)
            todo += graph[m]
    return seen


def test_package_imports_are_acyclic_and_clearance_reaches_no_roadmap():
    graph = package_imports(ROOT / "src" / "sqplan")
    assert {"clearance", "poses", "roadmap", "voronoi"} <= set(graph)
    assert all(graph[m] <= set(graph) for m in graph)
    for module in graph:  # a cycle through module brings it back to itself
        assert module not in set().union(*(reached(graph, m) for m in graph[module]))
    from_clearance = reached(graph, "clearance")
    assert "poses" in from_clearance
    assert not any(graph[m] & {"roadmap", "voronoi"} for m in from_clearance)


def test_package_import_walk_skips_type_checking_blocks(tmp_path):
    (tmp_path / "a.py").write_text("from typing import TYPE_CHECKING\n"
                                   "from . import b\n"
                                   "if TYPE_CHECKING:\n"
                                   "    from .c import C\n"
                                   "else:\n"
                                   "    from .d import D\n"
                                   "try:\n"
                                   "    from .e.f import F\n"
                                   "except ImportError:\n"
                                   "    pass\n"
                                   "def g():\n"
                                   "    from .c import C\n", encoding="utf-8")
    for name in "bcde":
        (tmp_path / f"{name}.py").write_text("", encoding="utf-8")
    assert package_imports(tmp_path)["a"] == {"b", "d", "e"}
