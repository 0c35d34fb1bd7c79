"""Source hygiene checks that need no linter: every import and every private
module-level name is used."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "gftkit"
# __init__.py imports only to re-export
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_checker_sees_unused_names():
    src = "from __future__ import annotations\nimport os, numpy as np\nfrom a import b, c\nc(np)\n"
    assert unused_imports(src) == [(2, "os"), (3, "b")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def dead_private_names(sources: dict) -> list:
    """Module-level ``_x`` functions, classes and assignments that no module
    in ``sources`` (name -> text) reads, imports or looks up as an attribute."""
    defined, used = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((module, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(module, t.id) for t in targets if isinstance(t, ast.Name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(a.name for a in node.names)
    return sorted((module, name) for module, name in defined
                  if name.startswith("_") and not name.startswith("__") and name not in used)


def test_the_checker_sees_dead_private_names():
    sources = {
        "a": "_A = 1\n_B = 2\ndef _f():\n    return _A\nclass _C:\n    pass\n_D: int = 3\n",
        "b": "from a import _D\nimport a\na._B\n",
    }
    assert dead_private_names(sources) == [("a", "_C"), ("a", "_f")]


def test_every_private_name_is_used():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert dead_private_names(sources) == []


def test_only_the_ray_module_names_scipy():
    # the ray ODE is scipy's one caller; every other route, palpha's Taylor
    # stepper included, runs without importing it
    naming = sorted(p.name for p in SRC.glob("*.py") if "scipy" in p.read_text())
    assert naming == ["rays.py"]
