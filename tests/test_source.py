"""Source hygiene checks that need no linter: every import, every private
module-level name and every public module-level name is used."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "gftkit"
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


def module_level_names(tree: ast.Module) -> list:
    """Names bound by the module's top-level functions, classes and assignments."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return names


def dead_private_names(sources: dict) -> list:
    """Module-level ``_x`` functions, classes and assignments that no module
    in ``sources`` (name -> text) reads, imports or looks up as an attribute."""
    defined, used = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        defined += [(module, name) for name in module_level_names(tree)]
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


def dead_public_names(modules: dict, others: list) -> list:
    """Public module-level names of ``modules`` (name -> text) that their own
    module never reads and no other text names; ``others`` are the texts of
    every other file, ``__init__`` with its re-exports removed."""
    dead = []
    for module, source in modules.items():
        tree = ast.parse(source)
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        texts = [text for other, text in modules.items() if other != module] + others
        for name in module_level_names(tree):
            named = re.compile(rf"\b{name}\b").search
            if not name.startswith("_") and name not in read and not any(map(named, texts)):
                dead.append((module, name))
    return sorted(dead)


def is_export_table(node) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "_EXPORTS" for t in node.targets)


def without_reexports(source: str) -> str:
    """``source`` with its imports and its lazy export table blanked."""
    lines = source.splitlines()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)) or is_export_table(node):
            lines[node.lineno - 1:node.end_lineno] = [""] * (node.end_lineno - node.lineno + 1)
    return "\n".join(lines)


def test_the_checker_sees_dead_public_names():
    modules = {"a": "A = 1\nB = 2\nC = 3\ndef f():\n    return C\nclass K:\n    pass\n", "b": "D = 4\n"}
    init = 'from a import A\n_EXPORTS = {\n    "a": ("B", "K"),\n}\nfrom b import (\n    D,\n)\n'
    others = [without_reexports(init), "B + 1\n"]
    assert dead_public_names(modules, others) == [("a", "A"), ("a", "K"), ("a", "f"), ("b", "D")]


def test_every_public_name_is_used():
    modules = {p.name: p.read_text() for p in MODULES}
    others = [without_reexports((SRC / "__init__.py").read_text()), (ROOT / "README.md").read_text()]
    others += [p.read_text() for d in ("tests", "bench", "demos") for p in (ROOT / d).rglob("*.py")]
    assert dead_public_names(modules, others) == []


def test_no_module_names_scipy():
    # both ODE routes are Taylor steppers; scipy is a test-only oracle
    naming = sorted(p.name for p in SRC.glob("*.py") if "scipy" in p.read_text())
    assert naming == []


def module_level_imports(source: str) -> set:
    """What a module imports when it is imported: absolute module names, with
    ``from . import x`` read as ``gftkit.x``; function bodies and ``if
    TYPE_CHECKING:`` blocks do not run then and are skipped."""
    found, todo = set(), list(ast.parse(source).body)
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Import):
            found.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = f"gftkit.{base}" if base else "gftkit"
            found.add(base)
            if not node.module:
                found.update(f"gftkit.{a.name}" for a in node.names)
        elif isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            todo += node.orelse
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            todo += [c for c in ast.iter_child_nodes(node) if isinstance(c, ast.stmt)]
    return found


def test_the_import_reader_skips_what_does_not_run_at_import():
    src = ("import numpy as np\nfrom .jets import Jet3\nfrom . import errors\n"
           "if TYPE_CHECKING:\n    import scipy\nelse:\n    import re\n"
           "try:\n    import json\nexcept ImportError:\n    pass\n"
           "def f():\n    import math\nclass K:\n    import os\n")
    assert module_level_imports(src) == {"numpy", "gftkit.jets", "gftkit", "gftkit.errors",
                                         "re", "json"}


def test_the_light_modules_import_no_numpy():
    # the command line answers listings and bad input from these modules alone
    imports = {f"gftkit.{p.stem}": module_level_imports(p.read_text())
               for p in SRC.glob("*.py") if p.name != "__init__.py"}
    imports["gftkit"] = module_level_imports((SRC / "__init__.py").read_text())
    heavy = {"numpy"}
    while True:  # every gftkit module that imports numpy, directly or not
        more = {m for m, deps in imports.items() if deps & heavy} - heavy
        if not more:
            break
        heavy |= more
    light = ["gftkit", "gftkit.cli", "gftkit.catalog", "gftkit.errors", "gftkit.expressions",
             "gftkit.shared"]
    assert {m: sorted(imports[m] & heavy) for m in light} == {m: [] for m in light}
    assert "gftkit.compiler" in heavy  # the check reaches numpy through gftkit's own modules


CODE_BUILTINS = {"eval", "exec", "compile"}


def code_builtin_uses(source: str) -> list:
    """(enclosing top-level name, builtin) for each use by name of eval, exec or
    compile; an attribute such as ``re.compile`` is another function."""
    uses = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", None)
        uses += [(owner, n.id) for n in ast.walk(top)
                 if isinstance(n, ast.Name) and n.id in CODE_BUILTINS]
    return uses


def test_the_checker_sees_eval_exec_and_compile():
    src = ("import re\neval('1')\nre.compile('x')\nrun = exec\n"
           "def f():\n    return compile('1', '', 'eval')\nclass K:\n    x = re.compile\n")
    assert code_builtin_uses(src) == [(None, "eval"), (None, "exec"), ("f", "compile")]


def test_only_the_rule_emitter_compiles_code():
    # the jet rules are the one place that turns generated source into code
    uses = {p.name: code_builtin_uses(p.read_text()) for p in SRC.glob("*.py")}
    assert {name: u for name, u in uses.items() if u} == {"jets.py": [("_compiled", "eval")]}
