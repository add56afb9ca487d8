"""The demo scripts run to completion, the public name lists resolve, and
the package imports no name it never uses and defines no private helper it
never calls."""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ["encoding_tour", "intrusion_replay", "method_comparison", "quickstart_scoring"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    script = ROOT / "demos" / f"{demo}.py"
    result = subprocess.run(
        [sys.executable, str(script)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout


@pytest.mark.parametrize("module", ["appauth", "appauth.models"])
def test_star_import_resolves_all(module):
    names = importlib.import_module(module).__all__
    assert len(names) == len(set(names))
    namespace: dict = {}
    exec(f"from {module} import *", namespace)
    assert sorted(set(names) - set(namespace)) == []


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def test_package_has_no_unused_imports():
    unused = []
    for path in sorted((ROOT / "src" / "appauth").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported: dict[str, int] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= _exported(tree)
        rel = path.relative_to(ROOT)
        unused += [f"{rel}:{line} {name}" for name, line in imported.items() if name not in used]
    assert unused == []


def _private_definitions(tree: ast.Module):
    """Module-level functions and classes, and methods of module-level
    classes, whose names start with `_` and are not dunders."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else []
        for defn in [node, *members]:
            name = getattr(defn, "name", "")
            dunder = name.startswith("__") and name.endswith("__")
            if isinstance(defn, kinds) and name.startswith("_") and not dunder:
                yield defn


def test_package_has_no_dead_private_helpers():
    defined: list[tuple[str, str]] = []
    referenced: set[str] = set()
    for path in sorted((ROOT / "src" / "appauth").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        rel = path.relative_to(ROOT)
        defined += [(d.name, f"{rel}:{d.lineno} {d.name}") for d in _private_definitions(tree)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    assert [where for name, where in defined if name not in referenced] == []
