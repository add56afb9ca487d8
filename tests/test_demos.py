"""The demo scripts run to completion, the public name lists resolve, and
the package imports no name it never uses, defines no private helper it
never calls and no public name that only tests use."""

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


@pytest.mark.parametrize("module", ["appauth.models"])
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


def _definitions(tree: ast.Module, private: bool):
    """(class name or None, node) for module-level functions and classes, and
    methods of module-level classes, that are not dunders and whose names do
    (private) or do not start with `_`."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else []
        for owner, defn in [(None, node), *((node.name, m) for m in members)]:
            name = getattr(defn, "name", "")
            dunder = name.startswith("__") and name.endswith("__")
            if isinstance(defn, kinds) and name.startswith("_") == private and not dunder:
                yield owner, defn


def _constants(tree: ast.Module, private: bool):
    """Names assigned UPPER_CASE at module level that do (private) or do
    not start with `_`."""
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        for target in targets:
            if isinstance(target, ast.Name) and target.id.isupper() and target.id.startswith("_") == private:
                yield target


def _overrides(path: Path, cls: str, name: str) -> bool:
    """Whether method `name` of class `cls` in `path` overrides a base
    class's; the base's callers use it."""
    parts = path.relative_to(ROOT / "src").with_suffix("").parts
    module = importlib.import_module(".".join(parts[:-1] if parts[-1] == "__init__" else parts))
    return any(name in vars(base) for base in getattr(module, cls).__mro__[1:])


def _unreferenced(private: bool, users: list[str]) -> list[str]:
    """Definitions and UPPER_CASE module constants under src/appauth/ whose
    name no Name or Attribute node in the .py files under `users`
    (directories of ROOT) loads; `__all__` strings, import statements and
    assignments do not count as a use."""
    defined: list[tuple[str, str]] = []
    for path in sorted((ROOT / "src" / "appauth").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        rel = path.relative_to(ROOT)
        defined += [
            (d.name, f"{rel}:{d.lineno} {d.name}")
            for cls, d in _definitions(tree, private)
            if cls is None or not _overrides(path, cls, d.name)
        ]
        defined += [(t.id, f"{rel}:{t.lineno} {t.id}") for t in _constants(tree, private)]
    referenced: set[str] = set()
    for path in sorted(p for user in users for p in (ROOT / user).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                referenced.add(node.attr)
    return [where for name, where in defined if name not in referenced]


def test_package_has_no_dead_private_helpers():
    assert _unreferenced(private=True, users=["src/appauth"]) == []


def test_package_has_no_public_name_only_tests_use():
    assert _unreferenced(private=False, users=["src", "demos", "perfbench", "tools"]) == []
