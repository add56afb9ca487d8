"""The demo scripts run to completion, and the public name lists resolve."""

from __future__ import annotations

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
