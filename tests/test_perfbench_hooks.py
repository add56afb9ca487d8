"""The benchmark tracer still finds every layer it wraps.

`perfbench/tracer.py` patches appauth functions and methods by name and
reads the values some of them return. A renamed function or a changed
return type makes it skip a layer and list it in `Tracer.missing`. This
test runs the tracer on `appauth eval` in a fresh process, so the patching
cannot leak into other tests.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from test_cli import write_config

ROOT = Path(__file__).resolve().parents[1]

TRACED_EVAL = """
import json, sys
from tracer import Tracer, instrument
from appauth import cli

tracer = Tracer()
instrument(tracer)
rc = cli.main(["eval", "--config", sys.argv[1]])
print(json.dumps({"rc": rc, "missing": tracer.missing, "counters": tracer.summary()["counters"]}))
"""


def test_tracer_wraps_every_layer_of_eval(tmp_path):
    cfg = write_config(tmp_path, out=str(tmp_path / "run"))
    paths = [str(ROOT / "src"), str(ROOT / "perfbench"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    result = subprocess.run(
        [sys.executable, "-c", TRACED_EVAL, str(cfg)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.splitlines()[-1])
    assert report["rc"] == 0
    assert report["missing"] == []
    counters = report["counters"]
    windows = sum(v for k, v in counters.items() if k.endswith(".windows"))
    assert counters["evaluation.records"] == windows > 0
