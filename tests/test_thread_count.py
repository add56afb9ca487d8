"""Trained models and `eval` outputs are the same bytes at any BLAS thread
count: Baum-Welch's one long product, the xi term, is summed over fixed
blocks of steps in a fixed order."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Three users with about 3 200 to 3 800 training symbols each at period 5,
# long enough that a single (K, T) @ (T, K) product is split across threads.
CONFIG = {
    "synthetic": {
        "n_users": 3,
        "days": 6,
        "overlap": 0.5,
        "apps_per_user": 30,
        "concentration": 0.3,
        "context_spread": 1.0,
        "seed": 0,
    },
    "periods": [5],
    "n_values": [20],
    "methods": ["hmm-lap", "mshmm"],
    "max_iter": 2,
    "stride": 5,
}

RUN = """
import sys
from appauth import cli
for command in ("train", "eval"):
    if cli.main([command, "--config", sys.argv[1]]) != 0:
        sys.exit(f"appauth {command} failed")
"""


def _run(tmp_path: Path, events: Path, threads: int) -> dict[str, bytes]:
    out = tmp_path / f"threads{threads}"
    cfg = tmp_path / f"threads{threads}.json"
    cfg.write_text(json.dumps(dict(CONFIG, data=str(events), out=str(out))), encoding="utf-8")
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    env.update(OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
    result = subprocess.run(
        [sys.executable, "-c", RUN, str(cfg)], env=env, capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr
    return {
        str(p.relative_to(out)): p.read_bytes()
        for p in sorted(out.rglob("*"))
        if p.is_file() and p.name != "manifest.json"
    }


def test_train_and_eval_outputs_do_not_depend_on_blas_threads(tmp_path):
    from appauth import cli

    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps(dict(CONFIG, out=str(tmp_path / "synth"))), encoding="utf-8")
    assert cli.main(["synth", "--config", str(cfg)]) == 0
    events = next((tmp_path / "synth").glob("*.csv"))
    one, two = _run(tmp_path, events, 1), _run(tmp_path, events, 2)
    assert sum(name.endswith(".npz") for name in one) == 6
    assert any(name.startswith("scores_") for name in one)
    assert sorted(one) == sorted(two)
    assert [name for name in one if one[name] != two[name]] == []
