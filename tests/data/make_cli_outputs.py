"""Write the pinned `appauth` outputs that `tests/test_cli.py` compares against.

Usage: PYTHONPATH=src python tests/data/make_cli_outputs.py [out_dir]

Runs `synth`, `ingest`, `train`, `eval`, `intrude` and `score` on the
`test_cli.TINY` config, as the `pipeline` fixture does, and copies the
report files named by `PINNED` into `out_dir` (default: `cli_tiny/` next to
this script). Run it only to pin new outputs on purpose: the test checks
that the current code writes the same bytes as the code that made them.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from test_cli import TINY  # noqa: E402

from appauth import cli  # noqa: E402
from appauth.models import METHOD_TAGS  # noqa: E402

PINNED = (
    ["metrics.csv", "latency.csv", "intrusion_curve.csv", "scores.csv"]
    + [f"{kind}_{m}.csv" for m in METHOD_TAGS for kind in ("scores", "eer_grid", "roc")]
)


def main(out_dir: Path) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        run = Path(tmp) / "run"
        cfg = Path(tmp) / "config.json"
        cfg.write_text(json.dumps(dict(TINY, out=str(run))), encoding="utf-8")
        for command in ["synth", "ingest", "train", "eval", "intrude"]:
            if cli.main([command, "--config", str(cfg)]) != 0:
                sys.exit(f"appauth {command} failed")
        model = run / "models" / "user00.mshmm.npz"
        sequence = run / "test_period30.csv"
        argv = ["score", "--config", str(cfg), "--model", str(model), "--sequence", str(sequence)]
        if cli.main(argv) != 0:
            sys.exit("appauth score failed")
        out_dir.mkdir(parents=True, exist_ok=True)
        for name in PINNED:
            shutil.copyfile(run / name, out_dir / name)


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).parent / "cli_tiny")
