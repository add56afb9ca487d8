"""Check that two source trees write byte-identical outputs for `synth` and
every data command: `ingest`, `train`, `eval`, `stats`, `intrude` and
`score`.

Usage, from the root of a checkout:

    python3 tools/compare_outputs.py PARENT_DIR [CHANGE_DIR]

CHANGE_DIR defaults to the current directory. PARENT_DIR is another
checkout of the repository, usually the parent commit, made without
network access by either of

    git worktree add <dir> HEAD~1
    git archive HEAD~1 | tar -x -C <dir>

The event logs of the eval-p30 and eval-p5 benchmark workloads are built
for seeds 0 and 1 with PARENT_DIR's `src/` and `perfbench/workloads.py`
(imported, not modified), next to the config that `perfbench/run.py`
writes, except that it lists two periods, the workload's p and 2p, and
holds the workload's cohort spec and seed as its `synthetic` value. With
one period, nothing would compare the later columns of the EER grids, or
check that the reports `eval`, `train`, `stats` and `intrude` take from
the first period alone stay so. Every user of both inputs is eligible at
2p for seeds 0 and 1, so the second column is full. The eval-p5 cases
also list n = 5 before the workload's n = 20: there each model owner's
4 454 (seed 0) or 4 482 (seed 1) windows go to one `score_windows` call,
the only call of any case long enough for the HMM forward pass to cut it
into more than one row block, and `eval`'s scores and ROC files and
`score` come from n = 5.
Each tree then runs, per input and in a temporary directory,
`python -m appauth.cli <command> --config ../config.json --out <command>`
for `synth`, `ingest`, `train`, `eval`, `stats` and `intrude`, and
finally `score` of each of the first user's six model files from `train`
(one per method) against the `test_period<p>.csv` that `ingest` wrote,
each with `--out score-<method>`, so the load-and-score path of every
model kind is compared. The data commands all read the
parent-built events.csv, so each tree's `synth/events.csv` (the whole,
uncut cohort) is what compares the two trees' cohort generators. Every
run has PYTHONPATH=<tree>/src, OPENBLAS_NUM_THREADS=1 and
PYTHONDONTWRITEBYTECODE=1.
Every output file is compared byte for byte (model `.npz` files
included), except that each manifest.json is compared as JSON without its
`versions` key, which records library versions rather than results; so a
manifest that names another command or config, or is missing, differs.
One line is printed per (workload, seed), after a first line with the
number of lines of the Python files under each tree's `src/`, the measure
of how much code the change adds or removes, and the number of those
lines that hold code: not blank, not comment-only and not inside a
docstring, so that reformatting or deleting comments is told apart from
removing code. Below a case's line, each
differing file gets a line that says how far it moved: for an `.npz`
file, the largest absolute and relative difference of each array; for a
CSV file, both row counts and the largest relative difference of its
numeric fields. The exit status
is 1 if any file differs or is missing on either side, or if a run fails.
"""

from __future__ import annotations

import ast
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
import tokenize
from pathlib import Path

import numpy as np

WORKLOAD_NAMES = ("eval-p30", "eval-p5")
SEEDS = (0, 1)
COMMANDS = ("synth", "ingest", "train", "eval", "stats", "intrude")  # then `score`


def write_inputs(name: str, seed: int, case_dir: Path) -> int:
    """events.csv and config.json for one workload and seed, as perfbench
    writes them but with periods [p, 2p], n = 5 first at eval-p5, and the
    cohort spec as `synthetic`, generated by the parent tree's code (on
    sys.path); returns the workload's period p."""
    from appauth import ingest, simulate
    from workloads import METHODS, WORKLOADS, cohort_spec, cut_cohort

    workload = WORKLOADS[name]
    cohort = cut_cohort(workload, simulate.make_cohort(cohort_spec(workload, seed)))
    rows = [ev for user in sorted(cohort) for ev in cohort[user]]
    ingest.write_event_log(rows, case_dir / "events.csv")
    config = {
        "data": "../events.csv",
        "synthetic": {**workload["cohort"], "seed": seed},
        "out": "out",
        "periods": [workload["period"], 2 * workload["period"]],
        "n_values": [5, *workload["n_values"]] if name == "eval-p5" else workload["n_values"],
        "stride": workload["stride"],
        "methods": list(METHODS),
        "seed": 0,
    }
    (case_dir / "config.json").write_text(json.dumps(config))
    return workload["period"]


def run_command(tree: Path, run_dir: Path, command: str, *extra: str, out: str = "") -> bool:
    """One appauth command with its outputs under run_dir/<out>, by default
    run_dir/<command>; False, with its stderr printed, if it failed."""
    env = {
        **os.environ,
        "PYTHONPATH": str(tree / "src"),
        "OPENBLAS_NUM_THREADS": "1",
        "PYTHONDONTWRITEBYTECODE": "1",
    }
    cmd = [sys.executable, "-m", "appauth.cli", command, "--config", "../config.json"]
    cmd += ["--out", out or command, *extra]
    proc = subprocess.run(cmd, cwd=run_dir, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        print(f"{tree}: {command} exited {proc.returncode}:\n{proc.stderr[-2000:]}", file=sys.stderr)
    return proc.returncode == 0


# tokens that hold no code: a line with only these is blank or comment-only
NON_CODE_TOKENS = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def code_lines(source: str) -> int:
    """Lines of Python source that some code token covers, outside the
    docstrings of the module, its classes and its functions; each line of a
    multi-line string other than a docstring counts."""
    documented = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    docstrings: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, documented) and ast.get_docstring(node, clean=False) is not None:
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NON_CODE_TOKENS:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstrings)


def src_lines(tree: Path) -> tuple[int, int]:
    """Lines of the Python files under tree/src: all of them, and those
    that hold code."""
    paths = sorted((tree / "src").rglob("*.py"))
    total = sum(len(p.read_bytes().splitlines()) for p in paths)
    return total, sum(code_lines(p.read_text(encoding="utf-8")) for p in paths)


def comparable(path: Path) -> bytes:
    """The bytes compared for one output file: a manifest.json is re-encoded
    without its `versions`, any other file is read as it is."""
    if path.name != "manifest.json":
        return path.read_bytes()
    manifest = json.loads(path.read_text(encoding="utf-8"))
    manifest.pop("versions", None)
    return json.dumps(manifest, sort_keys=True).encode("utf-8")


def differences(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """The largest |a - b| and |a - b| / max(|a|, |b|) over the entries
    where a and b differ; entries both NaN are equal."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    moved = ~((a == b) | (np.isnan(a) & np.isnan(b)))
    with np.errstate(invalid="ignore"):
        diff = np.abs(a - b)[moved]
        rel = diff / np.maximum(np.abs(a), np.abs(b))[moved]
    return float(diff.max(initial=0.0)), float(rel.max(initial=0.0))


def npz_difference(before: bytes, after: bytes) -> str:
    """The largest absolute and relative difference of each array of two
    .npz files, by array name; an array that is not numeric, or whose
    shape changed, is only said to be the same or to differ."""
    parts = []
    with np.load(io.BytesIO(before)) as old, np.load(io.BytesIO(after)) as new:
        for name in sorted(set(old.files) | set(new.files)):
            if name not in old.files or name not in new.files:
                parts.append(f"{name} only in {'change' if name in new.files else 'parent'}")
                continue
            a, b = old[name], new[name]
            if a.shape != b.shape:
                parts.append(f"{name} shape {a.shape} -> {b.shape}")
            elif a.dtype.kind in "biuf" and b.dtype.kind in "biuf":
                parts.append("{} abs {:.3g} rel {:.3g}".format(name, *differences(a, b)))
            else:
                parts.append(f"{name} {'same' if np.array_equal(a, b) else 'differs'}")
    return ", ".join(parts)


def as_number(field: str) -> float | None:
    try:
        return float(field)
    except ValueError:
        return None


def csv_difference(before: bytes, after: bytes) -> str:
    """Both row counts of two CSV files, the largest relative difference of
    the numeric fields they share by position, and how many other fields
    differ."""
    old, new = (list(csv.reader(io.StringIO(b.decode("utf-8")))) for b in (before, after))
    pairs, other = [], 0
    for old_row, new_row in zip(old, new):
        other += abs(len(old_row) - len(new_row))
        for x, y in zip(old_row, new_row):
            a, b = as_number(x), as_number(y)
            if a is None or b is None:
                other += x != y
            else:
                pairs.append((a, b))
    rel = differences(*np.array(pairs).reshape(-1, 2).T)[1]
    return f"rows {len(old)} -> {len(new)}, numeric rel {rel:.3g}, {other} other fields differ"


def difference_size(name: str, before: bytes, after: bytes) -> str:
    """How far one differing output file moved, by its kind."""
    if name.endswith(".npz"):
        return npz_difference(before, after)
    if name.endswith(".csv"):
        return csv_difference(before, after)
    return "differs"


def run_all(tree: Path, run_dir: Path, period: int) -> dict[str, bytes] | None:
    """Output files of every command by path under run_dir, or None if a
    command failed."""
    run_dir.mkdir()
    if not all(run_command(tree, run_dir, command) for command in COMMANDS):
        return None
    # model files are named <user>.<method>.npz, and no method tag holds a "."
    models = {}
    for path in sorted((run_dir / "train" / "models").glob("*.npz")):
        user, method, _ = path.name.rsplit(".", 2)
        models.setdefault(user, {})[method] = path
    if not models:
        print(f"{tree}: train wrote no model", file=sys.stderr)
        return None
    sequence = run_dir / "ingest" / f"test_period{period}.csv"
    for method, path in models[min(models)].items():
        args = ("--model", str(path), "--sequence", str(sequence))
        if not run_command(tree, run_dir, "score", *args, out=f"score-{method}"):
            return None
    return {
        str(p.relative_to(run_dir)): comparable(p) for p in sorted(run_dir.rglob("*")) if p.is_file()
    }


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent = Path(argv[0]).resolve()
    change = Path(argv[1] if len(argv) > 1 else ".").resolve()
    for tree in (parent, change):
        if not (tree / "src" / "appauth" / "cli.py").is_file():
            print(f"no src/appauth package under {tree}", file=sys.stderr)
            return 2
    if not (parent / "perfbench" / "workloads.py").is_file():
        print(f"no perfbench/workloads.py under {parent}", file=sys.stderr)
        return 2
    (before, code_before), (after, code_after) = src_lines(parent), src_lines(change)
    print(
        f"src/ lines: {before} in {parent}, {after} in {change} ({after - before:+d});"
        f" code lines: {code_before}, {code_after} ({code_after - code_before:+d})"
    )
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(parent / "src"), str(parent / "perfbench")]
    bad = 0
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        for name in WORKLOAD_NAMES:
            for seed in SEEDS:
                case_dir = Path(tmp) / f"{name}-seed{seed}"
                case_dir.mkdir()
                period = write_inputs(name, seed, case_dir)
                before = run_all(parent, case_dir / "parent", period)
                after = run_all(change, case_dir / "change", period)
                if before is None or after is None:
                    print(f"{name} seed {seed}: a command failed")
                    bad += 1
                    continue
                missing = sorted(set(before) ^ set(after))
                differ = sorted(f for f in set(before) & set(after) if before[f] != after[f])
                same = len(before) - len(differ) - len(set(before) - set(after))
                print(
                    f"{name} seed {seed}: {same} identical, {len(differ)} differing"
                    f" {differ}, {len(missing)} missing {missing}"
                )
                for f in differ:
                    print(f"  {f}: {difference_size(f, before[f], after[f])}")
                bad += len(differ) + len(missing)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
