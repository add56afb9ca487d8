"""Self-test of the benchmark harness.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py [--workload eval-p5 ...]

Checks that BENCHMARK.json keeps to its schema limits; that a run prints a
result line with exactly the declared metrics; that two traced runs of the
same seed give identical exact counts (windows, unique windows, med cells,
EM iterations, records, parse rows and errors, users kept and dropped); and
that run.py exits non-zero, printing no result, in a directory holding only
BENCHMARK.json and perfbench/.
"""

from __future__ import annotations

import argparse
import json
import re
import shutil
import subprocess
from pathlib import Path

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def check_schema(spec: dict) -> None:
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 1 <= len(spec["paths"]) <= 16 and 1 <= len(spec["command"]) <= 32
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    names = []
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
        names.append(m["name"])
    assert all(NAME.fullmatch(n) for n in names), names
    assert len(names) == len(set(names))
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def run(workload: str, seed: int, trace: int, seconds: int) -> dict:
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    return result


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="benchmark self-test")
    parser.add_argument("--workload", action="append", help="default: those in BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    check_schema(spec)
    print("schema ok")

    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        ["python3", "perfbench/run.py", "--workload", workloads[0], "--seed", "0", "--seconds", "1",
         "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print("bare directory: exit", proc.returncode)

    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    for workload in args.workload or workloads:
        plain = run(workload, args.seed, 0, spec["run_seconds"])
        assert list(plain["metrics"]) == [m["name"] for m in spec["end_to_end"]]
        first, second = (run(workload, args.seed, 1, spec["run_seconds"]) for _ in range(2))
        assert list(first["metrics"]) == [m["name"] for m in spec["per_layer"]]
        a = {n: first["metrics"][n]["value"] for n in counts}
        b = {n: second["metrics"][n]["value"] for n in counts}
        assert a == b, {n: (a[n], b[n]) for n in counts if a[n] != b[n]}
        print(f"{workload}: counts identical over two traced runs: {a}")


if __name__ == "__main__":
    main()
