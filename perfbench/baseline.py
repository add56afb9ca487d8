"""Print the Baseline stage table (stage -> seconds) from a traced eval-p30 run.

Usage, from the root of a checkout:

    python3 perfbench/baseline.py [--seed 0]

Runs `perfbench/run.py --workload eval-p30 --trace 1` and formats the trace
it writes to .perfbench/traces/ as the markdown table kept in ROADMAP.md.
Times are seconds of the traced `appauth eval` run, except make_cohort,
which is the median set-up time of the same run.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path


def table(trace: dict) -> str:
    m, s = trace["metrics"], trace["summary"]
    by_n = s["by_n_s"]
    users = m["evaluation.users_kept"]
    iters = m["models.hmm.em_iterations"]
    steps = s["counters"].get("hmm.em_steps", 0)
    bw = m["models.hmm.baum_welch_s"]

    def per_n(*names: str) -> str:
        ns = sorted({int(k.rsplit(".n", 1)[1]) for k in by_n for name in names if k.startswith(name + ".n")})
        return ", ".join(
            f"{sum(by_n.get(f'{name}.n{n}', 0.0) for name in names):.2f} s (n={n})" for n in ns
        )

    rows = [
        ("`make_cohort`", f"{m['simulate.make_cohort_s']:.2f} s"),
        ("parse event log", f"{m['ingest.parse_s']:.2f} s ({m['ingest.rows']} rows)"),
        ("`prepare_cohort`", f"{m['evaluation.prepare_s']:.2f} s ({users} users kept)"),
        (
            "Baum-Welch",
            f"{bw:.1f} s ({bw / max(users, 1):.2f} s/user at T ≈ {steps / max(iters, 1):.0f}; "
            f"{iters} iterations, {m['models.hmm.step_us']:.1f} µs per step)",
        ),
        ("`med` scoring", per_n("models.med.score")),
        ("HMM forward scoring", per_n("models.hmm.score", "models.mshmm.score")),
        ("`mc` and binary rules", f"{m['models.mc.score_s'] + m['models.binary.score_s']:.2f} s"),
        ("EER", f"{m['evaluation.eer_s']:.2f} s"),
        ("record building (protocol self time)", f"{m['evaluation.protocol_self_s']:.2f} s"),
        ("writing outputs", f"{m['cli.write_s']:.2f} s"),
        ("total (traced `appauth eval`)", f"{m['trace.job_s']:.1f} s"),
    ]
    lines = ["| stage | time |", "| --- | --- |"]
    lines += [f"| {stage} | {time} |" for stage, time in rows]
    return "\n".join(lines)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    run = Path(__file__).resolve().parent / "run.py"
    cmd = [sys.executable, str(run), "--workload", "eval-p30", "--seed", str(args.seed), "--trace", "1"]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    result = json.loads(proc.stdout.splitlines()[-1]) if proc.stdout else {}
    if proc.returncode != 0 or not result.get("correct"):
        sys.exit(f"traced run failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    trace = json.loads(Path(f".perfbench/traces/eval-p30-seed{args.seed}.json").read_text())
    print(table(trace))


if __name__ == "__main__":
    main()
