"""appauth benchmark: seeded workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload eval-p30 --seed 0 --seconds 30 --trace 0

Workloads (all single-process, BLAS limited to one thread; the inputs are
described in workloads.py):

  eval-p30       `appauth eval` on a generated event-log CSV: 10 users with
                 about 14 days each, overlap 0.5, period 30, stride 5, n in
                 {20, 60}, all six methods. The acceptance-cohort shape;
                 `med` and Baum-Welch dominate and windows are almost all
                 distinct.
  eval-p5        `appauth eval` on 3 users with about 7 days each, period 5,
                 stride 1, n = 20, all six methods. Windows repeat (about
                 half are distinct) and `med` allocates windows x T arrays,
                 so peak memory is several times that of eval-p30.
  verify-stream  a closed loop, one device at a time, on 10 users with about
                 14 days each and disjoint app pools: enroll the owner (one
                 Baum-Welch run shared by all six methods), then replay 200
                 genuine and 200 intruder symbols and decide on each arriving
                 symbol with `mshmm` and `med`, scoring the trailing
                 60-window as a batch of one. Not listed in BENCHMARK.json:
                 its job is small-array numpy and Python, whose speed swings
                 up to 1.8x with the shared CPU's load, so its job_s spread
                 over ten seeds reached 0.33. Run it by hand; --trace 1
                 reports its enrollment and per-decision latencies.

Set-up (generating the cohort, writing the CSV or preparing the cohort) is
timed several times before and after the job; the timed job then runs in fresh worker
processes, repeated while the next repetition still fits in --seconds, and
the medians are reported. The last stdout line is the result JSON; the line
before it, starting with "env ", records the interpreter, numpy, BLAS,
thread settings and a calibration loop timed at the start and the end.

--trace 1 runs the job twice: once untraced and once under the span tracer
of tracer.py. It reports the per-layer metrics, the tracing overhead, and
checks that both runs wrote byte-identical outputs. The trace, with every
span, is written to .perfbench/traces/.

Output checks, counted as failed operations: every (method, n) EER must be
finite and within [0, 100] and agree with the EER grid; repeated runs must
write identical files; on seed 0 the EER and threshold rows must equal
perfbench/reference/<workload>.json (written from the pipeline by
--write-reference). In verify-stream every single-window score must equal
the batched score of the same window within worker.SCORE_REL_TOL.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench"
DEADLINE_S = 170.0
# Set-up runs this many times before the job and again after it, so that
# its median spans the run rather than one moment of the CPU's speed.
SETUP_REPEATS = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def fail_layout(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


if not (ROOT / "src" / "appauth" / "__init__.py").is_file():
    fail_layout(f"no src/appauth package under {ROOT}; run from the repository root")
for var in THREAD_VARS:
    os.environ[var] = "1"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import appauth  # noqa: E402
from appauth import evaluation, ingest, simulate  # noqa: E402

from workloads import METHODS, WORKLOADS, cohort_spec, cut_cohort  # noqa: E402

if Path(appauth.__file__).resolve().parent != (ROOT / "src" / "appauth").resolve():
    fail_layout(f"appauth was imported from {appauth.__file__}, not from src/")


def calib_us(rounds: int = 200) -> float:
    """Median time of a fixed 60-step, 20-state forward recursion in numpy.

    Tracks the speed the CPU runs at, which varies over seconds on shared
    virtual machines; compare it between runs before comparing timings.
    """
    rng = np.random.default_rng(12345)
    trans = rng.random((20, 20))
    trans /= trans.sum(axis=1, keepdims=True)
    emit = rng.random((20, 200))
    emit /= emit.sum(axis=1, keepdims=True)
    seq = rng.integers(0, 200, 60)
    samples = []
    for _ in range(rounds):
        t0 = perf_counter()
        alpha = emit[:, seq[0]] / 20.0
        for t in range(1, seq.size):
            alpha = (alpha @ trans) * emit[:, seq[t]]
            alpha /= alpha.sum()
        samples.append(perf_counter() - t0)
    return statistics.median(samples) * 1e6


def environment(calib: list[float]) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "calib_us": calib,
    }


def setup(workload: dict, seed: int, run_dir: Path) -> tuple[float, float]:
    """Generate the workload's inputs; returns (set-up s, make_cohort s)."""
    t0 = perf_counter()
    cohort = simulate.make_cohort(cohort_spec(workload, seed))
    t1 = perf_counter()
    cohort = cut_cohort(workload, cohort)
    if workload["kind"] == "eval":
        rows = [ev for user in sorted(cohort) for ev in cohort[user]]
        ingest.write_event_log(rows, run_dir / "events.csv")
        config = {
            "data": "../events.csv",
            "out": "out",
            "periods": [workload["period"]],
            "n_values": workload["n_values"],
            "stride": workload["stride"],
            "methods": list(METHODS),
            "seed": 0,
        }
        (run_dir / "config.json").write_text(json.dumps(config))
    else:
        evaluation.prepare_cohort(cohort, workload["period"])
    return perf_counter() - t0, t1 - t0


def run_worker(job: dict, deadline: float) -> tuple[dict | None, float]:
    """Run one job in a fresh process; returns (result or None, wall s)."""
    rep_dir = Path(job["dir"])
    rep_dir.mkdir(parents=True)
    job_path = rep_dir / "job.json"
    job_path.write_text(json.dumps(job))
    t0 = perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), str(job_path)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=max(5.0, deadline - perf_counter()),
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: worker timed out in {rep_dir.name}", file=sys.stderr)
        return None, perf_counter() - t0
    wall = perf_counter() - t0
    if proc.returncode != 0 or not (rep_dir / "result.json").is_file():
        print(f"perfbench: worker exited {proc.returncode}:\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None, wall
    return json.loads((rep_dir / "result.json").read_text()), wall


def digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out_dir)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def eer_rows(out_dir: Path) -> dict[str, list[str]]:
    """(method, n) -> [threshold, eer] from metrics.csv, as written."""
    with open(out_dir / "metrics.csv", newline="") as fh:
        return {f"{r['method']},{r['n']}": [r["threshold"], r["eer"]] for r in csv.DictReader(fh)}


def grid_value(out_dir: Path, method: str, n: int, period: int) -> str | None:
    with open(out_dir / f"eer_grid_{method}.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            if row["n"] == str(n):
                return row.get(f"period_{period}")
    return None


def check_eval(workload: dict, out_dir: Path, reference: dict | None) -> tuple[int, int]:
    """(attempted, failed) over the (method, n) EER results of one run."""
    keys = [(m, n) for m in METHODS for n in workload["n_values"]]
    try:
        rows = eer_rows(out_dir)
    except (OSError, KeyError, csv.Error):
        return len(keys), len(keys)
    failed = 0
    for method, n in keys:
        row = rows.get(f"{method},{n}")
        try:
            ok = (
                row is not None
                and math.isfinite(float(row[0]))
                and 0.0 <= float(row[1]) <= 100.0
                and grid_value(out_dir, method, n, workload["period"]) == row[1]
                and (reference is None or reference.get(f"{method},{n}") == row)
            )
        except (OSError, ValueError, KeyError):
            ok = False
        failed += not ok
    return len(keys), failed


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(traced: dict, plain: dict, make_cohort_s: float, calib: float) -> dict:
    """Per-layer metrics from the traced job, the untraced job and set-up."""
    s = traced["trace"]
    tot, own, calls, cnt = s["total_s"], s["self_s"], s["calls"], s["counters"]
    t = lambda name: tot.get(name, 0.0)  # noqa: E731
    c = lambda name: cnt.get(name, 0)  # noqa: E731
    windows = {n: c(f"windows.n{n}") for n in (20, 60)}
    unique = {int(k): v for k, v in s["unique_windows"].items()}
    self_sum = sum(own.values())
    stream = plain.get("stream", {})
    return {
        "env.calib_us": calib,
        "ingest.parse_s": t("ingest.parse"),
        "ingest.rows": c("ingest.rows"),
        "ingest.rows_failed": c("ingest.rows_failed"),
        "ingest.sessionize_s": t("ingest.sessionize"),
        "ingest.resample_s": t("ingest.resample"),
        "ingest.samples": c("ingest.samples"),
        "encode.encode_s": t("encode.encode"),
        "encode.project_s": t("encode.project"),
        "encode.project_calls": calls.get("encode.project", 0),
        "encode.symbols": c("encode.symbols"),
        "evaluation.prepare_s": t("evaluation.prepare"),
        "evaluation.users_kept": c("evaluation.users_kept"),
        "evaluation.users_dropped": c("evaluation.users_dropped"),
        "evaluation.protocol_self_s": own.get("evaluation.protocol", 0.0),
        "evaluation.records": c("evaluation.records"),
        "evaluation.eer_s": t("evaluation.eer"),
        "models.hmm.baum_welch_s": t("models.hmm.baum_welch"),
        "models.hmm.em_iterations": c("hmm.em_iterations"),
        "models.hmm.step_us": 1e6 * ratio(t("models.hmm.baum_welch"), c("hmm.em_steps")),
        "models.hmm.score_s": t("models.hmm.score"),
        "models.hmm.windows_per_s": ratio(c("models.hmm.score.windows"), t("models.hmm.score")),
        "models.mshmm.score_s": t("models.mshmm.score"),
        "models.mshmm.windows_per_s": ratio(
            c("models.mshmm.score.windows"), t("models.mshmm.score")
        ),
        "models.med.score_s": t("models.med.score"),
        "models.med.cells": c("med.cells"),
        "models.med.cells_per_s": ratio(c("med.cells"), t("models.med.score")),
        "models.med.peak_mb": s["med_peak_mb"],
        "models.windows": sum(v for k, v in cnt.items() if k.startswith("windows.n")),
        "models.unique_windows": sum(unique.values()),
        "models.unique_window_ratio.n20": ratio(unique.get(20, 0), windows[20]),
        "models.unique_window_ratio.n60": ratio(unique.get(60, 0), windows[60]),
        "models.mc.score_s": t("models.mc.score"),
        "models.binary.score_s": t("models.binary.score"),
        "models.fit_s": own.get("models.fit", 0.0),
        "cli.write_s": t("cli.write"),
        "cli.load_cohort_calls": calls.get("ingest.parse", 0),
        "cli.self_s": own.get("cli.eval", 0.0),
        "simulate.make_cohort_s": make_cohort_s,
        "stream.enroll_s": stream.get("enroll_s", 0.0),
        "stream.decisions": stream.get("decisions", 0),
        "stream.decide_mshmm_p50_us": stream.get("decide_mshmm_p50_us", 0.0),
        "stream.decide_mshmm_p99_us": stream.get("decide_mshmm_p99_us", 0.0),
        "stream.decide_med_p50_us": stream.get("decide_med_p50_us", 0.0),
        "stream.decide_med_p99_us": stream.get("decide_med_p99_us", 0.0),
        "stream.max_rel_err": stream.get("max_rel_err", 0.0),
        "trace.job_s": traced["job_s"],
        "trace.overhead_s": traced["job_s"] - plain["job_s"],
        "trace.self_sum_s": self_sum,
        "trace.unaccounted_s": traced["job_s"] - self_sum,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description="appauth benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-reference", action="store_true", help="store this run's EER rows as the seed-0 reference"
    )
    args = parser.parse_args()
    deadline = perf_counter() + DEADLINE_S
    workload = WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    ref_path = BENCH / "reference" / f"{args.workload}.json"

    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        calib = [calib_us()]
        timings = [setup(workload, args.seed, run_dir) for _ in range(SETUP_REPEATS)]
        job = {"workload": args.workload, "seed": args.seed, "config": str(run_dir / "config.json")}

        results: list[dict | None] = []
        walls: list[float] = []
        measure_start = perf_counter()
        while True:
            rep = len(results)
            traced = bool(args.trace) and rep == 1
            result, wall = run_worker(
                {**job, "dir": str(run_dir / f"rep{rep}"), "trace": traced}, deadline
            )
            results.append(result)
            walls.append(wall)
            if args.trace:
                if rep == 1 or result is None:
                    break
            elif perf_counter() - measure_start + median(walls) > args.seconds:
                break
            if perf_counter() + 1.5 * max(walls) > deadline:
                break

        attempted = failed = 0
        reference = None
        if args.seed == 0 and workload["kind"] == "eval" and not args.write_reference:
            reference = json.loads(ref_path.read_text())["rows"]
        first_digest = None
        for rep, result in enumerate(results):
            out_dir = run_dir / f"rep{rep}" / "out"
            if workload["kind"] == "eval":
                a, f = check_eval(workload, out_dir, reference)
                if result is None or result["rc"] != 0:
                    f = a
                elif out_dir.is_dir():
                    d = digest(out_dir)
                    first_digest = first_digest or d
                    if d != first_digest:  # reruns and traced runs write the same files
                        f = a
            else:
                a, f = (result["attempted"], result["failed"]) if result else (1, 1)
            attempted += a
            failed += f
        if args.write_reference and failed == 0:
            ref_path.parent.mkdir(exist_ok=True)
            rows = eer_rows(run_dir / "rep0" / "out")
            ref_path.write_text(json.dumps({"seed": args.seed, "rows": rows}, indent=1) + "\n")

        timings += [setup(workload, args.seed, run_dir) for _ in range(SETUP_REPEATS)]
        calib.append(calib_us())
        env = environment(calib)
        print("env " + json.dumps(env, sort_keys=True))
        ok = [r for r in results if r is not None]
        if args.trace:
            if len(ok) < 2:
                values = {}
            else:
                values = layer_metrics(
                    ok[1], ok[0], median([m for _, m in timings]), median(calib)
                )
                trace_dir = WORK / "traces"
                trace_dir.mkdir(parents=True, exist_ok=True)
                spans = json.loads((run_dir / "rep1" / "spans.json").read_text())
                (trace_dir / f"{args.workload}-seed{args.seed}.json").write_text(
                    json.dumps(
                        {"env": env, "metrics": values, "summary": ok[1]["trace"], "spans": spans}
                    )
                )
                if ok[1]["trace"]["missing"]:
                    print(f"perfbench: not traced: {ok[1]['trace']['missing']}", file=sys.stderr)
        else:
            values = {
                "setup_s": median([s for s, _ in timings]),
                "job_s": median([r["job_s"] for r in ok]),
                "peak_rss_mb": median([r["peak_rss_mb"] for r in ok]),
            } if ok else {}
        metrics = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared
            if m["name"] in values
        }
        print(
            json.dumps(
                {
                    "correct": failed == 0 and len(metrics) == len(declared),
                    "attempted": max(attempted, 1),
                    "failed": failed if attempted else 1,
                    "metrics": metrics,
                }
            )
        )
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    main()
