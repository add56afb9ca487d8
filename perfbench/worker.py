"""One timed job of a benchmark workload, run in a fresh process.

Usage: python3 perfbench/worker.py <job.json>

run.py starts one worker per repetition, so `ru_maxrss` is the peak
resident set of that job alone. The job description names the workload
and seed, the directory to work in and whether to trace; the worker writes
`result.json` there. It imports appauth from `src/` of the
current directory and from nowhere else.
"""

from __future__ import annotations

import json
import os
import resource
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter, perf_counter_ns

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import appauth  # noqa: E402

if Path(appauth.__file__).resolve().parent != (ROOT / "src" / "appauth").resolve():
    sys.exit(f"appauth was imported from {appauth.__file__}, not from src/")

from appauth import cli, evaluation, models, simulate  # noqa: E402

from tracer import Tracer, instrument  # noqa: E402
from workloads import WORKLOADS, cohort_spec, cut_cohort  # noqa: E402

# Largest relative difference allowed between a window's score computed
# alone (batch of one) and the same window's score inside a full batch.
# Both run the same float64 recursion; the difference seen is <= 6e-16.
SCORE_REL_TOL = 1e-12
STREAM_METHODS = ("mshmm", "med")


def run_eval(job: dict, tracer: Tracer | None) -> dict:
    """`appauth eval` from parsing the CSV to the last output file."""
    if tracer is not None:
        instrument(tracer)
    start = perf_counter()
    rc = cli.main(["eval", "--config", job["config"]])
    return {"job_s": perf_counter() - start, "rc": rc}


def _percentile_us(ns: list[int], q: float) -> float:
    return float(np.percentile(np.asarray(ns, dtype=np.float64), q)) / 1e3


def run_stream(job: dict, tracer: Tracer | None) -> dict:
    """Enroll each owner, then decide on every symbol of one intrusion stream.

    A closed loop with one device at a time: the next symbol arrives only
    after the previous decision. Each decision projects the new symbol and
    scores the trailing n-window as a batch of one.
    """
    workload, seed = WORKLOADS[job["workload"]], job["seed"]
    cohort = cut_cohort(workload, simulate.make_cohort(cohort_spec(workload, seed)))
    prepared = evaluation.prepare_cohort(cohort, workload["period"])
    if tracer is not None:
        instrument(tracer)
    config = models.TrainConfig(seed=0)
    n, segment = workload["n"], workload["segment"]
    users = sorted(prepared)
    enroll_s: list[float] = []
    latency_ns: dict[str, list[int]] = {m: [] for m in STREAM_METHODS}
    streams = []

    start = perf_counter()
    with tracer.span("stream.job") if tracer else nullcontext():
        for pos, owner in enumerate(users):
            p = prepared[owner]
            t0 = perf_counter()
            base = models.baum_welch(
                p.train_indices, p.vocab.size, config.n_states, config.max_iter, config.tol, config.seed
            )
            trained = {
                m: models.train_user_model(m, p.train_indices, p.vocab, config, base=base)
                for m in models.METHOD_TAGS
            }
            enroll_s.append(perf_counter() - t0)

            intruder = prepared[users[(pos + 1) % len(users)]]
            stream = simulate.inject_intrusion(
                p.test_observations,
                intruder.test_observations,
                np.random.SeedSequence((seed, pos)),
                segment,
            )
            buffers: dict[str, list[int]] = {m: [] for m in STREAM_METHODS}
            scores: dict[str, list[float]] = {m: [] for m in STREAM_METHODS}
            for obs in stream:
                for m in STREAM_METHODS:
                    model, buf = trained[m], buffers[m]
                    t0 = perf_counter_ns()
                    buf.append(int(model.vocab.project([obs])[0]))
                    if len(buf) >= n:
                        window = np.asarray(buf[-n:], dtype=np.int64)
                        score = float(model.score_windows(window[None])[0])
                        latency_ns[m].append(perf_counter_ns() - t0)
                        scores[m].append(score)
            streams.append((stream, {m: trained[m] for m in STREAM_METHODS}, scores))
    job_s = perf_counter() - start
    summary = tracer.summary() if tracer else None

    # Output check, outside the timed job and after the trace summary.
    decisions = failed = 0
    max_rel_err = 0.0
    for stream, trained, scores in streams:
        for m in STREAM_METHODS:
            model = trained[m]
            idx = model.vocab.project(stream)
            batched = model.score_windows(np.lib.stride_tricks.sliding_window_view(idx, n))
            single = np.asarray(scores[m], dtype=np.float64)
            decisions += single.size
            if batched.shape != single.shape:
                failed += single.size
                continue
            rel = np.abs(single - batched) / np.maximum(np.abs(batched), 1e-300)
            bad = ~np.isfinite(single) | ~np.isfinite(batched) | ~(rel <= SCORE_REL_TOL)
            failed += int(bad.sum())
            finite = rel[np.isfinite(rel)]
            if finite.size:
                max_rel_err = max(max_rel_err, float(finite.max()))
    return {
        "job_s": job_s,
        "rc": 0,
        "trace": summary,
        "attempted": decisions + len(users),
        "failed": failed,
        "stream": {
            "enroll_s": float(np.median(enroll_s)),
            "decisions": decisions,
            "max_rel_err": max_rel_err,
            **{
                f"decide_{m}_p{q}_us": _percentile_us(latency_ns[m], q)
                for m in STREAM_METHODS
                for q in (50, 99)
            },
        },
    }


def main(job_path: str) -> None:
    job = json.loads(Path(job_path).read_text())
    os.chdir(job["dir"])
    tracer = Tracer() if job["trace"] else None
    if WORKLOADS[job["workload"]]["kind"] == "eval":
        result = run_eval(job, tracer)
        if tracer is not None:
            result["trace"] = tracer.summary()
    else:
        result = run_stream(job, tracer)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        Path("spans.json").write_text(json.dumps(tracer.spans))
    Path("result.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
