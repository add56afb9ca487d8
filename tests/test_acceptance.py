"""Release acceptance gate: one test per criterion, at full stated scale.

Each criterion gets exactly one test whose verbose pytest line is the
pass/fail verdict; measured numbers are printed inside the test body.
The two synthetic cohorts (shared-pool for the accuracy criteria,
disjoint-pool for the intrusion criterion) are built once per session.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    brute_med_distance,
    enumerate_forward,
    forward_one,
    med_distance,
    random_hmm,
    random_observation,
)
from appauth.encode import KIND_APP, Vocabulary
from appauth.evaluation import (
    ConfusionCounts,
    accuracy,
    confusion_counts,
    equal_error_rate,
    evaluate_methods,
    f1,
    generate_score_records,
    prepare_cohort,
    sensitivity,
    specificity,
    top_apps_report,
    train_cohort_models,
    unknown_app_stats,
)
from appauth.ingest import group_by_user, parse_event_log
from appauth.models import MedModel, TrainConfig, baum_welch
from appauth.simulate import CohortSpec, genuine_score_thresholds, intrusion_study, make_cohort

# Frozen experiment constants for the cohort-based criteria. Changing any of
# these changes what the gate measures, so treat them as part of the contract.
EVAL_SPEC = CohortSpec(
    n_users=10,
    days=30,
    overlap=0.5,
    apps_per_user=30,
    concentration=0.3,
    context_spread=1.0,
    seed=0,
)
INTRUDE_SPEC = replace(EVAL_SPEC, overlap=0.0)
PERIOD = 30
STRIDE = 5
N_SHORT, N_LONG = 20, 60
METHODS = ("bin-unk", "med", "mc", "hmm-lap", "mshmm")
TRAIN = TrainConfig(seed=0)
INTRUDE_SEGMENT = 200
THRESHOLD_PERCENTILE = 5.0


@pytest.fixture(scope="session")
def cohort_eval():
    """Score records for all methods on the shared-pool cohort, plus the
    prepared users and the wall-clock cost of producing them."""
    start = time.perf_counter()
    prepared = prepare_cohort(make_cohort(EVAL_SPEC), PERIOD)
    records = evaluate_methods(METHODS, prepared, (N_SHORT, N_LONG), TRAIN, STRIDE)
    elapsed = time.perf_counter() - start
    return prepared, records, elapsed


@pytest.fixture(scope="session")
def intrusion_result():
    """Disjoint-pool splice study at n=60 with 5th-percentile thresholds."""
    start = time.perf_counter()
    prepared = prepare_cohort(make_cohort(INTRUDE_SPEC), PERIOD)
    models = train_cohort_models(["mshmm"], prepared, TRAIN)["mshmm"]
    genuine = {(u, u): models[u].vocab.project(p.test_observations) for u, p in prepared.items()}
    genuine_records = generate_score_records(models, genuine, N_LONG, STRIDE)
    thresholds = genuine_score_thresholds(genuine_records, THRESHOLD_PERCENTILE)
    study = intrusion_study(
        models,
        {u: p.test_observations for u, p in prepared.items()},
        N_LONG,
        thresholds,
        seed=0,
        segment=INTRUDE_SEGMENT,
    )
    elapsed = time.perf_counter() - start
    return study, elapsed


def eer_table(records) -> dict[tuple[str, int], float]:
    return {key: equal_error_rate(recs) for key, recs in records.items()}


def test_criterion_01_forward_matches_path_enumeration():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n_states = int(rng.integers(1, 4))
        n_symbols = int(rng.integers(1, 6))
        n = int(rng.integers(1, 7))
        params = random_hmm(rng, n_states, n_symbols)
        window = rng.integers(0, n_symbols, size=n)
        got = forward_one(params, window)
        want = enumerate_forward(params, window)
        # Both values are logs; the likelihood-domain relative error is
        # |exp(got - want) - 1|, which expm1 computes without cancellation.
        rel = abs(math.expm1(got - want))
        assert rel <= 1e-9, (got, want, rel)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    print(f"criterion 1: 200 HMMs, worst relative likelihood error {worst:.3e}, {elapsed:.2f}s")
    assert elapsed < 10.0


def test_criterion_02_em_log_likelihood_never_decreases():
    start = time.perf_counter()
    worst_drop = 0.0
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        n_symbols = 30
        probs = rng.dirichlet(np.full(n_symbols, 0.5))
        sequence = rng.choice(n_symbols, size=240, p=probs)
        _, trace = baum_welch(sequence, n_symbols, 20, 50, 0.0, seed)
        diffs = np.diff(trace.log_likelihoods)
        worst_drop = min(worst_drop, float(diffs.min()))
        assert (diffs >= -1e-8).all(), (seed, diffs.min())
    elapsed = time.perf_counter() - start
    print(f"criterion 2: 50 runs, worst iteration-to-iteration drop {worst_drop:.3e}, {elapsed:.2f}s")
    assert elapsed < 120.0


def test_criterion_03_matcher_equals_exhaustive_alignment():
    apps = ["a", "b"]
    vocab = Vocabulary(apps)
    rng = np.random.default_rng(303)
    start = time.perf_counter()
    for _ in range(500):
        text_len = int(rng.integers(1, 9))
        win_len = int(rng.integers(1, min(text_len, 4) + 1))
        text_obs = [random_observation(rng, apps) for _ in range(text_len)]
        win_obs = [random_observation(rng, apps) for _ in range(win_len)]
        model = MedModel.fit(vocab.project(text_obs), vocab)
        got = med_distance(model, vocab.project(win_obs))
        want = brute_med_distance(win_obs, text_obs)
        assert got == want, (text_obs, win_obs)
    elapsed = time.perf_counter() - start
    print(f"criterion 3: 500 instances exact, {elapsed:.2f}s")
    assert elapsed < 30.0


def test_criterion_04_symmetric_confusion_gives_50_percent_everywhere():
    cc = ConfusionCounts(tp=1, fp=1, tn=1, fn=1)
    values = [metric(cc) for metric in (sensitivity, specificity, accuracy, f1)]
    print(f"criterion 4: sensitivity/specificity/accuracy/f1 = {values}")
    assert values == [50.0, 50.0, 50.0, 50.0]


def test_criterion_05_usage_share_identity_on_26_user_cohort():
    # One app used by 25 of 26 users, 6381 samples in total (mean 255.24 per
    # using user); the cohort-wide mean must equal the per-user mean * 25/26.
    counts = [255] * 25
    for i in range(6):
        counts[i] += 1
    assert sum(counts) == 6381
    samples = {
        f"user{i:02d}": ["app.popular"] * counts[i] + ["app.other"] * 5 for i in range(25)
    }
    samples["user25"] = ["app.solo"] * 40
    rows = top_apps_report(samples)
    top = rows[0]
    assert top.app_id == "app.popular"
    assert top.user_count == 25
    assert top.per_user_usage == 6381 / 25
    print(
        f"criterion 5: per_user {top.per_user_usage:.2f}, overall {top.overall_usage:.4f}, "
        f"per_user*25/26 {top.per_user_usage * 25 / 26:.4f}"
    )
    assert top.overall_usage == top.per_user_usage * 25 / 26


def test_criterion_06_mshmm_at_least_matches_every_other_method(cohort_eval):
    _, records, elapsed = cohort_eval
    eers = eer_table(records)
    lines = ", ".join(
        f"{m} n={n}: {eers[(m, n)]:.2f}" for m in METHODS for n in (N_SHORT, N_LONG)
    )
    print(f"criterion 6: EER% {lines} ({elapsed:.1f}s)")
    for n in (N_SHORT, N_LONG):
        for rival in ("mc", "hmm-lap", "med"):
            assert eers[("mshmm", n)] <= eers[(rival, n)] + 2.0, (rival, n)
    assert elapsed < 600.0


def test_criterion_07_mshmm_does_not_degrade_with_longer_windows(cohort_eval):
    _, records, _ = cohort_eval
    eers = eer_table(records)
    short, long = eers[("mshmm", N_SHORT)], eers[("mshmm", N_LONG)]
    print(f"criterion 7: mshmm EER n=20 {short:.2f} -> n=60 {long:.2f}")
    assert long <= short + 2.0


def test_criterion_08_unknown_rule_trend_with_window_length(cohort_eval):
    _, records, _ = cohort_eval
    by_n = {n: confusion_counts(records[("bin-unk", n)], 0.5) for n in (N_SHORT, N_LONG)}
    sens = {n: sensitivity(cc) for n, cc in by_n.items()}
    spec = {n: specificity(cc) for n, cc in by_n.items()}
    print(
        f"criterion 8: sensitivity {sens[N_SHORT]:.2f} -> {sens[N_LONG]:.2f}, "
        f"specificity {spec[N_SHORT]:.2f} -> {spec[N_LONG]:.2f}"
    )
    assert sens[N_LONG] <= sens[N_SHORT] + 2.0
    assert spec[N_LONG] >= spec[N_SHORT] - 2.0


def test_criterion_09_impostors_hit_more_unknown_apps(cohort_eval):
    prepared, _, _ = cohort_eval
    assert EVAL_SPEC.overlap <= 0.7
    vocabs = {u: p.vocab for u, p in prepared.items()}
    test_apps = {
        u: [o.app_id for o in p.test_observations if o.kind == KIND_APP]
        for u, p in prepared.items()
    }
    stats = unknown_app_stats(vocabs, test_apps)
    print(
        f"criterion 9: mean unknown-app % genuine {stats.genuine.mean:.3f}, "
        f"impostor {stats.impostor.mean:.3f}"
    )
    assert stats.impostor.mean > stats.genuine.mean


def test_criterion_10_intruders_are_caught_within_five_windows(intrusion_result):
    study, elapsed = intrusion_result
    rate = study.detection_rate(within=5)
    latencies = sorted(r.latency for r in study.rows if r.latency is not None)
    print(
        f"criterion 10: {len(study.rows)} pairs, {100 * rate:.1f}% within 5 windows, "
        f"median latency {latencies[len(latencies) // 2] if latencies else None}, {elapsed:.1f}s"
    )
    assert len(study.rows) == INTRUDE_SPEC.n_users * (INTRUDE_SPEC.n_users - 1)
    assert rate >= 0.80
    assert elapsed < 300.0


def test_criterion_11_external_dataset_reproduction():
    root = os.environ.get("APPAUTH_UMDAA02_DIR")
    if not root:
        pytest.skip("set APPAUTH_UMDAA02_DIR to a directory of event-log CSVs to enable")
    paths = sorted(Path(root).glob("*.csv"))
    if not paths:
        pytest.skip(f"no event-log CSVs found under {root}")
    events = []
    for path in paths:
        events += parse_event_log(path)[0]
    prepared = prepare_cohort(group_by_user(events), PERIOD)
    records = evaluate_methods(("med",), prepared, (N_SHORT,), TRAIN)
    eer = equal_error_rate(records[("med", N_SHORT)])
    print(f"criterion 11: matcher EER at period 30, n=20: {eer:.2f}%")
    assert eer == pytest.approx(43.20, abs=1.5)
