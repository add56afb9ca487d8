"""Confusion metrics, EER estimation, and the reporting helpers."""

from __future__ import annotations

import csv
import io
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from conftest import app, score_table, unk
from appauth.encode import Vocabulary
from appauth.evaluation import (
    BoxplotSummary,
    ConfusionCounts,
    accuracy,
    app_similarity_matrix,
    confusion_counts,
    eer_threshold,
    equal_error_rate,
    evaluate_methods,
    f1,
    format_number,
    generate_score_records,
    observation_similarity_matrix,
    overlap_matrix,
    prepare_cohort,
    roc_curve,
    sensitivity,
    specificity,
    top_apps_report,
    train_cohort_models,
    unknown_app_stats,
    write_scores_csv,
)
from appauth.ingest import RawEvent
from appauth.models import METHOD_TAGS, TrainConfig, train_user_model
from appauth.simulate import CohortSpec, make_cohort


def test_genuine_flag():
    table = score_table([("v", "v", 4.0), ("u", "v", 2.0), ("v", "u", 3.0), ("u", "u", 1.0)])
    assert list(table.scores) == [("u", "u"), ("u", "v"), ("v", "u"), ("v", "v")]
    genuine, impostor = table.sides()
    assert genuine.tolist() == [1.0, 4.0]
    assert impostor.tolist() == [2.0, 3.0]


def test_confusion_counts_accept_at_threshold():
    records = score_table([("u", "u", 2.0), ("u", "u", 1.0), ("u", "v", 2.0), ("u", "v", 0.5)])
    cc = confusion_counts(records, threshold=2.0)
    assert (cc.tp, cc.fn, cc.fp, cc.tn) == (1, 1, 1, 1)


def test_symmetric_case_all_metrics_fifty():
    cc = ConfusionCounts(tp=1, fp=1, tn=1, fn=1)
    assert sensitivity(cc) == 50.0
    assert specificity(cc) == 50.0
    assert accuracy(cc) == 50.0
    assert f1(cc) == 50.0


def test_metric_formulas_hand_case():
    cc = ConfusionCounts(tp=8, fp=2, tn=6, fn=4)
    assert sensitivity(cc) == pytest.approx(100 * 8 / 12)
    assert specificity(cc) == pytest.approx(100 * 6 / 8)
    assert accuracy(cc) == pytest.approx(100 * 14 / 20)
    assert f1(cc) == pytest.approx(100 * 16 / (16 + 2 + 4))


def test_metrics_refuse_empty_denominators():
    no_genuine = ConfusionCounts(tp=0, fp=1, tn=1, fn=0)
    with pytest.raises(ValueError):
        sensitivity(no_genuine)
    no_impostor = ConfusionCounts(tp=1, fp=0, tn=0, fn=1)
    with pytest.raises(ValueError):
        specificity(no_impostor)
    nothing = ConfusionCounts(tp=0, fp=0, tn=0, fn=0)
    with pytest.raises(ValueError):
        accuracy(nothing)
    with pytest.raises(ValueError):
        f1(ConfusionCounts(tp=0, fp=0, tn=1, fn=0))


def genuine_impostor_table(genuine, impostor):
    """Genuine rows for u's model on u, impostor rows for u's model on v."""
    return score_table([("u", "u", g) for g in genuine] + [("u", "v", s) for s in impostor])


def test_eer_perfectly_separated_is_zero():
    assert equal_error_rate(genuine_impostor_table([3.0, 4.0], [1.0, 2.0])) == 0.0


def test_eer_identical_distributions_is_fifty():
    assert equal_error_rate(genuine_impostor_table([1.0, 2.0], [1.0, 2.0])) == pytest.approx(50.0)


def test_eer_interleaved_is_fifty():
    assert equal_error_rate(genuine_impostor_table([1.0, 3.0], [0.0, 2.0])) == pytest.approx(50.0)


def test_eer_reversed_scores_worse_than_chance():
    assert equal_error_rate(genuine_impostor_table([1.0, 2.0], [3.0, 4.0])) == pytest.approx(100.0)


def test_eer_interpolates_between_sweep_points():
    genuine = [1.0, 2.0, 3.0, 4.0]
    impostor = [0.5, 1.5, 1.6, 1.7]
    eer = equal_error_rate(genuine_impostor_table(genuine, impostor))
    assert 0.0 < eer < 50.0
    # crossing is where FRR rises past FAR: between 25% and 50% FRR here
    assert eer == pytest.approx(25.0, abs=10.0)


def test_equal_error_rate_reads_records():
    records = score_table([("u", "u", 3.0), ("u", "u", 4.0), ("u", "v", 1.0), ("u", "v", 2.0)])
    assert equal_error_rate(records) == 0.0
    with pytest.raises(ValueError):
        equal_error_rate(score_table([("u", "u", 1.0)]))  # no impostor side


def test_eer_threshold_sits_at_the_crossing():
    records = score_table([("u", "u", 3.0), ("u", "u", 4.0), ("u", "v", 1.0), ("u", "v", 2.0)])
    eer, threshold = eer_threshold(roc_curve(records))
    assert eer == 0.0
    assert 2.0 < threshold <= 3.0
    cc = confusion_counts(records, threshold)
    assert cc.fn == 0 and cc.fp == 0


def test_roc_curve_rates_are_monotone():
    rng = np.random.default_rng(0)
    records = score_table(
        [("u", "u", s) for s in rng.normal(1.0, 1.0, 60)]
        + [("u", "v", s) for s in rng.normal(-1.0, 1.0, 60)]
    )
    thresholds, far, frr = roc_curve(records).T
    assert np.all(np.diff(thresholds) > 0)
    assert np.all(np.diff(far) <= 1e-12)  # FAR falls as threshold rises
    assert np.all(np.diff(frr) >= -1e-12)
    assert far.max() <= 1.0 and frr.max() <= 1.0


def test_roc_curve_leaves_the_table_unsorted():
    table = score_table([("u", "u", 2.0), ("u", "u", 1.0), ("u", "v", 4.0), ("u", "v", 3.0)])
    roc_curve(table)
    assert [s.tolist() for s in table.scores.values()] == [[2.0, 1.0], [4.0, 3.0]]


def test_format_number_trims_noise():
    assert format_number(5.0) == "5"
    assert format_number(0.123456789) == "0.123457"
    assert format_number(50.0) == "50"


def test_boxplot_summary_quartiles():
    summary = BoxplotSummary.of([1.0, 2.0, 3.0, 4.0, 5.0])
    assert summary.median == 3.0
    assert summary.q1 == 2.0
    assert summary.q3 == 4.0


def test_app_similarity_matrix_row_normalized():
    users, matrix = app_similarity_matrix(
        {"a": Vocabulary(["x", "y"]), "b": Vocabulary(["y", "z", "w"])}
    )
    assert users == ["a", "b"]
    assert matrix[0, 0] == 100.0 and matrix[1, 1] == 100.0
    assert matrix[0, 1] == pytest.approx(50.0)  # |{y}| / |{x,y}|
    assert matrix[1, 0] == pytest.approx(100.0 / 3)
    with pytest.raises(ValueError):
        app_similarity_matrix({"a": Vocabulary(["x"])})
    with pytest.raises(ValueError):
        overlap_matrix({"a": {"x"}, "b": set()})


def test_observation_similarity_uses_full_triples_without_markers():
    from conftest import PSI

    sets = {
        "a": [app("x", 0, 0), app("x", 1, 0), PSI],
        "b": [app("x", 0, 0), app("y", 0, 0), PSI],
    }
    users, matrix = observation_similarity_matrix(sets)
    assert matrix[0, 1] == pytest.approx(50.0)  # only (x, tz0, wd) shared


def test_unknown_app_stats_pairs():
    vocabs = {"a": Vocabulary(["x", "y"]), "b": Vocabulary(["y", "z"])}
    test_apps = {"a": ["x", "x", "z", "y"], "b": ["z", "z", "q"]}
    stats = unknown_app_stats(vocabs, test_apps)
    by_pair = {(m, t): pct for m, t, pct in stats.pairs}
    assert by_pair[("a", "a")] == pytest.approx(25.0)  # z unknown to a
    assert by_pair[("a", "b")] == pytest.approx(100.0)
    assert by_pair[("b", "a")] == pytest.approx(50.0)  # both x unknown to b
    assert by_pair[("b", "b")] == pytest.approx(100.0 / 3)
    assert stats.impostor.median > stats.genuine.median


def test_top_apps_ranking_and_usage_arithmetic():
    samples = {
        "u1": ["chat", "chat", "mail"],
        "u2": ["chat", "mail", "mail"],
        "u3": ["solo"],
    }
    rows = top_apps_report(samples, k=10)
    assert [r.app_id for r in rows] == ["chat", "mail", "solo"]  # tie broken by name
    chat = rows[0]
    assert chat.user_count == 2
    assert chat.per_user_usage == pytest.approx(3 / 2)
    assert chat.overall_usage == pytest.approx(3 / 3)
    assert chat.overall_usage == pytest.approx(chat.per_user_usage * chat.user_count / 3)


def test_generate_score_records_protocol():
    vocab_a = Vocabulary(["x"])
    vocab_b = Vocabulary(["y"])
    config = TrainConfig(n_states=2, max_iter=3, seed=0)
    train_a = vocab_a.project([app("x", 0, 0)] * 50)
    train_b = vocab_b.project([app("y", 0, 0)] * 50)
    models = {
        "a": train_user_model("mc", train_a, vocab_a, config),
        "b": train_user_model("mc", train_b, vocab_b, config),
    }
    test_obs = {
        "a": [app("x", 0, 0)] * 10,
        "b": [app("y", 1, 0)] * 12,
    }
    projections = {(mo, wo): models[mo].vocab.project(test_obs[wo]) for mo in models for wo in test_obs}
    table = generate_score_records(models, projections, n=4, stride=2)
    assert (table.n, table.stride) == (4, 2)
    # window ends 3, 5, 7, 9 for a (10 symbols) and 3..11 for b
    assert table.scores[("a", "a")].size == 4
    assert table.scores[("b", "b")].size == 5
    assert [end for mo, wo, end, _ in scores_csv_rows(table) if mo == wo == "a"] == [3, 5, 7, 9]
    # cross scoring projects into the model's vocabulary: all-unknown, still scored
    assert table.scores[("a", "b")].size == 5
    assert len(table) == 4 + 5 + 5 + 4
    assert table.scores[("a", "a")].mean() > table.scores[("a", "b")].mean()


def scores_csv_rows(table):
    """`write_scores_csv`'s (model owner, window owner, end index, score)
    rows, end index as an int."""
    out = io.StringIO()
    write_scores_csv(table, out)
    rows = list(csv.reader(io.StringIO(out.getvalue())))
    assert rows[0] == ["model_owner", "window_owner", "end_index", "score"]
    return [(mo, wo, int(end), score) for mo, wo, end, score in rows[1:]]


def test_generate_score_records_skips_short_owners(caplog):
    import logging

    vocab = Vocabulary(["x"])
    config = TrainConfig(n_states=2, max_iter=3, seed=0)
    model = train_user_model("mc", vocab.project([app("x", 0, 0)] * 30), vocab, config)
    with caplog.at_level(logging.WARNING):
        records = generate_score_records({"a": model}, {("a", "a"): vocab.project([app("x", 0, 0)] * 3)}, n=5)
    assert len(records) == 0
    assert any("window length" in m for m in caplog.messages)


def test_generate_score_records_returns_sorted_rows():
    vocab = Vocabulary(["x", "y"])
    config = TrainConfig(n_states=2, max_iter=3, seed=0)
    train = vocab.project([app("x", 0, 0), app("y", 1, 0)] * 20)
    models = {u: train_user_model("mc", train, vocab, config) for u in ("b", "a")}
    test_obs = {"b": [app("y", 0, 1)] * 9, "a": [app("x", 2, 0)] * 7}
    keys = [("b", "a"), ("a", "b"), ("b", "b"), ("a", "a")]  # unsorted insertion order
    projections = {(mo, wo): vocab.project(test_obs[wo]) for mo, wo in keys}
    table = generate_score_records(models, projections, n=3, stride=2)
    assert list(table.scores) == [("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")]
    rows = [row[:3] for row in scores_csv_rows(table)]
    assert rows == sorted(rows)
    # a pair's array holds that pair's scores, in end-index order
    windows = np.lib.stride_tricks.sliding_window_view(projections[("b", "a")], 3)[::2]
    want = models["b"].score_windows(windows)
    np.testing.assert_array_equal(table.scores[("b", "a")], want)
    assert [end for mo, wo, end in rows if (mo, wo) == ("b", "a")] == [2, 4, 6]


def test_forked_fit_scores_equal_the_in_process_ones():
    """`evaluate_methods` fits the HMMs in a forked child; every table is
    bit-identical to training all six methods in this process."""
    spec = CohortSpec(n_users=3, days=6, apps_per_user=8, seed=7)
    prepared = prepare_cohort(make_cohort(spec), period=30, min_train=50, min_test=30)
    assert len(prepared) == 3
    config = TrainConfig(n_states=3, max_iter=6, seed=7)
    methods = METHOD_TAGS[::-1]  # not in table order, nor with the HMM variants last
    tables = evaluate_methods(methods, prepared, (5, 9), config, stride=3)
    models = train_cohort_models(METHOD_TAGS, prepared, config)
    projections = {
        (mo, wo): prepared[mo].vocab.project(prepared[wo].test_observations)
        for mo in prepared
        for wo in prepared
    }
    want = {
        (m, n): generate_score_records(models[m], projections, n, stride=3)
        for m in methods
        for n in (5, 9)
    }
    assert list(tables) == list(want)
    for key, table in want.items():
        assert list(tables[key].scores) == list(table.scores), key
        for pair, scores in table.scores.items():
            assert np.array_equal(tables[key].scores[pair], scores), (key, pair)


def test_evaluate_methods_memory_is_bounded_by_its_scores():
    """A table holds one 8-byte score per window and nothing per window
    besides: scoring a 10-user cohort at every length keeps its traced peak,
    models and projections included, within twice the scores it returns."""
    prepared = prepare_cohort(make_cohort(CohortSpec(n_users=10, days=30)), period=30)
    assert len(prepared) == 10
    tracemalloc.start()
    try:
        tables = evaluate_methods(
            ("mc", "bin-unk"), prepared, (20, 30, 40, 50, 60), TrainConfig(max_iter=5), stride=1
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    windows = sum(len(table) for table in tables.values())
    assert windows > 10**6
    assert peak <= 2 * 8 * windows, f"traced peak {peak} B for {windows} scored windows"


def app_run(user, start, count, gap=30):
    """`count` app events `gap` seconds apart: one implicit session."""
    return [RawEvent(user, start + gap * k, "app", "a") for k in range(count)]


def test_prepare_cohort_applies_min_train_and_min_test(caplog):
    # one session each at period 30: 20 samples split 14/6, 10 split 7/3
    events = {"big": app_run("big", 3600, 20), "small": app_run("small", 3600, 10)}

    def kept(min_train, min_test):
        return sorted(prepare_cohort(events, 30, min_train=min_train, min_test=min_test))

    assert kept(14, 6) == ["big"]
    assert kept(15, 1) == []  # too little training data
    assert kept(1, 7) == []  # too little test data
    assert kept(7, 3) == ["big", "small"]

    # no sessions, and one sample that cannot be split: dropped at any bounds
    short = {
        "locks": [RawEvent("locks", 1000, "unlock"), RawEvent("locks", 1060, "lock")],
        "one": [RawEvent("one", 1000, "unlock"), *app_run("one", 1000, 1)],
    }
    for min_train, min_test in [(0, 0), (7, 3)]:
        caplog.clear()
        alone = prepare_cohort(events, 30, min_train=min_train, min_test=min_test)
        mixed = prepare_cohort({**short, **events}, 30, min_train=min_train, min_test=min_test)
        assert "user locks ineligible: 0 train / 0 test samples" in caplog.text
        assert "user one ineligible: 0 train / 1 test samples" in caplog.text
        assert list(mixed) == list(alone)
        for user, p in alone.items():
            for f in fields(p):
                np.testing.assert_equal(getattr(mixed[user], f.name), getattr(p, f.name))


def test_prepare_cohort_counts_app_samples_not_markers():
    # four sessions of five samples, separated by more than the idle gap:
    # 14 train / 6 test app samples, plus a session-start marker per session
    events = {"u": [ev for k in range(4) for ev in app_run("u", 3600 + 1000 * k, 5)]}
    p = prepare_cohort(events, 30, min_train=1, min_test=1)["u"]
    assert (p.train_indices.size, len(p.test_observations)) == (17, 8)
    assert list(prepare_cohort(events, 30, min_train=14, min_test=6)) == ["u"]
    assert prepare_cohort(events, 30, min_train=15, min_test=6) == {}
    assert prepare_cohort(events, 30, min_train=14, min_test=7) == {}
