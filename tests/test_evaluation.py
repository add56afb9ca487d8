"""Confusion metrics, EER estimation, and the reporting helpers."""

from __future__ import annotations

import csv
import multiprocessing
import tracemalloc
import weakref
from contextlib import contextmanager
from dataclasses import fields

import numpy as np
import pytest

from conftest import app, score_table, unk
from appauth import evaluation
from appauth.encode import Vocabulary
from appauth.evaluation import (
    BoxplotSummary,
    ConfusionCounts,
    ScoreTable,
    accuracy,
    confusion_counts,
    eer_threshold,
    equal_error_rate,
    evaluate_methods,
    f1,
    format_number,
    generate_score_records,
    overlap_matrix,
    prepare_cohort,
    roc_curve,
    sensitivity,
    specificity,
    top_apps_report,
    train_cohort_models,
    unknown_app_stats,
    write_roc_csv,
    write_scores_csv,
)
from appauth.ingest import RawEvent
from appauth.models import HMM_METHODS, METHOD_TAGS, TrainConfig, train_user_model
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
    users, matrix = overlap_matrix({"a": ("x", "y"), "b": ("y", "z", "w")})
    assert users == ["a", "b"]
    assert matrix[0, 0] == 100.0 and matrix[1, 1] == 100.0
    assert matrix[0, 1] == pytest.approx(50.0)  # |{y}| / |{x,y}|
    assert matrix[1, 0] == pytest.approx(100.0 / 3)
    with pytest.raises(ValueError):
        overlap_matrix({"a": ("x",)})
    with pytest.raises(ValueError):
        overlap_matrix({"a": {"x"}, "b": set()})


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
    rows = top_apps_report(samples)
    assert [r.app_id for r in rows] == ["chat", "mail", "solo"]  # tie broken by name
    chat = rows[0]
    assert chat.user_count == 2
    assert chat.per_user_usage == pytest.approx(3 / 2)
    assert chat.overall_usage == pytest.approx(3 / 3)
    assert chat.overall_usage == pytest.approx(chat.per_user_usage * chat.user_count / 3)


def test_top_apps_report_keeps_the_top_twenty():
    # app k is used k + 1 times, so the 20 most used are app24 down to app05
    samples = {"u1": [f"app{k:02d}" for k in range(25) for _ in range(k + 1)]}
    rows = top_apps_report(samples)
    assert [r.app_id for r in rows] == [f"app{k:02d}" for k in range(24, 4, -1)]
    assert [r.rank for r in rows] == list(range(1, 21))


def test_generate_score_records_protocol(tmp_path):
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
    rows = scores_csv_rows(table, tmp_path / "scores.csv")
    assert [end for mo, wo, end, _ in rows if mo == wo == "a"] == [3, 5, 7, 9]
    # cross scoring projects into the model's vocabulary: all-unknown, still scored
    assert table.scores[("a", "b")].size == 5
    assert len(table) == 4 + 5 + 5 + 4
    assert table.scores[("a", "a")].mean() > table.scores[("a", "b")].mean()


def scores_csv_rows(table, path):
    """`write_scores_csv`'s (model owner, window owner, end index, score)
    rows, written to `path`, end index as an int."""
    write_scores_csv(table, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["model_owner", "window_owner", "end_index", "score"]
    return [(mo, wo, int(end), score) for mo, wo, end, score in rows[1:]]


def test_score_and_roc_files_are_what_the_csv_module_writes(tmp_path, monkeypatch):
    """The writers fill a row template once per block of rows; their bytes
    equal csv.writer rows of `format_number` fields, with -0.0 kept as "-0"
    beside 0.0, owner names quoted and a "%" in them kept as it is, also
    with blocks of 2 rows, whose seams fall inside every pair and inside
    the curve."""
    values = np.array([0.0, -0.0, 2.5, -0.0, np.nan, -np.inf, 1e-300, 2.5, 123456789.0])
    owners = ["plain", "has,comma", 'has"quote', "has\nbreak", "100%", "%d"]
    scores = {(mo, wo): values[::-1].copy() if mo < wo else values for mo in owners for wo in owners}
    table = ScoreTable(3, 2, scores)
    curve = np.column_stack([values, values[::-1], values / 7.0])

    def reference(path, rows):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        return path.read_bytes()

    scores_rows = [["model_owner", "window_owner", "end_index", "score"]] + [
        [mo, wo, 2 + 2 * k, format_number(x)]
        for (mo, wo), s in table.scores.items()
        for k, x in enumerate(s)
    ]
    roc_rows = [["threshold", "far", "frr"]] + [
        [format_number(x) for x in row] for row in curve * (1.0, 100.0, 100.0)
    ]
    want = {
        name: reference(tmp_path / f"want_{name}", rows)
        for name, rows in (("scores.csv", scores_rows), ("roc.csv", roc_rows))
    }
    for write_rows in (evaluation.WRITE_ROWS, 2):
        monkeypatch.setattr(evaluation, "WRITE_ROWS", write_rows)
        write_scores_csv(table, tmp_path / "scores.csv")
        write_roc_csv(curve, tmp_path / "roc.csv")
        for name in want:
            assert (tmp_path / name).read_bytes() == want[name], (write_rows, name)
    assert b",-0\n" in (tmp_path / "roc.csv").read_bytes()
    assert b"\n100%,%d,4,-0\n" in (tmp_path / "scores.csv").read_bytes()


def test_score_and_roc_writers_hold_a_block_of_rows_at_a_time(tmp_path):
    """Writing a 200 000-row ROC curve, or one pair of 200 000 windows,
    peaks below 1 MiB (tracemalloc): about 0.65 and 0.46 MiB. Blocks of
    2**14 rows peaked at 2.6 and 1.8 MiB, and building one string per
    value before writing any at 78.9 and 27.0 MiB."""
    rng = np.random.default_rng(34)
    curve = np.column_stack([np.sort(rng.normal(size=200_000)), rng.random((200_000, 2))])
    table = ScoreTable(20, 1, {("a", "b"): rng.normal(size=200_000)})
    for write, data in ((write_roc_csv, curve), (write_scores_csv, table)):
        tracemalloc.start()
        try:
            write(data, tmp_path / "out.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, f"{write.__name__}: traced peak {peak / 2**20:.1f} MiB"


def test_generate_score_records_skips_short_owners(caplog):
    import logging

    vocab = Vocabulary(["x"])
    config = TrainConfig(n_states=2, max_iter=3, seed=0)
    model = train_user_model("mc", vocab.project([app("x", 0, 0)] * 30), vocab, config)
    with caplog.at_level(logging.WARNING):
        records = generate_score_records({"a": model}, {("a", "a"): vocab.project([app("x", 0, 0)] * 3)}, n=5)
    assert len(records) == 0
    assert any("window length" in m for m in caplog.messages)


def test_generate_score_records_returns_sorted_rows(tmp_path):
    vocab = Vocabulary(["x", "y"])
    config = TrainConfig(n_states=2, max_iter=3, seed=0)
    train = vocab.project([app("x", 0, 0), app("y", 1, 0)] * 20)
    models = {u: train_user_model("mc", train, vocab, config) for u in ("b", "a")}
    test_obs = {"b": [app("y", 0, 1)] * 9, "a": [app("x", 2, 0)] * 7}
    keys = [("b", "a"), ("a", "b"), ("b", "b"), ("a", "a")]  # unsorted insertion order
    projections = {(mo, wo): vocab.project(test_obs[wo]) for mo, wo in keys}
    table = generate_score_records(models, projections, n=3, stride=2)
    assert list(table.scores) == [("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")]
    rows = [row[:3] for row in scores_csv_rows(table, tmp_path / "scores.csv")]
    assert rows == sorted(rows)
    # a pair's array holds that pair's scores, in end-index order
    windows = np.lib.stride_tricks.sliding_window_view(projections[("b", "a")], 3)[::2]
    want = models["b"].score_windows(windows)
    np.testing.assert_array_equal(table.scores[("b", "a")], want)
    assert [end for mo, wo, end in rows if (mo, wo) == ("b", "a")] == [2, 4, 6]


def tiny_prepared():
    spec = CohortSpec(n_users=3, days=6, apps_per_user=8, seed=7)
    return prepare_cohort(make_cohort(spec), period=30, min_train=50, min_test=30)


def test_forked_fit_scores_equal_the_in_process_ones(monkeypatch):
    """`evaluate_methods` trains the HMMs in a forked child; every table is
    bit-identical to training all six methods in this process, and so is
    every HMM model the child sends back."""
    prepared = tiny_prepared()
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

    with evaluation._forked(train_cohort_models, HMM_METHODS, prepared, config) as result:
        forked = result()
    assert list(forked) == list(HMM_METHODS)
    for method, by_user in forked.items():
        assert list(by_user) == list(models[method])
        for user, model in by_user.items():
            local = models[method][user]
            params = "params" if method == "hmm-lap" else "base"
            for name in ("pi", "trans", "emit"):
                got = getattr(getattr(model, params), name)
                assert np.array_equal(got, getattr(getattr(local, params), name))
            if method == "mshmm":
                assert np.array_equal(model.emit_ext, local.emit_ext)
            assert model.trace == local.trace
            # the vocabulary crosses the pipe as its apps and rebuilds its tables
            assert model.vocab == local.vocab
            for table in (model.vocab.symbol_app, model.vocab.symbol_tz, model.vocab.symbol_day):
                assert not table.flags.writeable

    # with no HMM method the child still runs, returns {} and is reaped
    forked_methods = []
    real = evaluation._forked

    def recording(fn, *args):
        forked_methods.append(args[0])
        return real(fn, *args)

    monkeypatch.setattr(evaluation, "_forked", recording)
    tables = evaluate_methods(("mc", "bin-unk"), prepared, (5,), config, stride=3)
    assert forked_methods == [[]]
    assert not multiprocessing.active_children()
    for key, table in tables.items():
        assert list(table.scores) == list(want[key].scores)
        assert all(np.array_equal(s, want[key].scores[p]) for p, s in table.scores.items())


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


def test_evaluate_methods_releases_the_other_models_before_the_hmm_ones(monkeypatch):
    """The HMM-free models are unreachable once their tables are scored,
    before this process waits for and unpickles the child's HMM models."""
    prepared = tiny_prepared()
    refs: list[weakref.ref] = []
    alive_at_receive = []
    real_train, real_forked = evaluation.train_cohort_models, evaluation._forked

    def tracking_train(methods, *args):
        models = real_train(methods, *args)
        refs.extend(weakref.ref(m) for by_user in models.values() for m in by_user.values())
        return models

    @contextmanager
    def checking_fork(fn, *args):
        with real_forked(fn, *args) as result:

            def receive():
                alive_at_receive.append(sum(ref() is not None for ref in refs))
                return result()

            yield receive

    monkeypatch.setattr(evaluation, "train_cohort_models", tracking_train)
    monkeypatch.setattr(evaluation, "_forked", checking_fork)
    config = TrainConfig(n_states=3, max_iter=3, seed=7)
    evaluate_methods(METHOD_TAGS, prepared, (5,), config, stride=3)
    # only this process's call is recorded: the child's list is its own copy
    assert len(refs) == (len(METHOD_TAGS) - len(HMM_METHODS)) * len(prepared)
    assert alive_at_receive == [0]


def test_tables_do_not_depend_on_the_batch_size(monkeypatch):
    """Every table of all six methods is the same with BATCH_CELLS = 100,
    whose calls span pairs, also a pair of one window, and skip a pair
    shorter than n."""
    prepared = tiny_prepared()
    prepared["user01"].test_observations = prepared["user01"].test_observations[:7]
    config = TrainConfig(n_states=3, max_iter=3, seed=7)
    want = evaluate_methods(METHOD_TAGS, prepared, (5, 9), config, stride=3)
    monkeypatch.setattr(evaluation, "BATCH_CELLS", 100)
    got = evaluate_methods(METHOD_TAGS, prepared, (5, 9), config, stride=3)
    # At n = 9 each model owner's list is 69 + 98 windows (user01 is
    # skipped), scored in 16 calls of 10 or 11, so one call holds windows
    # 62 to 72; at n = 5 it is 70 + 1 + 99 windows in 9 calls of 18 or 19.
    assert [len(s) for s in got[("mc", 9)].scores.values()] == [69, 98] * 3
    assert [len(s) for s in got[("mc", 5)].scores.values()] == [70, 1, 99] * 3
    assert list(got) == list(want)
    for key, table in want.items():
        assert list(got[key].scores) == list(table.scores), key
        for pair, scores in table.scores.items():
            assert np.array_equal(got[key].scores[pair], scores), (key, pair)


def test_every_score_array_owns_its_memory():
    """A score array that is a view keeps its whole base alive, such as a
    (n, W) array of step logs, for as long as its table lives."""
    prepared = tiny_prepared()
    config = TrainConfig(n_states=3, max_iter=3, seed=7)
    tables = evaluate_methods(METHOD_TAGS, prepared, (5, 9), config, stride=3)
    assert {method for method, _ in tables} == set(METHOD_TAGS)
    for key, table in tables.items():
        assert table.scores
        for pair, scores in table.scores.items():
            assert scores.base is None, (key, pair)


def test_prepared_cohort_memory_is_bounded():
    """The default cohort prepared at period 5 (214 429 encoded symbols)
    holds each distinct observation once per encoded stream, not once per
    sample: its traced live memory stays under 6 MiB."""
    events = make_cohort(CohortSpec())
    tracemalloc.start()
    try:
        prepared = prepare_cohort(events, period=5)
        live = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(prepared) == 10
    assert live <= 6 * 2**20, f"prepared cohort holds {live} B"


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
