"""Marginal tables and the marginal-smoothed emission extension."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from conftest import DELTA, PSI, app, forward_one, hmm_base, random_hmm, score_one, unk
from appauth.encode import N_DAY, N_TZ, Vocabulary
from appauth.models.core import DEFAULT_DELTA, TrainConfig
from appauth.models.hmm import TrainingTrace
from appauth.models.mshmm import MsHmmModel, marginal_tables

D = DEFAULT_DELTA


def test_marginals_degenerate_single_app():
    vocab = Vocabulary(["a"])
    train = vocab.project([app("a", 0, 0)] * 5)
    p_tz, p_day = marginal_tables(train, vocab)
    assert p_tz.tolist() == [[1.0, 0.0, 0.0]]
    assert p_day.tolist() == [[1.0, 0.0]]


def test_marginals_two_apps_two_blocks_symmetry():
    vocab = Vocabulary(["a", "b"])
    train = vocab.project([app("a", 0, 0), app("a", 1, 0), app("b", 0, 0), app("b", 1, 0)])
    p_tz, p_day = marginal_tables(train, vocab)
    for rank in (0, 1):
        for tz in (0, 1):
            assert p_tz[rank, tz] == 0.25
        assert p_day[rank, 0] == 0.5


def test_marginal_tables_sum_to_one():
    vocab = Vocabulary(["a", "b", "c"])
    rng = np.random.default_rng(2)
    train = rng.integers(0, vocab.unknown_base, size=200)
    p_tz, p_day = marginal_tables(train, vocab)
    assert p_tz.sum() == pytest.approx(1.0, abs=1e-9)
    assert p_day.sum() == pytest.approx(1.0, abs=1e-9)


def test_marginals_ignore_markers_and_reject_marker_only_input():
    vocab = Vocabulary(["a"])
    with_markers = vocab.project([PSI, app("a", 0, 0), PSI, app("a", 1, 0)])
    p_tz, _ = marginal_tables(with_markers, vocab)
    assert p_tz[0, 0] == 0.5  # denominator is app samples only
    with pytest.raises(ValueError):
        marginal_tables(vocab.project([PSI, PSI]), vocab)


def test_marginals_absent_app_lookup_is_zero():
    vocab = Vocabulary(["a", "ghost"])  # "ghost" never occurs in training
    p_tz, p_day = marginal_tables(vocab.project([app("a", 0, 0)]), vocab)
    ghost = vocab.apps.index("ghost")
    assert p_tz[ghost].tolist() == [0.0, 0.0, 0.0]
    assert p_day[ghost].tolist() == [0.0, 0.0]


def fit_small(train_obs, apps, seed=0, max_iter=8, n_states=3):
    vocab = Vocabulary(apps)
    train = vocab.project(train_obs)
    config = TrainConfig(n_states=n_states, max_iter=max_iter, seed=seed)
    model = MsHmmModel.fit(train, vocab, config, hmm_base(train, vocab, config))
    return vocab, model


def test_emission_branches_from_hand_built_marginals():
    # 10 app samples; "a" appears once in block 0 (weekend) and once on a
    # weekday (block 1), so P(a, block0) = 0.1 and P(a, weekday) = 0.2 while
    # the triple (a, block0, weekday) itself stays unseen.
    train_obs = [app("a", 0, 1), app("a", 1, 0), app("a", 2, 0)] + [app("b", 2, 1)] * 7
    vocab, model = fit_small(train_obs, ["a", "b"])
    idx = vocab.index_of(app("a", 0, 0))
    for state in range(3):
        assert model.emit_ext[state, idx] == pytest.approx(0.1 * 0.2, rel=1e-12)


def test_emission_single_factor_floor_for_absent_marginal():
    train_obs = [app("a", 0, 0)] * 6
    vocab, model = fit_small(train_obs, ["a"])
    # unseen triple with one zero marginal: max(d, 1.0) * max(d, 0.0) = d
    assert model.emit_ext[0, vocab.index_of(app("a", 0, 1))] == pytest.approx(D, rel=1e-12)
    assert model.emit_ext[0, vocab.index_of(app("a", 1, 0))] == pytest.approx(D, rel=1e-12)
    # both marginals absent: d * d
    assert model.emit_ext[0, vocab.index_of(app("a", 1, 1))] == pytest.approx(D * D, rel=1e-12)


def test_emission_unknown_and_unseen_markers_get_two_factor_floor():
    train_obs = [app("a", 0, 0)] * 6  # no markers in training
    vocab, model = fit_small(train_obs, ["a"])
    assert model.emit_ext[1, vocab.index_of(unk(2, 1))] == pytest.approx(D * D, rel=1e-12)
    assert model.emit_ext[1, vocab.session_start_index] == pytest.approx(D * D, rel=1e-12)
    assert model.emit_ext[1, vocab.day_change_index] == pytest.approx(D * D, rel=1e-12)


def test_emission_seen_symbols_keep_learned_values():
    rng = np.random.default_rng(3)
    vocab = Vocabulary(["a", "b"])
    train = rng.integers(0, vocab.unknown_base, size=300)
    config = TrainConfig(n_states=4, max_iter=10, seed=1)
    model = MsHmmModel.fit(train, vocab, config, hmm_base(train, vocab, config))
    seen_cols = sorted(set(train.tolist()))
    for state in range(4):
        for col in seen_cols:
            want = max(model.base.emit[state, col], D)
            assert model.emit_ext[state, col] == want


def test_emission_is_total_and_positive():
    rng = np.random.default_rng(5)
    vocab = Vocabulary(["a", "b", "c"])
    train = rng.integers(0, vocab.unknown_base, size=400)
    config = TrainConfig(n_states=5, max_iter=50, tol=0.0, seed=2)
    model = MsHmmModel.fit(train, vocab, config, hmm_base(train, vocab, config))
    for state in range(5):
        for col in range(vocab.size):
            assert model.emit_ext[state, col] > 0.0


def test_unseen_emission_is_state_independent():
    train_obs = [app("a", 0, 0), app("a", 1, 0)] * 10
    vocab, model = fit_small(train_obs, ["a"], n_states=4)
    idx = vocab.index_of(app("a", 2, 1))
    values = {model.emit_ext[s, idx] for s in range(4)}
    assert len(values) == 1


def test_fully_seen_window_matches_base_forward():
    rng = np.random.default_rng(8)
    vocab = Vocabulary(["a", "b"])
    train = rng.integers(0, vocab.unknown_base, size=300)
    config = TrainConfig(n_states=3, max_iter=10, seed=4)
    model = MsHmmModel.fit(train, vocab, config, hmm_base(train, vocab, config))
    window = train[rng.integers(0, train.size, size=15)]
    base_ll = forward_one(model.base, window)
    assert score_one(model, window) == pytest.approx(base_ll, rel=1e-9)


def test_appending_unknown_costs_at_least_the_double_floor():
    rng = np.random.default_rng(9)
    vocab = Vocabulary(["a", "b"])
    train = rng.integers(0, vocab.unknown_base, size=300)
    config = TrainConfig(n_states=3, max_iter=10, seed=0)
    model = MsHmmModel.fit(train, vocab, config, hmm_base(train, vocab, config))
    window = train[:12]
    drop = score_one(model, np.append(window, vocab.unknown_base)) - score_one(model, window)
    assert drop <= 2 * math.log(D) + 1e-9


def test_scores_stay_finite_on_hostile_windows():
    train_obs = [app("a", 0, 0)] * 50
    vocab, model = fit_small(train_obs, ["a"], max_iter=50)
    all_unknown = np.full(30, vocab.unknown_base, dtype=np.int64)
    assert math.isfinite(score_one(model, all_unknown))
    mixed = np.array([vocab.size - 1, vocab.unknown_base, 0] * 10)
    assert math.isfinite(score_one(model, mixed))


def test_batch_scores_match_singles():
    rng = np.random.default_rng(10)
    vocab = Vocabulary(["a", "b"])
    train = rng.integers(0, vocab.unknown_base, size=250)
    config = TrainConfig(n_states=3, max_iter=8, seed=1)
    model = MsHmmModel.fit(train, vocab, config, hmm_base(train, vocab, config))
    windows = rng.integers(0, vocab.size, size=(20, 10))
    np.testing.assert_allclose(
        model.score_windows(windows),
        [score_one(model, w) for w in windows],
        rtol=1e-12,
    )


@pytest.mark.parametrize(
    "extra_symbols, extra_apps, message",
    [
        (1, 0, "emission width does not match vocabulary size"),
        (0, 1, "marginal table shapes do not match vocabulary"),
    ],
    ids=["emission-width", "marginal-shape"],
)
def test_mshmm_refuses_tables_of_another_shape(extra_symbols, extra_apps, message):
    vocab = Vocabulary(["a", "b"])
    base = random_hmm(np.random.default_rng(0), 2, vocab.size + extra_symbols)
    apps = vocab.n_apps + extra_apps
    tz, day = np.full((apps, N_TZ), 1 / (apps * N_TZ)), np.full((apps, N_DAY), 1 / (apps * N_DAY))
    seen = np.ones(vocab.size, dtype=bool)
    with pytest.raises(ValueError, match=re.escape(message)):
        MsHmmModel(vocab, base, tz, day, seen, DEFAULT_DELTA, TrainingTrace(seed=0))
