"""Substitution costs and the semi-global window matcher."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from conftest import DELTA, PSI, app, brute_med_distance, med_distance, random_observation, score_one, unk
from appauth.encode import Vocabulary
from appauth.models.edit_distance import CHUNK_CELLS, MedModel, substitution_cost


def test_substitution_cost_table():
    assert substitution_cost(app("a", 0, 0), app("a", 0, 0)) == 0
    assert substitution_cost(app("a", 0, 0), app("a", 1, 0)) == 1
    assert substitution_cost(app("a", 0, 0), app("a", 0, 1)) == 1
    assert substitution_cost(app("a", 0, 0), app("a", 2, 1)) == 2
    assert substitution_cost(app("a", 0, 0), app("b", 0, 0)) == 3
    assert substitution_cost(unk(0, 0), unk(1, 0)) == 1
    assert substitution_cost(unk(0, 0), unk(2, 1)) == 2
    assert substitution_cost(app("a", 0, 0), unk(0, 0)) == 3
    assert substitution_cost(PSI, PSI) == 0
    assert substitution_cost(DELTA, DELTA) == 0
    assert substitution_cost(PSI, DELTA) == 3
    assert substitution_cost(PSI, app("a", 0, 0)) == 3


def full_alphabet(apps):
    symbols = [PSI, DELTA]
    for tz in range(3):
        for day in range(2):
            symbols.append(unk(tz, day))
            symbols.extend(app(a, tz, day) for a in apps)
    return symbols


def test_substitution_cost_is_a_metric_on_the_full_alphabet():
    symbols = full_alphabet(["a", "b", "c"])
    for u, v in itertools.product(symbols, repeat=2):
        c = substitution_cost(u, v)
        assert c == substitution_cost(v, u)
        assert (c == 0) == (u == v)
    for u, v, w in itertools.product(symbols, repeat=3):
        assert substitution_cost(u, w) <= substitution_cost(u, v) + substitution_cost(v, w)


def test_identical_slice_scores_zero():
    vocab = Vocabulary(["a", "b", "c"])
    rng = np.random.default_rng(5)
    train_obs = [random_observation(rng, ["a", "b", "c"]) for _ in range(40)]
    train = vocab.project(train_obs)
    model = MedModel.fit(train, vocab)
    assert med_distance(model, train[10:18]) == 0
    assert med_distance(model, train) == 0  # the whole text is a substring of itself


def test_disjoint_window_costs_three_per_symbol():
    vocab = Vocabulary(["a", "z"])
    train = vocab.project([app("a", 0, 0)] * 12)
    model = MedModel.fit(train, vocab)
    window = vocab.project([app("z", 1, 1)] * 4)
    # substituting inside the text and deleting around it both cost 3/symbol
    assert med_distance(model, window) == 12


def test_context_drift_costs_one_per_attribute():
    vocab = Vocabulary(["a"])
    train = vocab.project([app("a", 0, 0)] * 6)
    model = MedModel.fit(train, vocab)
    assert med_distance(model, vocab.project([app("a", 1, 0)] * 2)) == 2
    assert med_distance(model, vocab.project([app("a", 1, 1)] * 2)) == 4


def test_window_longer_than_text_is_rejected():
    vocab = Vocabulary(["a"])
    train = vocab.project([app("a", 0, 0)] * 3)
    model = MedModel.fit(train, vocab)
    with pytest.raises(ValueError):
        med_distance(model, np.zeros(4, dtype=np.int64))
    assert med_distance(model, np.zeros(3, dtype=np.int64)) == 0


def test_batch_distances_match_singles():
    vocab = Vocabulary(["a", "b", "c"])
    rng = np.random.default_rng(11)
    train = rng.integers(0, vocab.size, size=60).astype(np.int64)
    model = MedModel.fit(train, vocab)
    windows = rng.integers(0, vocab.size, size=(30, 7))
    batch = -model.score_windows(windows)
    assert batch.tolist() == [med_distance(model, w) for w in windows]


def test_matcher_agrees_with_exhaustive_oracle():
    """Randomized equivalence against minimum-over-substrings alignment."""
    apps = ["a", "b"]
    vocab = Vocabulary(apps)
    rng = np.random.default_rng(23)
    for _ in range(150):
        text_len = int(rng.integers(1, 9))
        win_len = int(rng.integers(1, min(text_len, 4) + 1))
        text_obs = [random_observation(rng, apps) for _ in range(text_len)]
        win_obs = [random_observation(rng, apps) for _ in range(win_len)]
        model = MedModel.fit(vocab.project(text_obs), vocab)
        got = med_distance(model, vocab.project(win_obs))
        want = brute_med_distance(win_obs, text_obs)
        assert got == want, (text_obs, win_obs)


def test_score_is_negated_distance():
    vocab = Vocabulary(["a"])
    train = vocab.project([app("a", 0, 0)] * 5)
    model = MedModel.fit(train, vocab)
    window = vocab.project([app("a", 1, 0)])
    assert score_one(model, window) == -1.0
    assert model.score_windows(np.stack([window, window])).tolist() == [-1.0, -1.0]


def test_repeated_windows_across_chunks_match_singles():
    """Dedupe and chunking leave every distance, in input order, unchanged."""
    vocab = Vocabulary(["a", "b", "c", "d"])
    rng = np.random.default_rng(31)
    text_len = 4095
    per_chunk = CHUNK_CELLS // (text_len + 1)
    train = rng.integers(0, vocab.size, size=text_len).astype(np.int64)
    model = MedModel.fit(train, vocab)
    distinct = np.unique(rng.integers(0, vocab.size, size=(3 * per_chunk, 6)), axis=0)
    assert len(distinct) > 2 * per_chunk  # the unique rows span three chunks
    windows = distinct[rng.permutation(np.repeat(np.arange(len(distinct)), 2))]
    windows[::7] = train[100:106]  # one row shared by many, distance 0
    batch = -model.score_windows(windows)
    assert batch.tolist() == [med_distance(model, w) for w in windows]


def test_repeated_windows_match_exhaustive_oracle():
    apps = ["a", "b"]
    vocab = Vocabulary(apps)
    rng = np.random.default_rng(37)
    text_obs = [random_observation(rng, apps) for _ in range(7)]
    model = MedModel.fit(vocab.project(text_obs), vocab)
    distinct = [[random_observation(rng, apps) for _ in range(3)] for _ in range(5)]
    order = [0, 3, 0, 1, 4, 3, 2, 0, 4]
    windows = np.stack([vocab.project(distinct[k]) for k in order])
    got = -model.score_windows(windows)
    assert got.tolist() == [brute_med_distance(distinct[k], text_obs) for k in order]
