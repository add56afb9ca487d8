"""First-order chain estimation and log-domain window scoring."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from conftest import score_one
from appauth.encode import Vocabulary
from appauth.models.core import DEFAULT_DELTA, TrainConfig
from appauth.models.markov import MarkovChainModel

D = DEFAULT_DELTA


def fit_tiny():
    vocab = Vocabulary(["a"])  # size 14
    # indices: app(a, tz0, wd)=0, app(a, tz0, we)=1
    seq = np.array([0, 1, 0, 0], dtype=np.int64)
    return vocab, MarkovChainModel.fit(seq, vocab)


def test_fit_matches_hand_counts():
    vocab, model = fit_tiny()
    S = vocab.size
    assert model.prior[0] == pytest.approx((3 + D) / (4 + D * S), rel=1e-12)
    assert model.prior[1] == pytest.approx((1 + D) / (4 + D * S), rel=1e-12)
    assert model.prior[5] == pytest.approx(D / (4 + D * S), rel=1e-12)
    # observed pairs: 0->1, 1->0, 0->0
    assert model.transition[0, 0] == pytest.approx((1 + D) / (2 + D * S), rel=1e-12)
    assert model.transition[0, 1] == pytest.approx((1 + D) / (2 + D * S), rel=1e-12)
    assert model.transition[0, 9] == pytest.approx(D / (2 + D * S), rel=1e-12)
    assert model.transition[1, 0] == pytest.approx((1 + D) / (1 + D * S), rel=1e-12)


def test_never_visited_state_gets_uniform_row():
    vocab, model = fit_tiny()
    np.testing.assert_allclose(model.transition[7], np.full(vocab.size, 1 / vocab.size))


def test_rows_are_stochastic():
    vocab, model = fit_tiny()
    assert model.prior.sum() == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(model.transition.sum(axis=1), 1.0, atol=1e-12)


def test_window_likelihood_is_prior_plus_steps():
    vocab, model = fit_tiny()
    S = vocab.size
    want = (
        math.log((3 + D) / (4 + D * S))
        + math.log((1 + D) / (2 + D * S))
        + math.log((1 + D) / (1 + D * S))
    )
    assert score_one(model, np.array([0, 1, 0])) == pytest.approx(want, rel=1e-12)


def test_single_symbol_window_uses_prior_only():
    vocab, model = fit_tiny()
    S = vocab.size
    assert score_one(model, np.array([1])) == pytest.approx(
        math.log((1 + D) / (4 + D * S)), rel=1e-12
    )


def test_unseen_transition_is_floored_not_impossible():
    vocab, model = fit_tiny()
    score = score_one(model, np.array([0, 13]))
    assert math.isfinite(score)
    assert score < score_one(model, np.array([0, 1]))


def test_two_symbol_window_probabilities_sum_to_one():
    vocab, model = fit_tiny()
    total = 0.0
    for i, j in itertools.product(range(vocab.size), repeat=2):
        total += math.exp(score_one(model, np.array([i, j])))
    assert total == pytest.approx(1.0, abs=1e-9)


def test_batch_scores_match_singles():
    vocab, model = fit_tiny()
    rng = np.random.default_rng(3)
    windows = rng.integers(0, vocab.size, size=(40, 5))
    batch = model.score_windows(windows)
    singles = [
        math.log(model.prior[w[0]]) + sum(math.log(model.transition[a, b]) for a, b in zip(w, w[1:]))
        for w in windows
    ]
    np.testing.assert_allclose(batch, singles, rtol=1e-12)
    np.testing.assert_array_equal(batch, [score_one(model, w) for w in windows])


def test_custom_smoothing_delta_is_used():
    vocab = Vocabulary(["a"])
    seq = np.array([0, 1], dtype=np.int64)
    model = MarkovChainModel.fit(seq, vocab, TrainConfig(delta=0.5))
    S = vocab.size
    assert model.prior[0] == pytest.approx((1 + 0.5) / (2 + 0.5 * S), rel=1e-12)


def test_constructor_rejects_non_finite_or_non_stochastic_parameters():
    vocab, model = fit_tiny()
    nan_prior = model.prior.copy()
    nan_prior[0] = np.nan
    zero_step = model.transition.copy()
    zero_step[0, 0] = 0.0
    bad_rows = model.transition * 1.5
    for prior, transition in [
        (nan_prior, model.transition),
        (model.prior, zero_step),
        (model.prior, bad_rows),
    ]:
        with pytest.raises(ValueError):
            MarkovChainModel(vocab, prior, transition, D)


def test_fit_rejects_out_of_range_indices():
    vocab = Vocabulary(["a"])
    with pytest.raises(ValueError):
        MarkovChainModel.fit(np.array([0, vocab.size]), vocab)
