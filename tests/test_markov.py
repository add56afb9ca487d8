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


def fitted_and_loaded(monkeypatch):
    """(model, the dense matrix it was built from) for a fit, whose rows
    are floored, observed or uniform, and for a loaded matrix with rows of
    distinct entries, of tied minima and of one value."""
    vocab = Vocabulary(["a", "b"])
    S = vocab.size
    built = []
    real_init = MarkovChainModel.__init__

    def recording(self, vocab, prior, transition, delta):
        built.append(transition.copy())
        real_init(self, vocab, prior, transition, delta)

    monkeypatch.setattr(MarkovChainModel, "__init__", recording)
    fitted = MarkovChainModel.fit(np.array([0, 1, 0, 0, 6, 13, 0, 6]), vocab)
    rng = np.random.default_rng(11)
    matrix = rng.uniform(0.1, 1.0, (S, S))
    matrix[1] = 1.0
    matrix[2, ::2] = 0.1  # a minimum shared by half the row
    matrix /= matrix.sum(axis=1, keepdims=True)
    arrays = {"prior": fitted.prior, "transition": matrix}
    loaded = MarkovChainModel.from_arrays(vocab, {"delta": D}, arrays)
    return vocab, [(fitted, built[0]), (loaded, matrix)]


def test_dense_transition_is_the_matrix_it_was_built_from(monkeypatch):
    vocab, cases = fitted_and_loaded(monkeypatch)
    for model, matrix in cases:
        np.testing.assert_array_equal(model.transition, matrix)
        meta, arrays = model.to_arrays()
        np.testing.assert_array_equal(arrays["transition"], matrix)
    unvisited = cases[0][0].transition[7]
    assert np.all(unvisited == unvisited[0])
    assert unvisited[0] == pytest.approx(1 / vocab.size, rel=1e-12)


def test_scores_are_the_logs_of_the_dense_entries(monkeypatch):
    """Bit for bit what gathering from np.log of the dense matrix gives."""
    vocab, cases = fitted_and_loaded(monkeypatch)
    windows = np.random.default_rng(4).integers(0, vocab.size, size=(300, 7))
    windows[:10] = [0, 1, 0, 0, 6, 13, 0]  # the fitted pairs
    for model, matrix in cases:
        want = np.log(model.prior)[windows[:, 0]]
        want = want + np.log(matrix)[windows[:, :-1], windows[:, 1:]].sum(axis=1)
        np.testing.assert_array_equal(model.score_windows(windows), want)
        prior_only = model.score_windows(windows[:, :1])
        np.testing.assert_array_equal(prior_only, np.log(model.prior)[windows[:, 0]])


def test_fitted_chain_holds_no_dense_table():
    """A fitted model holds its floors plus one entry per observed pair:
    no array of S x S entries."""
    seq = np.random.default_rng(2).integers(0, 68, size=5000)
    vocab = Vocabulary([f"app{k:02d}" for k in range(10)])  # S = 68
    model = MarkovChainModel.fit(seq, vocab)
    S = vocab.size
    arrays = [v for v in vars(model).values() if isinstance(v, np.ndarray)]
    assert max(a.size for a in arrays) < S * S
    pairs = np.unique(seq[:-1] * S + seq[1:]).size
    assert sum(a.nbytes for a in arrays) <= 16 * (2 * S + pairs + 1)


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
