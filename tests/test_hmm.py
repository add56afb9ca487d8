"""Scaled forward recursion, Baum-Welch training, and emission smoothing."""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import (
    enumerate_forward,
    forward_one,
    random_hmm,
    reference_baum_welch,
    reference_forward_backward,
    score_one,
)
from appauth.encode import Vocabulary
from appauth.models import hmm
from appauth.models.core import DEFAULT_DELTA, TrainConfig, assert_stochastic
from appauth.models.hmm import (
    HmmParams,
    LaplaceHmmModel,
    baum_welch,
    baum_welch_cohort,
    forward_log_likelihood,
    laplace_smooth_emissions,
)


def test_forward_matches_path_enumeration():
    """Spot equivalence against explicit summation over every state path."""
    rng = np.random.default_rng(42)
    for _ in range(40):
        k = int(rng.integers(1, 4))
        s = int(rng.integers(2, 6))
        n = int(rng.integers(1, 7))
        params = random_hmm(rng, k, s)
        window = rng.integers(0, s, size=n)
        got = forward_one(params, window)
        want = enumerate_forward(params, window)
        assert got == pytest.approx(want, rel=1e-9)


def test_forward_single_state_is_product_of_emissions():
    emission = np.array([[0.5, 0.3, 0.2]])
    params = HmmParams(np.array([1.0]), np.array([[1.0]]), emission)
    window = [0, 2, 1, 0]
    want = sum(math.log(emission[0, o]) for o in window)
    assert forward_one(params, window) == pytest.approx(want, rel=1e-12)


def test_forward_stays_finite_on_long_windows():
    rng = np.random.default_rng(9)
    params = random_hmm(rng, 4, 6)
    window = rng.integers(0, 6, size=5000)
    ll = forward_one(params, window)
    assert math.isfinite(ll) and ll < -1000


def test_batched_forward_matches_singles():
    """A window scored as a batch of one equals its row of a full batch."""
    rng = np.random.default_rng(17)
    vocab = Vocabulary(["a", "b"])
    seq = rng.integers(0, vocab.size, size=200)
    model = LaplaceHmmModel.fit(seq, vocab, TrainConfig(n_states=3, max_iter=8, seed=0))
    windows = rng.integers(0, vocab.size, size=(25, 8))
    batch = model.score_windows(windows)
    singles = [score_one(model, w) for w in windows]
    np.testing.assert_allclose(batch, singles, rtol=1e-12)


def test_forward_raises_when_all_mass_vanishes():
    pi = np.array([1.0])
    trans = np.array([[1.0]])
    emit = np.array([[1.0, 0.0]])
    with pytest.raises(FloatingPointError):
        forward_log_likelihood(pi, trans, emit, [[0, 1]])


def test_params_require_stochastic_rows():
    with pytest.raises(ValueError):
        HmmParams(np.array([0.5, 0.4]), np.eye(2), np.full((2, 3), 1 / 3))
    # the rule: every |row sum - 1| <= tol, and NaN or inf fails it
    assert_stochastic(np.array([[0.25, 0.75], [1.0 + 4e-7, 0.0]]), tol=5e-7)
    assert_stochastic(np.empty((0, 3)))
    for bad in (1.0 + 6e-7, 1.0 - 6e-7, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="not stochastic"):
            assert_stochastic(np.array([[0.25, 0.75], [bad, 0.0]]), tol=5e-7)


def test_baum_welch_monotone_and_traced():
    rng = np.random.default_rng(0)
    seq = rng.integers(0, 8, size=300)
    for seed in range(3):
        params, trace = baum_welch(seq, n_symbols=8, n_states=4, max_iter=12, tol=0.0, seed=seed)
        lls = np.array(trace.log_likelihoods)
        assert lls.size == 12  # tol=0 disables early stopping
        assert np.all(np.diff(lls) >= -1e-8)
        assert trace.seed == seed
        assert trace.final_log_likelihood == lls[-1]
        np.testing.assert_allclose(params.trans.sum(axis=1), 1.0, atol=1e-9)
        np.testing.assert_allclose(params.emit.sum(axis=1), 1.0, atol=1e-9)
        assert params.pi.sum() == pytest.approx(1.0, abs=1e-9)


def test_baum_welch_improves_over_initialization():
    rng = np.random.default_rng(4)
    # two alternating regimes, so there is structure to learn
    seq = np.concatenate([np.tile([0, 0, 1], 40), np.tile([2, 3, 3], 40)])
    _, trace = baum_welch(seq, n_symbols=4, n_states=3, max_iter=20, tol=0.0, seed=1)
    assert trace.log_likelihoods[-1] > trace.log_likelihoods[0] + 1.0


def test_baum_welch_is_deterministic_per_seed():
    seq = np.random.default_rng(2).integers(0, 5, size=200)
    a1, _ = baum_welch(seq, 5, 3, max_iter=8, tol=0.0, seed=7)
    a2, _ = baum_welch(seq, 5, 3, max_iter=8, tol=0.0, seed=7)
    b, _ = baum_welch(seq, 5, 3, max_iter=8, tol=0.0, seed=8)
    np.testing.assert_array_equal(a1.emit, a2.emit)
    assert not np.array_equal(a1.emit, b.emit)


def test_baum_welch_early_stop_respects_tolerance():
    seq = np.random.default_rng(2).integers(0, 4, size=150)
    _, loose = baum_welch(seq, 4, 3, max_iter=50, tol=1e-2, seed=0)
    _, tight = baum_welch(seq, 4, 3, max_iter=50, tol=0.0, seed=0)
    assert len(loose.log_likelihoods) < len(tight.log_likelihoods) == 50


def assert_same_fits(got, want):
    """Fits equal bit for bit: parameters, iteration count, likelihoods."""
    (params, trace), (ref_params, ref_trace) = got, want
    for name in ("pi", "trans", "emit"):
        assert np.array_equal(getattr(params, name), getattr(ref_params, name)), name
    assert trace.seed == ref_trace.seed
    assert trace.iterations == ref_trace.iterations
    assert trace.log_likelihoods == ref_trace.log_likelihoods


def test_cohort_training_equals_per_user_reference():
    """Unequal lengths given in shuffled order, a length-2 sequence, and
    users that stop early on tol while the rest run to max_iter."""
    rng = np.random.default_rng(11)
    seqs = [
        rng.integers(0, 6, 180),
        np.tile([0, 1, 2], 30),
        rng.integers(0, 9, 57),
        np.array([3, 1]),
        rng.integers(0, 4, 120),
    ]
    sizes = [6, 3, 9, 4, 4]
    fits = baum_welch_cohort(seqs, sizes, n_states=3, max_iter=15, tol=1e-4, seed=5)
    iterations = [trace.iterations for _, trace in fits]
    assert min(iterations) < 15 == max(iterations)
    for seq, size, fit in zip(seqs, sizes, fits):
        assert_same_fits(fit, reference_baum_welch(seq, size, 3, 15, 1e-4, 5))
        assert_same_fits(baum_welch(seq, size, 3, 15, 1e-4, 5), fit)


def test_cohort_split_by_cell_budget_equals_per_user_reference():
    k = 64
    short, long = hmm.COHORT_CELLS // (4 * k), hmm.COHORT_CELLS // (2 * k)
    # The short user and one long user fill a batch; the other long user
    # would push it over the budget, so it runs in a second batch.
    assert 2 * long * k <= hmm.COHORT_CELLS < 3 * long * k
    rng = np.random.default_rng(3)
    seqs = [rng.integers(0, 5, long), rng.integers(0, 5, short), rng.integers(0, 5, long)]
    fits = baum_welch_cohort(seqs, [5, 5, 5], n_states=k, max_iter=2, tol=0.0, seed=2)
    for seq, fit in zip(seqs, fits):
        assert_same_fits(fit, reference_baum_welch(seq, 5, k, 2, 0.0, 2))


def test_longest_user_leaving_early_shrinks_the_batch():
    """The longest sequence stops on tol while the shorter ones run to
    max_iter, so the batch is laid out again with a shorter T_max."""
    rng = np.random.default_rng(21)
    seqs = [rng.integers(0, 5, 90), np.tile([0, 1, 2], 70), rng.integers(0, 6, 40)]
    sizes = [5, 3, 6]
    fits = baum_welch_cohort(seqs, sizes, n_states=3, max_iter=20, tol=1e-4, seed=4)
    iterations = [trace.iterations for _, trace in fits]
    assert iterations[1] < 20 and iterations[0] == iterations[2] == 20
    for seq, size, fit in zip(seqs, sizes, fits):
        assert_same_fits(fit, reference_baum_welch(seq, size, 3, 20, 1e-4, 4))


def test_batched_expectations_equal_single_sequence_pass():
    rng = np.random.default_rng(8)
    seqs = [rng.integers(0, 7, t) for t in (40, 2, 75, 13)]
    params = [random_hmm(rng, 4, 7) for _ in seqs]
    work = np.empty(2 * 75 * len(seqs) * 4)
    lay = hmm._BatchLayout(seqs, [7] * len(seqs), 4, work)
    for (ll, gamma, xi_sum), p, seq in zip(hmm._expectations(params, lay), params, seqs):
        ref_ll, ref_gamma, ref_xi = reference_forward_backward(p, seq)
        assert ll == ref_ll
        assert np.array_equal(gamma, ref_gamma)
        assert np.array_equal(xi_sum, ref_xi)


def test_zero_forward_mass_raises_at_first_bad_position():
    rng = np.random.default_rng(9)
    healthy = random_hmm(rng, 3, 4)
    emit = healthy.emit.copy()
    emit[:, 2] = 0.0  # symbol 2 is impossible from every state
    emit[:, 0] += 1.0 - emit.sum(axis=1)
    dead = HmmParams(healthy.pi, healthy.trans, emit)
    seq = np.array([0, 1, 3, 2, 1, 2, 0])
    with pytest.raises(FloatingPointError, match="zero forward mass at position 3"):
        reference_forward_backward(dead, seq)
    long_seq = rng.integers(0, 4, 30)
    with pytest.raises(FloatingPointError, match="zero forward mass at position 3"):
        lay = hmm._BatchLayout([long_seq, seq], [4, 4], 3, np.empty(2 * 30 * 2 * 3))
        list(hmm._expectations([healthy, dead], lay))


def test_zero_mass_names_first_dead_user_in_batch_order():
    """Two dead users: the first in batch order is reported, at its own
    first bad position, although the second one dies earlier."""
    rng = np.random.default_rng(10)
    healthy = random_hmm(rng, 3, 4)
    emit = healthy.emit.copy()
    emit[:, 2] = 0.0  # symbol 2 is impossible from every state
    emit[:, 0] += 1.0 - emit.sum(axis=1)
    dead = HmmParams(healthy.pi, healthy.trans, emit)
    late, early = np.array([0, 1, 3, 1, 0, 2, 1, 2]), np.array([1, 2, 0, 2])
    for params, seq, pos in [(dead, late, 5), (dead, early, 1)]:
        with pytest.raises(FloatingPointError, match=f"zero forward mass at position {pos}$"):
            reference_forward_backward(params, seq)
    seqs = [rng.integers(0, 4, 12), late, early]
    lay = hmm._BatchLayout(seqs, [4, 4, 4], 3, np.empty(2 * 12 * 3 * 3))
    with pytest.raises(FloatingPointError, match="zero forward mass at position 5$"):
        list(hmm._expectations([healthy, dead, dead], lay))


def test_short_user_padding_never_trips_zero_mass_check():
    """Padding past a short sequence's end is not read from its emission
    table, so a symbol it can never emit does not count as lost mass."""
    rng = np.random.default_rng(12)
    emit = random_hmm(rng, 3, 4).emit
    emit[:, 0] = 0.0
    emit[:, 1] += 1.0 - emit.sum(axis=1)
    short = HmmParams(np.full(3, 1 / 3), np.full((3, 3), 1 / 3), emit)
    params = [short, random_hmm(rng, 3, 4)]
    seqs = [np.array([1, 3]), rng.integers(0, 4, 50)]
    lay = hmm._BatchLayout(seqs, [4, 4], 3, np.empty(2 * 50 * 2 * 3))
    for (ll, gamma, xi_sum), p, seq in zip(hmm._expectations(params, lay), params, seqs):
        ref_ll, ref_gamma, ref_xi = reference_forward_backward(p, seq)
        assert ll == ref_ll
        assert np.array_equal(gamma, ref_gamma)
        assert np.array_equal(xi_sum, ref_xi)


def test_laplace_smoothing_formula():
    rng = np.random.default_rng(1)
    params = random_hmm(rng, 3, 4)
    d = 0.25
    smoothed = laplace_smooth_emissions(params, d)
    want = (params.emit + d) / (1 + d * 4)
    np.testing.assert_allclose(smoothed.emit, want, rtol=1e-12)
    np.testing.assert_array_equal(smoothed.pi, params.pi)
    np.testing.assert_array_equal(smoothed.trans, params.trans)
    np.testing.assert_allclose(smoothed.emit.sum(axis=1), 1.0, atol=1e-12)


def test_smoothed_model_never_scores_minus_infinity():
    vocab = Vocabulary(["a"])
    seq = np.zeros(80, dtype=np.int64)  # only one symbol ever seen
    model = LaplaceHmmModel.fit(seq, vocab, TrainConfig(n_states=3, max_iter=10, seed=0))
    window = np.array([0, 13, 13, 13])
    score = score_one(model, window)
    assert math.isfinite(score)
    assert score < score_one(model, np.zeros(4, dtype=np.int64))
    # each never-seen symbol costs roughly the log of the smoothing floor
    assert score < 3 * (math.log(DEFAULT_DELTA) + 1)


def test_fit_with_shared_base_matches_fresh_fit():
    vocab = Vocabulary(["a", "b"])
    seq = np.random.default_rng(6).integers(0, vocab.size, size=250)
    base = baum_welch(seq, vocab.size, n_states=4, max_iter=10, tol=1e-6, seed=3)
    reused = LaplaceHmmModel.fit(seq, vocab, base=base)
    fresh = LaplaceHmmModel.fit(seq, vocab, TrainConfig(n_states=4, max_iter=10, tol=1e-6, seed=3))
    windows = np.random.default_rng(7).integers(0, vocab.size, size=(10, 6))
    np.testing.assert_array_equal(reused.score_windows(windows), fresh.score_windows(windows))
