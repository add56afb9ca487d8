"""Scaled forward recursion, Baum-Welch training, and emission smoothing."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from conftest import (
    enumerate_forward,
    forward_one,
    hmm_base,
    random_hmm,
    reference_baum_welch,
    reference_forward_backward,
    reference_forward_log_likelihood,
    score_one,
    small_vocab,
    unfloored_m_step,
)
from appauth.encode import N_DAY, N_TZ, Vocabulary
from appauth.models import hmm
from appauth.models.core import DEFAULT_DELTA, STOCHASTIC_TOL, TrainConfig, assert_stochastic
from appauth.models.hmm import (
    BLOCK_STEPS,
    ZERO_BELOW,
    HmmParams,
    LaplaceHmmModel,
    baum_welch,
    baum_welch_cohort,
    forward_log_likelihood,
    laplace_smooth_emissions,
)
from appauth.models.mshmm import MsHmmModel


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
    """A window scored as a batch of one has the bits of its row of a full
    batch."""
    rng = np.random.default_rng(17)
    vocab = Vocabulary(["a", "b"])
    seq = rng.integers(0, vocab.size, size=200)
    config = TrainConfig(n_states=3, max_iter=8, seed=0)
    model = LaplaceHmmModel.fit(seq, vocab, config, hmm_base(seq, vocab, config))
    windows = rng.integers(0, vocab.size, size=(25, 8))
    batch = model.score_windows(windows)
    singles = [score_one(model, w) for w in windows]
    assert np.array_equal(batch, singles)


@pytest.mark.parametrize("method", ["hmm-lap", "mshmm"])
def test_forward_equals_reference_loop(method):
    """Both HMM classes score bit for bit like the per-step recursion, on
    batches of one, a few and many windows, short and long, over
    vocabularies of up to 500 symbols. A lone window runs in a block of 4
    copies of itself, so the oracle scores it in a batch of those 4."""
    rng = np.random.default_rng(23)
    for n_apps, n_states in [(1, 1), (20, 4), (82, 20)]:
        vocab = Vocabulary([f"app{i}" for i in range(n_apps)])
        assert vocab.size <= 500
        params = random_hmm(rng, n_states, vocab.size)
        trace = hmm.TrainingTrace(seed=0)
        if method == "hmm-lap":
            model = LaplaceHmmModel(vocab, params, DEFAULT_DELTA, trace)
            emit = params.emit
        else:
            tables = [rng.random((n_apps, k)) / (n_apps * k) for k in (N_TZ, N_DAY)]
            seen = rng.random(vocab.size) < 0.7
            model = MsHmmModel(vocab, params, *tables, seen, DEFAULT_DELTA, trace)
            emit = model.emit_ext
        for w, n in itertools.product([1, 7, 300], [1, 2, 60]):
            windows = rng.integers(0, vocab.size, size=(w, n))
            got = model.score_windows(windows)
            batch = np.repeat(windows, 4, 0) if w == 1 else windows
            want = reference_forward_log_likelihood(params.pi, params.trans, emit, batch)[:w]
            assert np.array_equal(got, want), (n_apps, w, n)


def test_hmm_window_scores_do_not_depend_on_their_batch():
    """At the default 20 states, every window's score has the same bits in a
    batch of 2, at three positions of a 3 000-window batch, in blocks of
    1 000 windows and, for the first 500, alone. A (W, 20) @ (20, 20) product
    of more than 2 500 rows takes another BLAS kernel path; blocks of at most
    ROW_BLOCK rows never do. Lone windows scored as a gemv gave 50 (hmm-lap)
    and 36 (mshmm) of the 500 other bits."""
    rng = np.random.default_rng(31)
    vocab = Vocabulary([f"app{i}" for i in range(32)])
    assert vocab.size == 200
    params, trace = random_hmm(rng, 20, vocab.size), hmm.TrainingTrace(seed=0)
    tables = [rng.random((32, k)) / (32 * k) for k in (N_TZ, N_DAY)]
    models = (
        LaplaceHmmModel(vocab, params, DEFAULT_DELTA, trace),
        MsHmmModel(vocab, params, *tables, rng.random(vocab.size) < 0.7, DEFAULT_DELTA, trace),
    )
    windows = rng.integers(0, vocab.size, size=(3000, 60))
    for model in models:
        pairs = [model.score_windows(windows[i : i + 2]) for i in range(0, 3000, 2)]
        blocks = [model.score_windows(windows[i : i + 1000]) for i in range(0, 3000, 1000)]
        in_pairs = np.concatenate(pairs)
        assert np.array_equal(np.concatenate(blocks), in_pairs), model.method
        for shift in (0, 1, 1777):
            moved = model.score_windows(np.roll(windows, shift, axis=0))
            assert np.array_equal(moved, np.roll(in_pairs, shift)), (model.method, shift)
        alone = [score_one(model, window) for window in windows[:500]]
        assert np.array_equal(alone, in_pairs[:500]), model.method


def test_hmm_window_scores_do_not_depend_on_their_batch_at_28_states():
    """At K = 28 a (W, 28) @ (28, 28) product takes another BLAS kernel path
    from W = 1 285 on, below ROW_BLOCK. Blocks of at most 10**6 // K**2 rows
    keep every score of a 2 000-window batch the same bits as in batches of
    2; one uncapped block of 2 000 rows changed 199 of them."""
    rng = np.random.default_rng(28)
    params = random_hmm(rng, 28, 50)
    windows = rng.integers(0, 50, size=(2000, 20))
    whole = forward_log_likelihood(params.pi, params.trans, params.emit, windows)
    pairs = [
        forward_log_likelihood(params.pi, params.trans, params.emit, windows[i : i + 2])
        for i in range(0, 2000, 2)
    ]
    assert np.array_equal(whole, np.concatenate(pairs))


def test_hmm_window_scores_do_not_depend_on_their_batch_at_18_states():
    """At K = 18 a row's bits from a (W, 18) @ (18, 18) product differ
    between blocks of 2 and of 4 rows. Blocks padded to a multiple of 4 rows
    keep every score of a 2 000-window batch the same bits as alone and in
    batches of 2 and of 3, and wherever the batch is rolled to; unpadded
    blocks gave 107 of them other bits than batches of 2."""
    rng = np.random.default_rng(18)
    params = random_hmm(rng, 18, 50)
    windows = rng.integers(0, 50, size=(2000, 20))

    def score(batch):
        return forward_log_likelihood(params.pi, params.trans, params.emit, batch)

    whole = score(windows)
    for size in (1, 2, 3):
        parts = [score(windows[i : i + size]) for i in range(0, 2000 - 2000 % size, size)]
        assert np.array_equal(whole[: 2000 - 2000 % size], np.concatenate(parts)), size
    assert np.array_equal(score(np.roll(windows, 3, axis=0)), np.roll(whole, 3))


def test_lone_window_scores_equal_their_batch_rows_at_1_to_64_states():
    """At every state count from 1 to 64, each of 24 windows scored alone has
    the bits of its row of the whole batch. Scored as a gemv, a lone window
    differed from its row in about one case of eleven."""
    rng = np.random.default_rng(64)
    for k in range(1, 65):
        params = random_hmm(rng, k, 50)
        windows = rng.integers(0, 50, size=(24, 20))
        whole = forward_log_likelihood(params.pi, params.trans, params.emit, windows)
        alone = [
            forward_log_likelihood(params.pi, params.trans, params.emit, window[None])[0]
            for window in windows
        ]
        assert np.array_equal(alone, whole), k


def test_forward_raises_when_all_mass_vanishes():
    """Symbol 2 has no mass from any state. The pass raises wherever it
    first appears, also in one row of a batch, and no numpy warning
    escapes (the test run turns warnings into errors)."""
    pi = np.array([1.0])
    trans = np.array([[1.0]])
    emit = np.array([[1.0, 0.0]])
    with pytest.raises(FloatingPointError):
        forward_log_likelihood(pi, trans, emit, [[0, 1]])
    rng = np.random.default_rng(5)
    params = random_hmm(rng, 3, 3)
    emit = np.concatenate([params.emit[:, :2], np.zeros((3, 1))], axis=1)
    at_start = rng.integers(0, 2, size=(1, 50))
    at_start[0, 0] = 2
    halfway = rng.integers(0, 2, size=(1, 50))
    halfway[0, 25] = 2
    one_row = rng.integers(0, 2, size=(5, 50))
    one_row[3, 10] = 2
    for windows in (at_start, halfway, one_row):
        with pytest.raises(FloatingPointError, match="lost all probability mass"):
            forward_log_likelihood(params.pi, params.trans, emit, windows)
        with pytest.raises(FloatingPointError):
            reference_forward_log_likelihood(params.pi, params.trans, emit, windows)
    # without the zero-mass symbol the same batch scores finitely
    one_row[3, 10] = 0
    assert np.isfinite(forward_log_likelihood(params.pi, params.trans, emit, one_row)).all()


def test_params_require_stochastic_rows():
    with pytest.raises(ValueError):
        HmmParams(np.array([0.5, 0.4]), np.eye(2), np.full((2, 3), 1 / 3))
    # the rule: every |row sum - 1| <= STOCHASTIC_TOL, and NaN or inf fails it
    tol = STOCHASTIC_TOL
    assert_stochastic(np.array([[0.25, 0.75], [1.0 + 0.8 * tol, 0.0]]))
    assert_stochastic(np.empty((0, 3)))
    for bad in (1.0 + 1.2 * tol, 1.0 - 1.2 * tol, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="not stochastic"):
            assert_stochastic(np.array([[0.25, 0.75], [bad, 0.0]]))
    # and every entry is >= 0, even where the row still sums to 1
    assert_stochastic(np.array([[-0.0, 1.0]]))
    for bad in ([[1.25, -0.25]], [[0.5, 0.5], [2.0, -1.0]], [[1.0 + 1e-12, -1e-12]]):
        with pytest.raises(ValueError, match="negative entry"):
            assert_stochastic(np.array(bad))
    with pytest.raises(ValueError, match="negative entry"):
        HmmParams(np.array([1.5, -0.5]), np.eye(2), np.full((2, 3), 1 / 3))


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


def cohort_input():
    """Unequal lengths in shuffled order and a length-2 sequence, with
    their symbol counts."""
    rng = np.random.default_rng(11)
    seqs = [
        rng.integers(0, 6, 180),
        np.tile([0, 1, 2], 30),
        rng.integers(0, 9, 57),
        np.array([3, 1]),
        rng.integers(0, 4, 120),
    ]
    return seqs, [6, 3, 9, 4, 4]


def test_cohort_training_equals_per_user_reference():
    """Unequal lengths given in shuffled order, a length-2 sequence, and
    users that stop early on tol while the rest run to max_iter."""
    seqs, sizes = cohort_input()
    fits = baum_welch_cohort(seqs, sizes, n_states=3, max_iter=15, tol=1e-4, seed=5)
    iterations = [trace.iterations for _, trace in fits]
    assert min(iterations) < 15 == max(iterations)
    for seq, size, fit in zip(seqs, sizes, fits):
        assert_same_fits(fit, reference_baum_welch(seq, size, 3, 15, 1e-4, 5))
        assert_same_fits(baum_welch(seq, size, 3, 15, 1e-4, 5), fit)


def test_zero_floor_changes_only_entries_below_it():
    """The old rule's fit of this input leaves a `pi` and an `emit` entry
    near 1e-151. The M-step now sets every entry below ZERO_BELOW to zero, and within
    1e-12 relative nothing else moves: no log-likelihood of any iteration,
    no parameter the old rule left at or above the floor, and no hmm-lap
    or mshmm window score."""
    seqs, sizes = cohort_input()
    fits = baum_welch_cohort(seqs, sizes, n_states=3, max_iter=15, tol=1e-4, seed=5)
    vocab, config = small_vocab(), TrainConfig(n_states=3)
    rng = np.random.default_rng(6)
    windows = rng.integers(0, max(sizes), (40, 12))
    windows[::4, 5] = rng.integers(0, vocab.size, 10)  # symbols no fit has seen

    def models(seq, params, trace):
        # both variants cover the whole vocabulary: pad the emissions with
        # symbols that never occur
        emit = np.pad(params.emit, ((0, 0), (0, vocab.size - params.n_symbols)))
        base = HmmParams(params.pi, params.trans, emit), trace
        return [cls.fit(seq, vocab, config, base) for cls in (LaplaceHmmModel, MsHmmModel)]

    zeroed = 0
    for seq, size, (params, trace) in zip(seqs, sizes, fits):
        old_params, old_trace = reference_baum_welch(
            seq, size, 3, 15, 1e-4, 5, m_step=unfloored_m_step
        )
        assert trace.iterations == old_trace.iterations
        np.testing.assert_allclose(
            trace.log_likelihoods, old_trace.log_likelihoods, rtol=1e-12, atol=0
        )
        for name in ("pi", "trans", "emit"):
            new, old = getattr(params, name), getattr(old_params, name)
            assert not ((new > 0.0) & (new < ZERO_BELOW)).any(), name
            kept = old >= ZERO_BELOW
            np.testing.assert_allclose(new[kept], old[kept], rtol=1e-12, atol=0)
            zeroed += int((old[~kept] > 0.0).sum())
        for got, want in zip(models(seq, params, trace), models(seq, old_params, old_trace)):
            np.testing.assert_allclose(
                got.score_windows(windows), want.score_windows(windows), rtol=1e-12, atol=0
            )
    assert zeroed > 0


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
    """At 4 states, and at the benchmarks' 20 states with 3 sequences of
    unequal lengths, several BLOCK_STEPS long each; each layout runs two
    passes, so the second reuses everything the first one used."""
    rng = np.random.default_rng(8)
    cases = [(4, 7, (40, 2, 75, 13)), (20, 40, (7 * BLOCK_STEPS + 5, 11 * BLOCK_STEPS, 90))]
    for k, s, lengths in cases:
        seqs = [rng.integers(0, s, t) for t in lengths]
        lay = hmm._BatchLayout(seqs, [s] * len(seqs), k, np.empty(2 * max(lengths) * len(seqs) * k))
        for _ in range(2):
            params = [random_hmm(rng, k, s) for _ in seqs]
            for (ll, gamma, xi_sum), p, seq in zip(hmm._expectations(params, lay), params, seqs):
                ref_ll, ref_gamma, ref_xi = reference_forward_backward(p, seq)
                assert ll == ref_ll, (k, seq.size)
                assert np.array_equal(gamma, ref_gamma), (k, seq.size)
                assert np.array_equal(xi_sum, ref_xi), (k, seq.size)


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
    config = TrainConfig(n_states=3, max_iter=10, seed=0)
    model = LaplaceHmmModel.fit(seq, vocab, config, hmm_base(seq, vocab, config))
    window = np.array([0, 13, 13, 13])
    score = score_one(model, window)
    assert math.isfinite(score)
    assert score < score_one(model, np.zeros(4, dtype=np.int64))
    # each never-seen symbol costs roughly the log of the smoothing floor
    assert score < 3 * (math.log(DEFAULT_DELTA) + 1)
