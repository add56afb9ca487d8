"""Block-scaled Baum-Welch: its bound against the per-step recursion, its
block edges in a lock-step batch, and its zero-mass and underflow checks."""

from __future__ import annotations

import collections
import tracemalloc

import numpy as np
import pytest

from conftest import (
    per_step_forward_backward,
    random_hmm,
    reference_baum_welch,
    reference_forward_backward,
)
from appauth.models import hmm
from appauth.models.hmm import BLOCK_STEPS, HmmParams, baum_welch

L = BLOCK_STEPS
EDGE_LENGTHS = [2, L - 1, L, L + 1, 2 * L + 1]


def _layout(seqs, n_symbols, n_states):
    work = np.empty(2 * max(s.size for s in seqs) * len(seqs) * n_states)
    return hmm._BatchLayout(seqs, [n_symbols] * len(seqs), n_states, work)


def _dead_hmm(rng):
    """A random HMM of three states and four symbols, and the same HMM with
    symbol 2 impossible from every state."""
    healthy = random_hmm(rng, 3, 4)
    emit = healthy.emit.copy()
    emit[:, 2] = 0.0
    emit[:, 0] += 1.0 - emit.sum(axis=1)
    return healthy, HmmParams(healthy.pi, healthy.trans, emit)


def _faint_hmm():
    """Two states that emit symbol 1 with probability 1e-40 and symbol 0
    otherwise, so every step that reads a 1 keeps 1e-40 of the mass."""
    emit = np.array([[1.0, 1e-40], [1.0, 1e-40]])
    return HmmParams(np.array([0.5, 0.5]), np.array([[0.9, 0.1], [0.2, 0.8]]), emit)


@pytest.mark.parametrize("t_len", [*EDGE_LENGTHS, 300])
def test_block_scaling_is_within_bound_of_per_step_scaling(t_len):
    rng = np.random.default_rng(t_len)
    for k, s in [(1, 3), (3, 5), (7, 11)]:
        params, seq = random_hmm(rng, k, s), rng.integers(0, s, t_len)
        ((ll, gamma, xi_sum),) = hmm._expectations([params], _layout([seq], s, k))
        ref_ll, ref_gamma, ref_xi = per_step_forward_backward(params, seq)
        assert abs(ll - ref_ll) <= 1e-12 * abs(ref_ll)
        np.testing.assert_allclose(gamma, ref_gamma, rtol=0, atol=1e-12)
        np.testing.assert_allclose(xi_sum, ref_xi, rtol=0, atol=1e-12)


@pytest.mark.parametrize("t_len", EDGE_LENGTHS)
def test_block_scaled_fit_is_within_bound_of_per_step_fit(t_len):
    seq = np.random.default_rng(t_len).integers(0, 5, t_len)
    params, trace = baum_welch(seq, 5, 3, 20, 0.0, 6)
    ref_params, ref_trace = reference_baum_welch(
        seq, 5, 3, 20, 0.0, 6, forward_backward=per_step_forward_backward
    )
    for name in ("pi", "trans", "emit"):
        np.testing.assert_allclose(
            getattr(params, name), getattr(ref_params, name), rtol=0, atol=1e-10
        )
    lls, ref_lls = trace.log_likelihoods, ref_trace.log_likelihoods
    np.testing.assert_allclose(lls, ref_lls, rtol=1e-12, atol=1e-12)


def test_batch_of_block_edge_lengths_equals_per_sequence_passes():
    """Block edges count from each sequence's own start (forward) and end
    (backward), never from the batch's longest sequence."""
    rng = np.random.default_rng(13)
    seqs = [rng.integers(0, 6, t) for t in (2, L - 1, L, L + 1, 2 * L)]
    params = [random_hmm(rng, 4, 6) for _ in seqs]
    batch = hmm._expectations(params, _layout(seqs, 6, 4))
    for (ll, gamma, xi_sum), p, seq in zip(batch, params, seqs):
        for want in (
            next(hmm._expectations([p], _layout([seq], 6, 4))),
            reference_forward_backward(p, seq),
        ):
            assert ll == want[0]
            assert np.array_equal(gamma, want[1])
            assert np.array_equal(xi_sum, want[2])


@pytest.mark.parametrize("dead_at", [0, 3, L, L + 3, 2 * L])
def test_zero_mass_inside_a_block_or_on_its_end_names_the_position(dead_at):
    rng = np.random.default_rng(dead_at)
    healthy, dead = _dead_hmm(rng)
    seq = rng.choice([0, 1, 3], 2 * L + 5)
    seq[dead_at] = 2
    message = f"zero forward mass at position {dead_at}$"
    with pytest.raises(FloatingPointError, match=message):
        reference_forward_backward(dead, seq)
    with pytest.raises(FloatingPointError, match=message):
        per_step_forward_backward(dead, seq)
    other = rng.integers(0, 4, 3 * L)
    with pytest.raises(FloatingPointError, match=message):
        list(hmm._expectations([healthy, dead], _layout([other, seq], 4, 3)))


def test_forward_underflow_names_its_block():
    """Eight faint steps in a row fall below the smallest normal float
    within one block. Per-step scaling survives them; block scaling would
    lose precision, so it refuses."""
    params = _faint_hmm()
    seq = np.ones(2 * L + 3, dtype=np.int64)
    ll, _, _ = per_step_forward_backward(params, seq)
    assert np.isfinite(ll) and ll < seq.size * np.log(1e-39)
    message = f"forward mass underflow in the block of positions 1 to {L}$"
    with pytest.raises(FloatingPointError, match=message):
        reference_forward_backward(params, seq)
    healthy = HmmParams(params.pi, params.trans, np.full((2, 2), 0.5))
    with pytest.raises(FloatingPointError, match=message):
        list(hmm._expectations([healthy, params], _layout([seq, seq], 2, 2)))


def test_backward_underflow_names_its_block():
    """Eight faint steps straddle a forward block end, so no forward block
    holds more than five of them, but one backward block holds all eight."""
    params = _faint_hmm()
    seq = np.zeros(L + 5, dtype=np.int64)
    seq[L - 4 : L + 4] = 1
    per_step_forward_backward(params, seq)
    message = f"backward mass underflow in the block of positions 4 to {L + 3}$"
    with pytest.raises(FloatingPointError, match=message):
        reference_forward_backward(params, seq)
    with pytest.raises(FloatingPointError, match=message):
        list(hmm._expectations([params], _layout([seq], 2, 2)))


def test_a_second_pass_over_a_layout_allocates_little_but_its_gammas():
    """The layout owns every view and buffer that an EM iteration reuses,
    so a pass over it allocates little besides the gammas it yields, and it
    drops each gamma it has yielded before it allocates the next. Three
    sequences of up to 1 600 symbols at 20 states, each yield dropped at
    once: the second pass's traced peak is 1.38 gammas of the longest
    sequence (352 KB), one gamma at a time. While the generator still held
    the gamma it had yielded, the peak was 2.05 (526 KB); copying each
    sequence's rows into arrays of its own and allocating its xi products in
    every pass took 5.93 (1 519 KB)."""
    rng = np.random.default_rng(32)
    seqs = [rng.integers(0, 40, t) for t in (1400, 1600, 1500)]
    params = [random_hmm(rng, 20, 40) for _ in seqs]
    lay = _layout(seqs, 40, 20)
    collections.deque(hmm._expectations(params, lay), maxlen=0)
    tracemalloc.start()
    try:
        collections.deque(hmm._expectations(params, lay), maxlen=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    gamma = 1600 * 20 * 8
    assert peak < 1.5 * gamma, f"traced peak {peak} B, {peak / gamma:.2f} gammas"
