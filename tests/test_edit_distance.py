"""Substitution costs and the semi-global window matcher."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from conftest import (
    DELTA,
    PSI,
    app,
    brute_med_distance,
    med_distance,
    random_observation,
    reference_med_distances,
    score_one,
    semi_global_distance,
    substitution_cost,
    unk,
)
from appauth.encode import Vocabulary
from appauth.models.edit_distance import CHUNK_CELLS, INDEL_COST, MedModel


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
    random_windows = [[random_observation(rng, apps) for _ in range(3)] for _ in range(5)]
    # three of the vocabulary's 20 symbols, its highest index (DELTA) among
    # them, against a text where DELTA, PSI and app b differ in cost
    assert vocab.index_of(DELTA) == vocab.size - 1
    few = [[DELTA, DELTA, app("b", 2, 1)], [app("b", 2, 1), PSI, DELTA], [DELTA] * 3]
    few_text = [app("b", 2, 0), DELTA, PSI, app("a", 2, 1), DELTA, app("b", 2, 1)]
    for text, distinct, order in (
        (text_obs, random_windows, [0, 3, 0, 1, 4, 3, 2, 0, 4]),
        (few_text, few, [2, 0, 2, 1, 0, 2]),
    ):
        model = MedModel.fit(vocab.project(text), vocab)
        windows = np.stack([vocab.project(distinct[k]) for k in order])
        got = -model.score_windows(windows)
        assert got.tolist() == [brute_med_distance(distinct[k], text) for k in order]


LONG_APPS = ["a", "b", "c", "d", "e", "f"]


def mixed_observation(rng: np.random.Generator, marker_share: float, unknown_share: float):
    u = rng.random()
    if u < marker_share:
        return PSI if rng.random() < 0.5 else DELTA
    tz, day = int(rng.integers(0, 3)), int(rng.integers(0, 2))
    if u < marker_share + unknown_share:
        return unk(tz, day)
    return app(LONG_APPS[int(rng.integers(0, len(LONG_APPS)))], tz, day)


def gapped_slice(rng: np.random.Generator, text: list, n: int) -> list:
    """n symbols of the text with a stretch of it left out after the first
    `split`, so the best alignment may cross a text gap in DP row `split`.
    Where the text allows, the gap is long enough (at least
    2 ** (split.bit_length() - 1)) that only that row's last shift pass
    reaches it."""
    split = int(rng.integers(1, n))
    gap = min(len(text) - n, int(rng.integers(1 << (split.bit_length() - 1), split + 1)))
    start = int(rng.integers(0, len(text) - n - gap + 1))
    piece = text[start : start + n + gap]
    return piece[:split] + piece[split + gap :]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65])
def test_long_windows_match_reference_kernel_and_plain_dp(n):
    """Windows long enough to need every shift pass, checked against the
    full running-minimum kernel and the cell-by-cell DP: texts as long as
    the window, shorter than the zero lead pad (2 ** n.bit_length()), and
    longer than it, with marker-, unknown- and gap-heavy windows batched
    together so that each row's passes run over several windows."""
    vocab = Vocabulary(LONG_APPS)
    rng = np.random.default_rng(n)
    lead = 1 << n.bit_length()
    for text_len in sorted({n, max(n, lead - 1), lead + n}):
        text = [mixed_observation(rng, 0.1, 0.1) for _ in range(text_len)]
        model = MedModel.fit(vocab.project(text), vocab)
        windows = [text[:n], text[-n:]]
        windows += [[mixed_observation(rng, 0.6, 0.1) for _ in range(n)] for _ in range(3)]
        windows += [[mixed_observation(rng, 0.1, 0.6) for _ in range(n)] for _ in range(3)]
        if n > 1 and text_len > n:
            windows += [gapped_slice(rng, text, n) for _ in range(6)]
        windows.append(windows[-1])
        batch = np.stack([vocab.project(w) for w in windows])
        got = -model.score_windows(batch)
        assert got.tolist() == [semi_global_distance(w, text) for w in windows], (n, text_len)
        assert np.array_equal(got, reference_med_distances(model, batch))


def test_text_longer_than_a_chunk_matches_reference_kernel():
    """A text of CHUNK_CELLS symbols puts each window in a chunk of its own."""
    vocab = Vocabulary(LONG_APPS)
    rng = np.random.default_rng(41)
    n = 33
    text = rng.integers(0, vocab.size, size=CHUNK_CELLS).astype(np.int64)
    model = MedModel.fit(text, vocab)
    windows = np.stack(
        [
            text[-n:],
            np.concatenate([text[5000:5020], text[5040:5053]]),
            rng.integers(0, vocab.size, size=n),
            rng.integers(0, vocab.size, size=n),
        ]
    )
    got = -model.score_windows(windows)
    assert got[0] == 0
    assert np.array_equal(got, reference_med_distances(model, windows))


@pytest.mark.parametrize("n", [20, 60])
def test_dp_dtype_edge_matches_reference_kernel(n):
    """The DP runs in int16 while INDEL_COST * (n + T) < 2 ** 15. A text
    that ends in the window takes E down to -INDEL_COST * (n + T) in the
    last cell, so texts with that bound just below and just above 2 ** 15
    check that the narrow dtype ends exactly where the bound no longer
    fits."""
    vocab = Vocabulary(LONG_APPS)
    rng = np.random.default_rng(n)
    limit = 2**15 // INDEL_COST  # the largest n + T whose bound fits in int16
    for text_len in (limit - n, limit - n + 1):
        text = rng.integers(0, vocab.size, size=text_len).astype(np.int64)
        window = text[-n:]
        windows = np.stack([window, text[:n], rng.integers(0, vocab.size, size=n)])
        model = MedModel.fit(text, vocab)
        got = -model.score_windows(windows)
        assert got[0] == 0
        assert np.array_equal(got, reference_med_distances(model, windows)), text_len
