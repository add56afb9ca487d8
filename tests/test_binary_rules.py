"""All-or-nothing window rules keyed on unknown and unforeseen symbols."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import DELTA, PSI, app, score_one, unk
from appauth.encode import Vocabulary
from appauth.models.binary import BinaryUnknownModel, BinaryUnforeseenModel


def proj(vocab, stream):
    return vocab.project(stream)


def test_unknown_rule_rejects_any_unknown():
    vocab = Vocabulary(["a", "b"])
    model = BinaryUnknownModel(vocab)
    assert score_one(model, proj(vocab, [app("a"), app("b", 2, 1)])) == 1.0
    assert score_one(model, proj(vocab, [app("a"), app("stranger")])) == 0.0
    assert score_one(model, proj(vocab, [unk(1, 0)])) == 0.0


def test_unknown_rule_ignores_markers():
    vocab = Vocabulary(["a"])
    model = BinaryUnknownModel(vocab)
    assert score_one(model, proj(vocab, [PSI, app("a"), DELTA])) == 1.0
    assert score_one(model, proj(vocab, [PSI, DELTA])) == 1.0


def test_unknown_rule_batch_matches_single():
    vocab = Vocabulary(["a", "b"])
    model = BinaryUnknownModel(vocab)
    rng = np.random.default_rng(0)
    windows = rng.integers(0, vocab.size, size=(50, 6))
    batch = model.score_windows(windows)
    assert batch.tolist() == [score_one(model, w) for w in windows]


def test_unforeseen_rule_uses_training_triples():
    vocab = Vocabulary(["a", "b"])
    train = proj(vocab, [PSI, app("a", 0, 0), app("b", 1, 0), app("a", 0, 0)])
    model = BinaryUnforeseenModel.fit(train, vocab)
    assert score_one(model, proj(vocab, [app("a", 0, 0), app("b", 1, 0)])) == 1.0
    # known app in a context never seen during training
    assert score_one(model, proj(vocab, [app("a", 1, 0)])) == 0.0
    # unknown apps are always unforeseen
    assert score_one(model, proj(vocab, [app("stranger", 0, 0)])) == 0.0


def test_unforeseen_rule_treats_markers_as_seen():
    vocab = Vocabulary(["a"])
    train = proj(vocab, [app("a", 0, 0)])  # no markers in training
    model = BinaryUnforeseenModel.fit(train, vocab)
    assert score_one(model, proj(vocab, [PSI, DELTA, app("a", 0, 0)])) == 1.0


def test_unforeseen_is_strictly_stricter_than_unknown():
    vocab = Vocabulary(["a", "b"])
    train = proj(vocab, [app("a", 0, 0), app("b", 0, 1)])
    unk_model = BinaryUnknownModel(vocab)
    unf_model = BinaryUnforeseenModel.fit(train, vocab)
    rng = np.random.default_rng(1)
    windows = rng.integers(0, vocab.size, size=(200, 5))
    s_unk = unk_model.score_windows(windows)
    s_unf = unf_model.score_windows(windows)
    assert np.all(s_unf <= s_unk)  # every unknown symbol is also unforeseen


def test_binary_rules_reject_empty_window():
    vocab = Vocabulary(["a"])
    with pytest.raises(ValueError):
        score_one(BinaryUnknownModel(vocab), np.array([], dtype=np.int64))
