"""Model files written by earlier versions still load and score the same.

`tests/data/model.<tag>.npz` and `expected_scores.npz` were written with
`tests/data/make_model_files.py`; see that script for the training setup.
"""

from __future__ import annotations

import zipfile
from pathlib import Path

import numpy as np
import pytest

from conftest import reference_baum_welch, unfloored_m_step
from appauth.encode import Vocabulary
from appauth.models import METHOD_TAGS, load_model, save_model, train_user_model
from appauth.models.hmm import ZERO_BELOW, HmmParams

DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("tag", METHOD_TAGS)
def test_pinned_model_file_scores_exactly(tag):
    model, owner = load_model(DATA / f"model.{tag}.npz")
    assert model.method == tag and owner == "user42"
    with np.load(DATA / "expected_scores.npz", allow_pickle=False) as expected:
        np.testing.assert_array_equal(model.score_windows(expected["windows"]), expected[tag])


@pytest.mark.parametrize("tag", METHOD_TAGS)
def test_resaving_a_pinned_file_keeps_its_layout(tag, tmp_path):
    # same member names in the same order with the same bytes: the meta
    # keys, array names and dtypes of the format are unchanged
    pinned = DATA / f"model.{tag}.npz"
    resaved = tmp_path / pinned.name
    model, owner = load_model(pinned)
    save_model(model, resaved, owner)
    with zipfile.ZipFile(pinned) as a, zipfile.ZipFile(resaved) as b:
        assert a.namelist() == b.namelist()
        for name in a.namelist():
            assert a.read(name) == b.read(name), name


@pytest.mark.parametrize("tag", ["hmm-lap", "mshmm"])
def test_file_of_the_old_rule_scores_as_its_zeroed_model(tag, tmp_path):
    """An HMM file written before the M-step set parameters below
    ZERO_BELOW to zero still loads as it is, and scores within 1e-12
    relative of the same model with those entries zeroed."""
    vocab = Vocabulary(["a", "b", "c"])
    rng = np.random.default_rng(2)
    routines = [rng.integers(0, vocab.unknown_base, 5) for _ in range(4)]
    train = np.concatenate([routines[i] for i in rng.integers(0, 4, 60)])
    base = reference_baum_welch(train, vocab.size, 5, 20, 0.0, 1, m_step=unfloored_m_step)
    path = tmp_path / f"model.{tag}.npz"
    save_model(train_user_model(tag, train, vocab, base=base), path, "u")
    with np.load(path, allow_pickle=False) as payload:
        values = np.concatenate([payload[name].ravel() for name in ("pi", "trans", "emit")])
    assert ((values > 0.0) & (values < ZERO_BELOW)).any()
    assert ((values > 0.0) & (values < np.finfo(np.float64).tiny)).any()

    params, trace = base
    zeroed = [np.where(p < ZERO_BELOW, 0.0, p) for p in (params.pi, params.trans, params.emit)]
    floored = train_user_model(tag, train, vocab, base=(HmmParams(*zeroed), trace))
    windows = np.random.default_rng(3).integers(0, vocab.size, (40, 12))
    windows[:20] = np.lib.stride_tricks.sliding_window_view(train, 12)[::14][:20]
    model, _ = load_model(path)
    np.testing.assert_allclose(
        model.score_windows(windows), floored.score_windows(windows), rtol=1e-12, atol=0
    )
