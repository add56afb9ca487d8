"""Model files written by earlier versions still load and score the same.

`tests/data/model.<tag>.npz` and `expected_scores.npz` were written with
`tests/data/make_model_files.py`; see that script for the training setup.
"""

from __future__ import annotations

import zipfile
from pathlib import Path

import numpy as np
import pytest

from appauth.models import METHOD_TAGS, load_model, save_model

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
