"""Uniform training dispatch and model file round trips."""

from __future__ import annotations

import json

import numpy as np
import pytest

from conftest import hmm_base
from appauth.encode import Vocabulary
from appauth.ingest import FormatError
from appauth.models import (
    HMM_METHODS,
    METHOD_TAGS,
    BinaryUnknownModel,
    BinaryUnforeseenModel,
    LaplaceHmmModel,
    MarkovChainModel,
    MedModel,
    MsHmmModel,
    TrainConfig,
    baum_welch,
    load_model,
    save_model,
    train_user_model,
)

EXPECTED_CLASS = {
    "bin-unk": BinaryUnknownModel,
    "bin-unfore": BinaryUnforeseenModel,
    "med": MedModel,
    "mc": MarkovChainModel,
    "hmm-lap": LaplaceHmmModel,
    "mshmm": MsHmmModel,
}


def make_training():
    vocab = Vocabulary(["a", "b", "c"])
    rng = np.random.default_rng(0)
    train = rng.integers(0, vocab.unknown_base, size=400).astype(np.int64)
    config = TrainConfig(n_states=3, max_iter=6, seed=1)
    return vocab, train, config


def test_dispatch_builds_the_right_model_per_tag():
    """The call the benchmark's stream workload makes: one Baum-Welch fit
    passed to every tag. The HMM-free methods score the same without it,
    and the two HMM methods refuse to build without it."""
    vocab, train, config = make_training()
    base = baum_welch(train, vocab.size, config.n_states, config.max_iter, config.tol, config.seed)
    windows = np.random.default_rng(42).integers(0, vocab.size, size=(40, 12))
    for tag in METHOD_TAGS:
        model = train_user_model(tag, train, vocab, config, base=base)
        assert isinstance(model, EXPECTED_CLASS[tag])
        assert model.method == tag
        assert model.vocab == vocab
        if tag in HMM_METHODS:
            with pytest.raises(ValueError, match=tag):
                train_user_model(tag, train, vocab, config)
        else:
            without = train_user_model(tag, train, vocab, config)
            np.testing.assert_array_equal(
                without.score_windows(windows), model.score_windows(windows)
            )


def test_dispatch_rejects_unknown_tag():
    vocab, train, config = make_training()
    with pytest.raises(ValueError):
        train_user_model("gru", train, vocab, config)


def test_save_load_round_trip_is_bit_identical(tmp_path):
    vocab, train, config = make_training()
    base = hmm_base(train, vocab, config)
    rng = np.random.default_rng(42)
    windows = rng.integers(0, vocab.size, size=(40, 12))
    for tag in METHOD_TAGS:
        model = train_user_model(tag, train, vocab, config, base=base)
        before = model.score_windows(windows)
        path = tmp_path / f"model.{tag}.npz"
        save_model(model, path, "user42")
        loaded, owner = load_model(path)
        assert loaded.method == tag
        assert owner == "user42"
        assert loaded.vocab == vocab
        after = loaded.score_windows(windows)
        np.testing.assert_array_equal(before, after)


def test_every_model_guards_its_window_batch():
    """An empty batch scores to nothing; an out-of-range symbol is an error,
    never a silently wrapped index, and so is a float or bool symbol, never
    a truncated one. A single window is a (1, n) batch: a bare 1-D array
    is refused."""
    vocab, train, config = make_training()
    base = hmm_base(train, vocab, config)
    for tag in METHOD_TAGS:
        model = train_user_model(tag, train, vocab, config, base=base)
        assert model.score_windows(np.zeros((0, 12), dtype=np.int64)).shape == (0,)
        assert model.score_windows(train[None, :12]).shape == (1,)
        with pytest.raises(ValueError, match="window batch"):
            model.score_windows(train[:12])
        for bad in (-1, vocab.size):
            windows = np.zeros((3, 12), dtype=np.int64)
            windows[1, 4] = bad
            with pytest.raises(ValueError):
                model.score_windows(windows)
        for windows in (np.array([[0.9, 1.9, 2.5]]), np.array([[True, False]])):
            with pytest.raises(ValueError, match="must be integers"):
                model.score_windows(windows)


def test_load_rejects_foreign_and_tampered_files(tmp_path):
    vocab, train, config = make_training()
    base = hmm_base(train, vocab, config)
    path = tmp_path / "model.npz"
    save_model(train_user_model("mc", train, vocab, config), path, "u")

    plain = tmp_path / "plain.npz"
    np.savez(plain, data=np.zeros(3))
    with pytest.raises(FormatError):
        load_model(plain)

    with np.load(path, allow_pickle=False) as payload:
        arrays = {k: payload[k] for k in payload.files}
    meta = json.loads(str(arrays["meta"]))
    meta["vocab_hash"] = "0" * 64
    arrays["meta"] = np.array(json.dumps(meta))
    tampered = tmp_path / "tampered.npz"
    np.savez(tampered, **arrays)
    with pytest.raises(FormatError):
        load_model(tampered)

    # a NaN prior entry would score NaN and poison the EER
    with np.load(path, allow_pickle=False) as payload:
        arrays = {k: payload[k] for k in payload.files}
    arrays["prior"][0] = np.nan
    poisoned = tmp_path / "poisoned.npz"
    np.savez(poisoned, **arrays)
    with pytest.raises(ValueError, match="finite and positive"):
        load_model(poisoned)

    # a missing array is a format error, not a crash
    del arrays["transition"]
    np.savez(poisoned, **arrays)
    with pytest.raises(FormatError, match="incomplete"):
        load_model(poisoned)

    # mshmm: a NaN marginal would surface only at scoring; a non-boolean
    # seen mask would be silently reinterpreted
    mshmm_path = tmp_path / "model.mshmm.npz"
    save_model(train_user_model("mshmm", train, vocab, config, base=base), mshmm_path, "u")
    for name, value, message in [
        ("p_app_tz", np.nan, "finite and non-negative"),
        ("p_app_day", -0.5, "finite and non-negative"),
        ("seen", None, "boolean mask"),
    ]:
        with np.load(mshmm_path, allow_pickle=False) as payload:
            arrays = {k: payload[k] for k in payload.files}
        if value is None:
            arrays[name] = arrays[name].astype(np.int64)
        else:
            arrays[name][0, 0] = value
        np.savez(poisoned, **arrays)
        with pytest.raises(ValueError, match=message):
            load_model(poisoned)

    hmm_path = tmp_path / "model.hmm-lap.npz"
    save_model(train_user_model("hmm-lap", train, vocab, config, base=base), hmm_path, "u")

    # a floor outside (0, 1) would reshape every unseen symbol's emission,
    # and a re-save would write it back next to tables smoothed with another
    for model_path in (mshmm_path, hmm_path, path):
        for delta in (5.0, -0.5, 0.0):
            tampered_copy(model_path, poisoned, meta=lambda m: {**m, "delta": delta})
            with pytest.raises(ValueError, match="delta must be in"):
                load_model(poisoned)

    # hmm-lap: a negative emission entry in rows that still sum to 1
    def negative_column(arrays):
        emit = arrays["emit"]
        emit[:, 1:] *= 2.0 / emit[:, 1:].sum(axis=1, keepdims=True)
        emit[:, 0] = -1.0

    tampered_copy(hmm_path, poisoned, arrays=negative_column)
    with pytest.raises(ValueError, match="negative entry"):
        load_model(poisoned)

    # hmm-lap: a (K, 1) prior of ones passes the row check and would score
    # silently wrong; a 1-D emission table of K entries summing to 1 would
    # fail as an IndexError
    def column_prior(arrays):
        arrays["pi"] = np.ones((arrays["pi"].size, 1))

    def flat_emit(arrays):
        arrays["emit"] = arrays["pi"].copy()

    for edit in (column_prior, flat_emit):
        tampered_copy(hmm_path, poisoned, arrays=edit)
        with pytest.raises(ValueError, match="pi must be 1-D and emit 2-D"):
            load_model(poisoned)

    # med: training symbols raised by 0.7 must not load as the untouched model
    med_path = tmp_path / "model.med.npz"
    save_model(train_user_model("med", train, vocab, config), med_path, "u")

    def raised(arrays):
        arrays["train_indices"] = arrays["train_indices"] + 0.7

    tampered_copy(med_path, poisoned, arrays=raised)
    with pytest.raises(ValueError, match="must be integers"):
        load_model(poisoned)

    # wrongly typed metadata is a format error, not a TypeError traceback
    for path, edit in [
        (hmm_path, lambda m: {**m, "training": {**m["training"], "log_likelihoods": 5}}),
        (hmm_path, lambda m: {**m, "training": "x"}),
        (mshmm_path, lambda m: {**m, "vocab": {**m["vocab"], "apps": 5}}),
        (mshmm_path, lambda m: {**m, "delta": [1]}),
        (hmm_path, lambda m: [m]),
        (hmm_path, lambda m: {**m, "owner": 5}),
        (hmm_path, lambda m: {**m, "owner": None}),
    ]:
        tampered_copy(path, poisoned, meta=edit)
        with pytest.raises(FormatError):
            load_model(poisoned)


def tampered_copy(src, dest, arrays=None, meta=None) -> None:
    """Copy a model file, editing its arrays in place with `arrays` or
    replacing its metadata by `meta(metadata)`."""
    with np.load(src, allow_pickle=False) as payload:
        contents = {k: payload[k] for k in payload.files}
    if arrays is not None:
        arrays(contents)
    if meta is not None:
        contents["meta"] = np.array(json.dumps(meta(json.loads(str(contents["meta"])))))
    np.savez(dest, **contents)


def test_train_config_validation():
    assert TrainConfig().n_states == 20
    assert TrainConfig().max_iter == 50
    with pytest.raises(ValueError):
        TrainConfig(n_states=0)
    with pytest.raises(ValueError):
        TrainConfig(max_iter=0)
