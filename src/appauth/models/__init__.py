"""Verification models: the six methods and the one tag -> class table that
training and model files go through; every model scores through
`score_windows`."""

from __future__ import annotations

from typing import get_args

from ..encode import Vocabulary
from .binary import BinaryUnforeseenModel, BinaryUnknownModel
from .core import TrainConfig
from .edit_distance import MedModel
from .hmm import HmmParams, LaplaceHmmModel, TrainingTrace, baum_welch
from .io import load_model, save_model
from .markov import MarkovChainModel
from .mshmm import MsHmmModel

UserModel = (
    BinaryUnknownModel
    | BinaryUnforeseenModel
    | MedModel
    | MarkovChainModel
    | LaplaceHmmModel
    | MsHmmModel
)

# The one tag -> class table: each class trains, scores and (de)serializes
# its own method, and the union's order is the reporting order of outputs.
MODEL_CLASSES: dict[str, type[UserModel]] = {cls.method: cls for cls in get_args(UserModel)}
METHOD_TAGS = tuple(MODEL_CLASSES)

# The methods that build on a Baum-Welch fit of the training sequence.
HMM_METHODS = (LaplaceHmmModel.method, MsHmmModel.method)


def train_user_model(
    method: str,
    train_indices,
    vocab: Vocabulary,
    config: TrainConfig = TrainConfig(),
    base: tuple[HmmParams, TrainingTrace] | None = None,
) -> UserModel:
    """Train one verification model. The two HMM variants build on `base`,
    the Baum-Welch fit of `train_indices` (`baum_welch`), so they can share
    one; the other methods ignore it."""
    if method not in MODEL_CLASSES:
        raise ValueError(f"unknown method {method!r}; expected one of {METHOD_TAGS}")
    if method not in HMM_METHODS:
        return MODEL_CLASSES[method].fit(train_indices, vocab, config)
    if base is None:
        raise ValueError(f"{method} builds on a Baum-Welch fit: pass it as base")
    return MODEL_CLASSES[method].fit(train_indices, vocab, config, base)


__all__ = [
    "BinaryUnforeseenModel",
    "BinaryUnknownModel",
    "HMM_METHODS",
    "HmmParams",
    "LaplaceHmmModel",
    "MarkovChainModel",
    "MedModel",
    "METHOD_TAGS",
    "MODEL_CLASSES",
    "MsHmmModel",
    "TrainConfig",
    "TrainingTrace",
    "UserModel",
    "baum_welch",
    "load_model",
    "save_model",
    "train_user_model",
]
