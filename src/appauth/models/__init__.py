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


def train_user_model(
    method: str,
    train_indices,
    vocab: Vocabulary,
    config: TrainConfig = TrainConfig(),
    base: tuple[HmmParams, TrainingTrace] | None = None,
) -> UserModel:
    """Train one verification model; `base` lets the two HMM variants share
    a single Baum-Welch run, and the other methods ignore it."""
    if method not in MODEL_CLASSES:
        raise ValueError(f"unknown method {method!r}; expected one of {METHOD_TAGS}")
    return MODEL_CLASSES[method].fit(train_indices, vocab, config, base)


__all__ = [
    "BinaryUnforeseenModel",
    "BinaryUnknownModel",
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
