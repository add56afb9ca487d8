"""Verification models: the six methods and their training dispatch; every
model scores through `score_windows`."""

from __future__ import annotations

from ..encode import Vocabulary
from .binary import BinaryUnforeseenModel, BinaryUnknownModel
from .core import (
    DEFAULT_DELTA,
    METHOD_TAGS,
    SmoothingConfig,
    TrainConfig,
)
from .edit_distance import MedModel, substitution_cost
from .hmm import (
    HmmParams,
    LaplaceHmmModel,
    TrainingTrace,
    baum_welch,
    forward_log_likelihood,
    laplace_smooth_emissions,
)
from .io import load_model, save_model, vocabulary_hash
from .markov import MarkovChainModel
from .mshmm import MarginalTables, MsHmmModel, extended_emissions

UserModel = (
    BinaryUnknownModel
    | BinaryUnforeseenModel
    | MedModel
    | MarkovChainModel
    | LaplaceHmmModel
    | MsHmmModel
)


def train_user_model(
    method: str,
    train_indices,
    vocab: Vocabulary,
    config: TrainConfig = TrainConfig(),
    base: tuple[HmmParams, TrainingTrace] | None = None,
) -> UserModel:
    """Train one verification model; `base` lets the two HMM variants share
    a single Baum-Welch run."""
    if method == "bin-unk":
        return BinaryUnknownModel(vocab)
    if method == "bin-unfore":
        return BinaryUnforeseenModel.fit(train_indices, vocab)
    if method == "med":
        return MedModel.fit(train_indices, vocab)
    if method == "mc":
        return MarkovChainModel.fit(train_indices, vocab, config.smoothing)
    if method == "hmm-lap":
        return LaplaceHmmModel.fit(
            train_indices,
            vocab,
            config.smoothing,
            n_states=config.n_states,
            max_iter=config.max_iter,
            tol=config.tol,
            seed=config.seed,
            base=base,
        )
    if method == "mshmm":
        return MsHmmModel.fit(
            train_indices,
            vocab,
            config.smoothing,
            n_states=config.n_states,
            max_iter=config.max_iter,
            tol=config.tol,
            seed=config.seed,
            base=base,
        )
    raise ValueError(f"unknown method {method!r}; expected one of {METHOD_TAGS}")


__all__ = [
    "BinaryUnforeseenModel",
    "BinaryUnknownModel",
    "DEFAULT_DELTA",
    "HmmParams",
    "LaplaceHmmModel",
    "MarginalTables",
    "MarkovChainModel",
    "MedModel",
    "METHOD_TAGS",
    "MsHmmModel",
    "SmoothingConfig",
    "TrainConfig",
    "TrainingTrace",
    "UserModel",
    "baum_welch",
    "extended_emissions",
    "forward_log_likelihood",
    "laplace_smooth_emissions",
    "load_model",
    "save_model",
    "substitution_cost",
    "train_user_model",
    "vocabulary_hash",
]
