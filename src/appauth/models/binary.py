"""The two all-or-nothing rules: unknown-app and unforeseen-observation.

Both give a window score of 1.0 or 0.0. The unknown-app rule rejects a
window containing any app outside the training app set; the unforeseen rule
is stricter and rejects any contextualized symbol that never occurred in
training. Session and day markers carry no user information and are skipped
by both.
"""

from __future__ import annotations

import numpy as np

from ..encode import Vocabulary
from .core import TrainConfig, as_index_array, as_window_matrix


class BinaryUnknownModel:
    """Scores 0.0 iff the window contains an app absent from the training
    app set (an unknown symbol after projection), else 1.0."""

    method = "bin-unk"

    def __init__(self, vocab: Vocabulary):
        self.vocab = vocab

    @classmethod
    def fit(
        cls, train_indices, vocab: Vocabulary, config: TrainConfig = TrainConfig()
    ) -> "BinaryUnknownModel":
        return cls(vocab)

    def to_arrays(self) -> tuple[dict, dict[str, np.ndarray]]:
        return {}, {}

    @classmethod
    def from_arrays(cls, vocab: Vocabulary, meta: dict, arrays) -> "BinaryUnknownModel":
        return cls(vocab)

    def score_windows(self, windows) -> np.ndarray:
        mat = as_window_matrix(windows, self.vocab.size)
        lo, hi = self.vocab.unknown_base, self.vocab.session_start_index
        bad = ((mat >= lo) & (mat < hi)).any(axis=1)
        return np.where(bad, 0.0, 1.0)


class BinaryUnforeseenModel:
    """Scores 0.0 iff the window contains any non-marker symbol that never
    occurred in the projected training sequence, else 1.0.

    An unknown-app symbol is always unforeseen, since the vocabulary is
    built from the training apps.
    """

    method = "bin-unfore"

    def __init__(self, vocab: Vocabulary, seen: np.ndarray):
        if seen.shape != (vocab.size,) or seen.dtype != np.bool_:
            raise ValueError("seen must be a boolean mask over the vocabulary")
        self.vocab = vocab
        self.seen = seen.copy()
        # markers are structural, not behavioral: never treated as unforeseen
        self.seen[vocab.session_start_index] = True
        self.seen[vocab.day_change_index] = True

    @classmethod
    def fit(
        cls, train_indices, vocab: Vocabulary, config: TrainConfig = TrainConfig()
    ) -> "BinaryUnforeseenModel":
        arr = as_index_array(train_indices, vocab.size)
        seen = np.zeros(vocab.size, dtype=np.bool_)
        seen[arr] = True
        return cls(vocab, seen)

    def to_arrays(self) -> tuple[dict, dict[str, np.ndarray]]:
        return {}, {"seen": self.seen}

    @classmethod
    def from_arrays(cls, vocab: Vocabulary, meta: dict, arrays) -> "BinaryUnforeseenModel":
        return cls(vocab, arrays["seen"])

    def score_windows(self, windows) -> np.ndarray:
        mat = as_window_matrix(windows, self.vocab.size)
        bad = (~self.seen[mat]).any(axis=1)
        return np.where(bad, 0.0, 1.0)
