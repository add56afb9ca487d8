"""First-order Markov chain over the observation alphabet, with additive
smoothing so that every state and transition keeps a small positive floor."""

from __future__ import annotations

import numpy as np

from ..encode import Vocabulary
from .core import (
    TrainConfig,
    as_index_array,
    as_window_matrix,
    assert_stochastic,
    check_floor,
)


class MarkovChainModel:
    """Smoothed unigram prior + transition matrix; scores are window
    log-likelihoods under the chain.

    The S x S transition matrix is held as each row's floor (its minimum)
    plus the sorted flat indices and values of the entries that differ from
    it: a fitted row is floored wherever its pair was never seen, and the
    row of a never-visited state is uniform, so this takes (S + observed
    pairs) x 16 bytes and rebuilds any matrix exactly. `transition`
    rebuilds the dense matrix, which model files store.
    """

    method = "mc"

    def __init__(self, vocab: Vocabulary, prior: np.ndarray, transition: np.ndarray, delta: float):
        size = vocab.size
        if prior.shape != (size,) or transition.shape != (size, size):
            raise ValueError("parameter shapes do not match vocabulary size")
        # Scores are log-probabilities: a NaN or zero entry would reach the
        # EER as a NaN or -inf score, so loaded parameters are checked here.
        if not (np.all(prior > 0.0) and np.all(transition > 0.0)):
            raise ValueError("prior and transition entries must be finite and positive")
        assert_stochastic(prior[None, :])
        assert_stochastic(transition)
        self.vocab = vocab
        self.prior = np.asarray(prior, dtype=np.float64)
        self.delta = check_floor(float(delta))
        self._log_prior = np.log(self.prior)
        dense = np.asarray(transition, dtype=np.float64)
        self._floor = dense.min(axis=1)
        self._keys = np.flatnonzero(dense != self._floor[:, None])
        self._values = dense.ravel()[self._keys]

    @property
    def transition(self) -> np.ndarray:
        """The dense (S, S) transition matrix, rebuilt from its floors."""
        dense = np.repeat(self._floor, self._floor.size)
        dense[self._keys] = self._values
        return dense.reshape(self._floor.size, -1)

    @classmethod
    def fit(
        cls, train_indices, vocab: Vocabulary, config: TrainConfig = TrainConfig()
    ) -> "MarkovChainModel":
        """Estimate smoothed prior and transition rows from one sequence.

        prior_i = (count_i + d) / (T + d*S); row_ij = (c_ij + d) / (c_i + d*S)
        with c_i the outgoing-transition count of state i, so never-visited
        states get a uniform row.
        """
        size = vocab.size
        seq = as_index_array(train_indices, size)
        d = config.delta

        occ = np.bincount(seq, minlength=size).astype(np.float64)
        prior = (occ + d) / (seq.size + d * size)

        pairs = seq[:-1] * size + seq[1:]
        pair_counts = np.bincount(pairs, minlength=size * size).reshape(size, size)
        out_counts = pair_counts.sum(axis=1, keepdims=True)
        transition = (pair_counts + d) / (out_counts + d * size)
        return cls(vocab, prior, transition, d)

    def to_arrays(self) -> tuple[dict, dict[str, np.ndarray]]:
        return {"delta": self.delta}, {"prior": self.prior, "transition": self.transition}

    @classmethod
    def from_arrays(cls, vocab: Vocabulary, meta: dict, arrays) -> "MarkovChainModel":
        return cls(vocab, arrays["prior"], arrays["transition"], meta["delta"])

    def score_windows(self, windows) -> np.ndarray:
        """Window log-likelihoods, looked up in a dense (S, S) log table
        that the call builds from the logs of the row floors and of the
        stored entries, and frees when it returns. The log of the same float
        has the same bits as a dense table's log of it."""
        size = self.vocab.size
        mat = as_window_matrix(windows, size)
        log_table = np.repeat(np.log(self._floor), size)
        log_table[self._keys] = np.log(self._values)
        return self._log_prior[mat[:, 0]] + log_table[mat[:, :-1] * size + mat[:, 1:]].sum(axis=1)
