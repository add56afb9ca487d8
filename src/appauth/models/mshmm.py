"""HMM with marginal smoothing: unseen observations fall back to context
marginals instead of a flat floor.

The base HMM is trained without emission smoothing. At scoring time a
symbol observed during training emits with its learned probability; a
symbol never observed emits, from every state, the product of the app's
time-of-day and weekday marginals (each floored), which lets the model
distinguish a known app showing up in an odd context from a wholly unknown
app — the latter bottoms out at the squared floor.
"""

from __future__ import annotations

import numpy as np

from ..encode import N_DAY, N_TZ, Vocabulary
from .core import TrainConfig, as_index_array, check_floor
from .hmm import HmmParams, TrainingTrace, forward_log_likelihood, hmm_meta


def marginal_tables(train_indices, vocab: Vocabulary) -> tuple[np.ndarray, np.ndarray]:
    """Joint frequencies of (app, time-of-day block) and (app, weekday flag)
    over the app symbols of one training sequence."""
    seq = as_index_array(train_indices, vocab.size)
    apps = seq[seq < vocab.unknown_base]
    if apps.size == 0:
        raise ValueError("training sequence contains no app symbols")
    ranks = vocab.symbol_app[apps]
    tz_counts = np.zeros((vocab.n_apps, N_TZ))
    day_counts = np.zeros((vocab.n_apps, N_DAY))
    np.add.at(tz_counts, (ranks, vocab.symbol_tz[apps]), 1.0)
    np.add.at(day_counts, (ranks, vocab.symbol_day[apps]), 1.0)
    return tz_counts / apps.size, day_counts / apps.size


class MsHmmModel:
    """Marginally smoothed HMM verifier.

    `emit_ext` covers the whole vocabulary. Seen symbols keep their learned
    column. An unseen app symbol gets the state-independent product
    max(delta, P(app, tz)) * max(delta, P(app, day)); unseen unknown-app
    symbols and markers get delta squared.
    """

    method = "mshmm"

    def __init__(
        self,
        vocab: Vocabulary,
        base: HmmParams,
        p_app_tz: np.ndarray,
        p_app_day: np.ndarray,
        seen: np.ndarray,
        delta: float,
        trace: TrainingTrace,
    ):
        if base.n_symbols != vocab.size:
            raise ValueError("emission width does not match vocabulary size")
        if seen.shape != (vocab.size,) or seen.dtype != np.bool_:
            raise ValueError("seen must be a boolean mask over the vocabulary")
        if p_app_tz.shape != (vocab.n_apps, N_TZ) or p_app_day.shape != (vocab.n_apps, N_DAY):
            raise ValueError("marginal table shapes do not match vocabulary")
        # The tables become emission probabilities: a NaN or negative entry
        # would surface only when a window holds an unseen app symbol.
        for table in (p_app_tz, p_app_day):
            if not (np.all(np.isfinite(table)) and np.all(table >= 0.0)):
                raise ValueError("marginal table entries must be finite and non-negative")
        self.vocab = vocab
        self.base = base
        self.p_app_tz = np.asarray(p_app_tz, dtype=np.float64)
        self.p_app_day = np.asarray(p_app_day, dtype=np.float64)
        self.seen = seen
        self.delta = delta = check_floor(float(delta))
        self.trace = trace

        fallback = np.full(vocab.size, delta * delta)
        apps = slice(0, vocab.unknown_base)
        ranks = vocab.symbol_app[apps]
        fallback[apps] = np.maximum(delta, self.p_app_tz[ranks, vocab.symbol_tz[apps]]) * np.maximum(
            delta, self.p_app_day[ranks, vocab.symbol_day[apps]]
        )
        # Baum-Welch sets learned emissions below ZERO_BELOW to exact zero; floor
        # seen columns at delta so the lookup stays a total, strictly positive function.
        # A seen symbol misses at most one factor, so it gets the single-factor
        # floor; the two-factor floor (delta**2) is reserved for unknown symbols.
        learned = np.maximum(base.emit, delta)
        self.emit_ext = np.where(seen[None, :], learned, fallback[None, :])

    @classmethod
    def fit(
        cls,
        train_indices,
        vocab: Vocabulary,
        config: TrainConfig,
        base: tuple[HmmParams, TrainingTrace],
    ) -> "MsHmmModel":
        """Attach the marginal fallback tables of `train_indices` to
        `base`, its unsmoothed Baum-Welch fit."""
        seq = as_index_array(train_indices, vocab.size)
        params, trace = base
        seen = np.zeros(vocab.size, dtype=np.bool_)
        seen[seq] = True
        return cls(vocab, params, *marginal_tables(seq, vocab), seen, config.delta, trace)

    def to_arrays(self) -> tuple[dict, dict[str, np.ndarray]]:
        arrays = {
            **self.base.to_arrays(),
            "seen": self.seen,
            "p_app_tz": self.p_app_tz,
            "p_app_day": self.p_app_day,
        }
        return hmm_meta(self.base, self.delta, self.trace), arrays

    @classmethod
    def from_arrays(cls, vocab: Vocabulary, meta: dict, arrays) -> "MsHmmModel":
        return cls(
            vocab,
            HmmParams.from_arrays(arrays),
            arrays["p_app_tz"],
            arrays["p_app_day"],
            arrays["seen"],
            meta["delta"],
            TrainingTrace.from_json(meta["training"]),
        )

    def score_windows(self, windows) -> np.ndarray:
        return forward_log_likelihood(self.base.pi, self.base.trans, self.emit_ext, windows)
