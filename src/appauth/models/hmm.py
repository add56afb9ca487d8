"""Discrete hidden Markov model: scaled forward/backward, Baum-Welch
training, and Laplace emission smoothing.

All likelihood work is done in the scaled domain (per-step normalization
constants whose logs accumulate into the log-likelihood), which stays exact
for windows far longer than raw products would allow.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..encode import Vocabulary
from .core import (
    TrainConfig,
    as_index_array,
    as_window_matrix,
    assert_stochastic,
    check_indices,
    normalize_rows,
    random_simplex,
)


@dataclass(slots=True)
class HmmParams:
    """Raw parameter triple: initial distribution, transitions, emissions."""

    pi: np.ndarray  # (K,)
    trans: np.ndarray  # (K, K)
    emit: np.ndarray  # (K, S)

    def __post_init__(self) -> None:
        k = self.pi.shape[0]
        if self.trans.shape != (k, k) or self.emit.shape[0] != k:
            raise ValueError("inconsistent parameter shapes")
        assert_stochastic(self.pi[None, :])
        assert_stochastic(self.trans)
        assert_stochastic(self.emit)

    @property
    def n_states(self) -> int:
        return self.pi.shape[0]

    @property
    def n_symbols(self) -> int:
        return self.emit.shape[1]

    def to_arrays(self) -> dict[str, np.ndarray]:
        return {"pi": self.pi, "trans": self.trans, "emit": self.emit}

    @classmethod
    def from_arrays(cls, arrays) -> "HmmParams":
        return cls(pi=arrays["pi"], trans=arrays["trans"], emit=arrays["emit"])


@dataclass(slots=True)
class TrainingTrace:
    """What happened during one Baum-Welch run."""

    seed: int
    iterations: int
    log_likelihoods: list[float] = field(default_factory=list)

    @property
    def final_log_likelihood(self) -> float:
        return self.log_likelihoods[-1] if self.log_likelihoods else float("nan")

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "iterations": self.iterations,
            "final_log_likelihood": self.final_log_likelihood,
            "log_likelihoods": list(self.log_likelihoods),
        }

    @classmethod
    def from_json(cls, payload: dict) -> "TrainingTrace":
        return cls(
            seed=int(payload["seed"]),
            iterations=int(payload["iterations"]),
            log_likelihoods=[float(x) for x in payload["log_likelihoods"]],
        )


def forward_log_likelihood(
    pi: np.ndarray, trans: np.ndarray, emit: np.ndarray, windows
) -> np.ndarray:
    """log P(window) of each row of a (W, n) window batch by the scaled
    forward recursion; a single window is a batch of one.

    emit need not be stochastic: the marginally-smoothed variant scores
    through a patched emission table.
    """
    mat = as_window_matrix(windows)
    check_indices(mat, emit.shape[1])
    alpha = pi[None, :] * emit[:, mat[:, 0]].T
    totals = np.zeros(mat.shape[0], dtype=np.float64)
    for t in range(mat.shape[1]):
        if t:
            alpha = (alpha @ trans) * emit[:, mat[:, t]].T
        c = alpha.sum(axis=1)
        if not np.all(c > 0.0):
            raise FloatingPointError("forward pass lost all probability mass")
        totals += np.log(c)
        alpha = alpha / c[:, None]
    return totals


def _forward_backward(params: HmmParams, seq: np.ndarray):
    """Scaled forward/backward pass.

    Returns (log_likelihood, gamma, xi_sum): gamma[t, i] is the posterior
    state occupancy, xi_sum[i, j] the posterior transition count summed over
    time.
    """
    t_len = seq.size
    k = params.n_states
    emit_obs = params.emit[:, seq].T  # (T, K)

    alpha = np.empty((t_len, k))
    scale = np.empty(t_len)
    a = params.pi * emit_obs[0]
    for t in range(t_len):
        if t:
            a = (alpha[t - 1] @ params.trans) * emit_obs[t]
        c = a.sum()
        if not c > 0.0:
            raise FloatingPointError(f"zero forward mass at position {t}")
        scale[t] = c
        alpha[t] = a / c

    beta = np.empty((t_len, k))
    beta[t_len - 1] = 1.0
    for t in range(t_len - 2, -1, -1):
        beta[t] = (params.trans @ (emit_obs[t + 1] * beta[t + 1])) / scale[t + 1]

    gamma = alpha * beta
    if t_len > 1:
        weighted = emit_obs[1:] * beta[1:] / scale[1:, None]  # (T-1, K)
        xi_sum = params.trans * (alpha[:-1].T @ weighted)
    else:
        xi_sum = np.zeros((k, k))
    return float(np.log(scale).sum()), gamma, xi_sum


def baum_welch(
    train_indices,
    n_symbols: int,
    n_states: int,
    max_iter: int,
    tol: float,
    seed: int,
) -> tuple[HmmParams, TrainingTrace]:
    """Fit HMM parameters by EM from a seeded random-simplex start.

    Stops after max_iter expectation/maximization rounds, or earlier once
    the per-symbol log-likelihood gain drops below tol (tol = 0 disables
    early stopping). The recorded log-likelihood sequence is non-decreasing
    up to floating-point slack — that is the EM guarantee and the tests hold
    it to 1e-8.
    """
    seq = as_index_array(train_indices)
    if seq.size < 2:
        raise ValueError("training sequence must have at least 2 symbols")
    check_indices(seq, n_symbols)
    rng = np.random.default_rng(seed)
    params = HmmParams(
        pi=random_simplex(rng, (n_states,)),
        trans=random_simplex(rng, (n_states, n_states)),
        emit=random_simplex(rng, (n_states, n_symbols)),
    )
    trace = TrainingTrace(seed=seed, iterations=0)

    prev_ll: float | None = None
    for _ in range(max_iter):
        ll, gamma, xi_sum = _forward_backward(params, seq)
        trace.log_likelihoods.append(ll)
        trace.iterations += 1
        if prev_ll is not None and tol > 0.0 and (ll - prev_ll) / seq.size < tol:
            break
        prev_ll = ll

        emit_counts = np.zeros((n_symbols, n_states))
        np.add.at(emit_counts, seq, gamma)
        params = HmmParams(
            pi=gamma[0] / gamma[0].sum(),
            trans=normalize_rows(xi_sum),
            emit=normalize_rows(emit_counts.T),
        )
    return params, trace


def train_base(
    train_indices, vocab: Vocabulary, config: TrainConfig
) -> tuple[HmmParams, TrainingTrace]:
    """The unsmoothed Baum-Welch fit both HMM variants start from."""
    return baum_welch(
        train_indices, vocab.size, config.n_states, config.max_iter, config.tol, config.seed
    )


def hmm_meta(params: HmmParams, delta: float, trace: TrainingTrace) -> dict:
    """Metadata both HMM variants store next to their arrays."""
    return {"delta": delta, "n_states": params.n_states, "training": trace.to_json()}


def laplace_smooth_emissions(params: HmmParams, delta: float) -> HmmParams:
    """Additive-smooth every emission row: (b + delta) / (1 + delta*S)."""
    return HmmParams(
        pi=params.pi.copy(),
        trans=params.trans.copy(),
        emit=(params.emit + delta) / (1.0 + delta * params.n_symbols),
    )


class LaplaceHmmModel:
    """HMM trained by Baum-Welch with Laplace-smoothed emissions, so every
    symbol keeps positive probability from every state."""

    method = "hmm-lap"

    def __init__(
        self,
        vocab: Vocabulary,
        params: HmmParams,
        delta: float,
        trace: TrainingTrace | None = None,
    ):
        if params.n_symbols != vocab.size:
            raise ValueError("emission width does not match vocabulary size")
        self.vocab = vocab
        self.params = params
        self.delta = float(delta)
        self.trace = trace if trace is not None else TrainingTrace(seed=-1, iterations=0)

    @classmethod
    def fit(
        cls,
        train_indices,
        vocab: Vocabulary,
        config: TrainConfig = TrainConfig(),
        base: tuple[HmmParams, TrainingTrace] | None = None,
    ) -> "LaplaceHmmModel":
        """Train (or reuse a pre-trained base) and smooth the emissions."""
        params, trace = base if base is not None else train_base(train_indices, vocab, config)
        return cls(vocab, laplace_smooth_emissions(params, config.delta), config.delta, trace)

    def to_arrays(self) -> tuple[dict, dict[str, np.ndarray]]:
        return hmm_meta(self.params, self.delta, self.trace), self.params.to_arrays()

    @classmethod
    def from_arrays(cls, vocab: Vocabulary, meta: dict, arrays) -> "LaplaceHmmModel":
        params = HmmParams.from_arrays(arrays)
        return cls(vocab, params, meta["delta"], TrainingTrace.from_json(meta["training"]))

    def score_windows(self, windows) -> np.ndarray:
        return forward_log_likelihood(self.params.pi, self.params.trans, self.params.emit, windows)
