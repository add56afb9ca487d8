"""Discrete hidden Markov model: scaled forward/backward, Baum-Welch
training (every user of a cohort in lock-step), and Laplace emission
smoothing.

All likelihood work is done in the scaled domain (per-step normalization
constants whose logs accumulate into the log-likelihood), which stays exact
for windows far longer than raw products would allow.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from ..encode import Vocabulary
from .core import (
    TrainConfig,
    as_index_array,
    as_window_matrix,
    assert_stochastic,
    check_floor,
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
    log_likelihoods: list[float] = field(default_factory=list)

    @property
    def iterations(self) -> int:
        return len(self.log_likelihoods)

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
        trace = cls(int(payload["seed"]), [float(x) for x in payload["log_likelihoods"]])
        if int(payload["iterations"]) != trace.iterations:
            raise ValueError("training trace: iterations disagree with its log-likelihoods")
        return trace


def forward_log_likelihood(
    pi: np.ndarray, trans: np.ndarray, emit: np.ndarray, windows
) -> np.ndarray:
    """log P(window) of each row of a (W, n) window batch by the scaled
    forward recursion; a single window is a (1, n) batch.

    emit need not be stochastic: the marginally-smoothed variant scores
    through a patched emission table.

    Each step writes into buffers allocated once per call: a matmul, one
    np.take of the step's emission rows from the transposed (S, K) table,
    a multiply, the row sums into row t of the (n, W) scale array, and a
    divide back into alpha. A window that loses all mass is NaN for the
    rest of the loop; the one zero-mass check after it raises
    FloatingPointError, and only then are the logs taken.
    """
    mat = as_window_matrix(windows, emit.shape[1])
    matmul, take, multiply, add_reduce, divide = (
        np.matmul, np.take, np.multiply, np.add.reduce, np.divide
    )
    table = np.ascontiguousarray(emit.T)  # a symbol's K probabilities in one row
    steps = np.ascontiguousarray(mat.T)  # (n, W): step t's symbols in one row
    alpha = np.empty((mat.shape[0], table.shape[1]))
    unscaled, obs = np.empty_like(alpha), np.empty_like(alpha)
    scale = np.empty(steps.shape)
    scale_col = scale[:, :, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        take(table, steps[0], 0, obs, "clip")
        multiply(pi, obs, unscaled)
        add_reduce(unscaled, 1, None, scale[0])
        divide(unscaled, scale_col[0], alpha)
        for sym, c, c_col in zip(steps[1:], scale[1:], scale_col[1:]):
            matmul(alpha, trans, unscaled)
            take(table, sym, 0, obs, "clip")
            multiply(unscaled, obs, unscaled)
            add_reduce(unscaled, 1, None, c)
            divide(unscaled, c_col, alpha)
    if not (scale > 0.0).all():
        raise FloatingPointError("forward pass lost all probability mass")
    # The logs are added in step order from the first, as a running total
    # adds them. np.add.reduce along axis 0 does so only for W >= 2: it
    # sums a single column pairwise.
    logs = np.log(scale)
    totals = logs[0].copy()
    for step_log in logs[1:]:
        totals += step_log
    return totals


# Cells (users x longest sequence x states) of one lock-step Baum-Welch
# batch. alpha and beta are one float64 array of this many cells each
# (4 MiB), which bounds training memory like CHUNK_CELLS bounds `med`.
COHORT_CELLS = 1 << 19


class _BatchLayout:
    """Buffers of one lock-step layout: the sequences still training, in
    batch order. The caller builds one when that set changes and reuses it
    every EM iteration until then.

    alpha and beta are time-major (T_max, B, K) views of `work`, a float64
    scratch array of at least 2 x T_max x B x K cells that the caller
    allocates once per batch. Every iteration copies each sequence's
    emission table, transposed so that a symbol's K probabilities are one
    contiguous row, into `table` below a row of 1.0. `alpha_rows` and
    `beta_rows` are the (T_max, B) table rows one np.take gathers into alpha
    and beta, padding included.
    """

    def __init__(
        self, seqs: Sequence[np.ndarray], n_symbols: Sequence[int], n_states: int, work: np.ndarray
    ):
        self.seqs = seqs
        lengths = [seq.size for seq in seqs]
        t_max, n, k = max(lengths), len(seqs), n_states
        cells = t_max * n * k
        self.alpha = work[:cells].reshape(t_max, n, k)
        self.beta = work[cells : 2 * cells].reshape(t_max, n, k)
        self.offsets = np.cumsum([1, *n_symbols[:-1]])
        self.table = np.empty((1 + sum(n_symbols), k))
        self.table[0] = 1.0
        # alpha overwrites the emissions it reads: alpha[t] replaces emission
        # t, padded with 1.0 past each sequence's end. beta is right-aligned,
        # so each sequence's beta starts at 1.0 at its own end, and slot t
        # holds emission t + 1 until beta[t] replaces it.
        self.alpha_rows = np.zeros((t_max, n), dtype=np.intp)
        self.beta_rows = np.zeros((t_max, n), dtype=np.intp)
        for b, (seq, offset) in enumerate(zip(seqs, self.offsets)):
            self.alpha_rows[: seq.size, b] = seq + offset
            self.beta_rows[t_max - seq.size : -1, b] = seq[1:] + offset
        self.valid = np.arange(t_max)[:, None] < np.array(lengths)
        self.pi = np.empty((n, k))
        self.trans = np.empty((n, k, k))
        self.scale = np.empty((t_max, n))
        self.scale_right = np.ones((t_max, n))
        self.step = np.empty((n, 1, k))
        self.col = np.empty((n, k, 1))
        self.out = np.empty((n, k, 1))
        self.weighted = np.empty((t_max - 1, k))


def _expectations(params: Sequence[HmmParams], lay: _BatchLayout):
    """Scaled forward/backward pass (Rabiner 1989) of every sequence of a
    batch layout under its own parameters, run for the whole batch at once.

    Time-major (T_max, B, K) arrays carry every sequence, and each step is
    one batched vector-matrix product. One np.take per pass gathers every
    sequence's emission rows from the contiguous transposed tables straight
    into alpha and beta, and one more per sequence into the xi term. The
    per-step buffers belong to the layout, so the recursions allocate
    nothing.

    Yields (log_likelihood, gamma, xi_sum) per sequence, in order:
    gamma[t, i] is the posterior state occupancy, xi_sum[i, j] the
    posterior transition count summed over time. Each sequence's gamma and
    xi product come from contiguous arrays of its own, by the same
    expressions as a single-sequence pass, so they are bit-identical to it;
    the M-step in `baum_welch_cohort` counts emissions from gamma with one
    np.bincount per state.
    A sequence that loses all forward mass raises FloatingPointError at its
    first such position; the first such sequence in batch order raises.
    """
    matmul, multiply, add_reduce, divide = np.matmul, np.multiply, np.add.reduce, np.divide
    alpha, beta, scale, table, trans = lay.alpha, lay.beta, lay.scale, lay.table, lay.trans
    t_max = alpha.shape[0]
    np.concatenate([p.emit.T for p in params], out=table[1:])
    np.stack([p.pi for p in params], out=lay.pi)
    np.stack([p.trans for p in params], out=trans)

    np.take(table, lay.alpha_rows, 0, alpha, "clip")
    scale_col = scale[:, :, None]
    step = lay.step
    row = step[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        multiply(lay.pi, alpha[0], row)
        add_reduce(row, 1, None, scale[0])
        divide(row, scale_col[0], alpha[0])
        for prev, a, c, c_col in zip(alpha[:, :, None], alpha[1:], scale[1:], scale_col[1:]):
            matmul(prev, trans, step)
            multiply(row, a, row)
            add_reduce(row, 1, None, c)
            divide(row, c_col, a)
    bad = lay.valid & ~(scale > 0.0)
    if bad.any():
        first = bad[:, int(bad.any(axis=0).argmax())]
        raise FloatingPointError(f"zero forward mass at position {int(first.argmax())}")

    np.take(table, lay.beta_rows, 0, beta, "clip")
    scale_right = lay.scale_right
    for b, seq in enumerate(lay.seqs):
        scale_right[t_max - seq.size :, b] = scale[: seq.size, b]
    col, out = lay.col, lay.out
    col_row, out_row = col[:, :, 0], out[:, :, 0]
    nxt = beta[-1]
    for cur, c_col in zip(beta[-2::-1], scale_right[:0:-1, :, None]):
        multiply(cur, nxt, col_row)
        matmul(trans, col, out)
        divide(out_row, c_col, cur)
        nxt = cur

    # Few temporaries: freed ones stay resident in the malloc heap and add
    # to later peaks (eval-p5's peak RSS was 4 MB higher with a
    # per-iteration `work` and two more temporaries per sequence).
    for b, (p, seq, offset) in enumerate(zip(params, lay.seqs, lay.offsets)):
        t_len = seq.size
        al = np.ascontiguousarray(alpha[:t_len, b])
        be = beta[t_max - t_len :, b]
        weighted = lay.weighted[: t_len - 1]  # (T-1, K)
        np.take(table[offset:], seq[1:], 0, weighted, "clip")
        multiply(weighted, be[1:], weighted)
        divide(weighted, scale[1:t_len, b, None], weighted)
        xi_sum = p.trans * (al[:-1].T @ weighted)
        al *= be  # gamma
        yield float(np.log(scale[:t_len, b]).sum()), al, xi_sum


def _cohort_batches(lengths: Sequence[int], n_states: int):
    """Sequence indices sorted by length, cut into batches of at most
    COHORT_CELLS cells; a sequence over the budget is a batch of one."""
    batch: list[int] = []
    for u in sorted(range(len(lengths)), key=lengths.__getitem__):
        if batch and (len(batch) + 1) * lengths[u] * n_states > COHORT_CELLS:
            yield batch
            batch = []
        batch.append(u)
    if batch:
        yield batch


def baum_welch_cohort(
    sequences: Sequence,
    n_symbols: Sequence[int],
    n_states: int,
    max_iter: int,
    tol: float,
    seed: int,
) -> list[tuple[HmmParams, TrainingTrace]]:
    """Fit one HMM per training sequence by EM, all sequences in lock-step.

    Each sequence starts from its own seeded random-simplex draw over its
    own n_symbols and runs expectation/maximization rounds until max_iter,
    or earlier once its per-symbol log-likelihood gain drops below tol
    (tol = 0 disables early stopping); a sequence leaves the batch when it
    stops. Every result is bit-identical to fitting that sequence alone:
    only the forward and backward recursions are batched. The recorded
    log-likelihood sequence is non-decreasing up to floating-point slack —
    that is the EM guarantee and the tests hold it to 1e-8.
    """
    if len(sequences) != len(n_symbols):
        raise ValueError("one symbol count per training sequence is required")
    seqs = [as_index_array(s, size) for s, size in zip(sequences, n_symbols)]
    if any(seq.size < 2 for seq in seqs):
        raise ValueError("training sequence must have at least 2 symbols")
    params: list[HmmParams] = []
    for size in n_symbols:
        rng = np.random.default_rng(seed)
        params.append(
            HmmParams(
                pi=random_simplex(rng, (n_states,)),
                trans=random_simplex(rng, (n_states, n_states)),
                emit=random_simplex(rng, (n_states, size)),
            )
        )
    traces = [TrainingTrace(seed=seed) for _ in seqs]

    for active in _cohort_batches([seq.size for seq in seqs], n_states):
        work = np.empty(2 * len(active) * seqs[active[-1]].size * n_states)
        lay = None
        while active and max_iter > 0:
            if lay is None:
                lay = _BatchLayout(
                    [seqs[u] for u in active], [n_symbols[u] for u in active], n_states, work
                )
            stats = _expectations([params[u] for u in active], lay)
            still = []
            for u, (ll, gamma, xi_sum) in zip(active, stats):
                seq, trace = seqs[u], traces[u]
                lls = trace.log_likelihoods
                lls.append(ll)
                if len(lls) > 1 and tol > 0.0 and (ll - lls[-2]) / seq.size < tol:
                    continue
                # np.bincount adds each state's gamma in t order from 0.0,
                # like the reference's np.add.at, so the counts are
                # bit-identical. They fill the columns of an (S, K) array:
                # normalize_rows must sum the same transposed layout.
                emit_counts = np.empty((n_symbols[u], n_states))
                for i, weights in enumerate(gamma.T):
                    emit_counts[:, i] = np.bincount(seq, weights, n_symbols[u])
                params[u] = HmmParams(
                    pi=gamma[0] / gamma[0].sum(),
                    trans=normalize_rows(xi_sum),
                    emit=normalize_rows(emit_counts.T),
                )
                if trace.iterations < max_iter:
                    still.append(u)
            if len(still) < len(active):
                lay = None
            active = still
    return list(zip(params, traces))


def baum_welch(
    train_indices,
    n_symbols: int,
    n_states: int,
    max_iter: int,
    tol: float,
    seed: int,
) -> tuple[HmmParams, TrainingTrace]:
    """Fit HMM parameters by EM from a seeded random-simplex start: a
    cohort of one for `baum_welch_cohort`."""
    return baum_welch_cohort([train_indices], [n_symbols], n_states, max_iter, tol, seed)[0]


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

    def __init__(self, vocab: Vocabulary, params: HmmParams, delta: float, trace: TrainingTrace):
        if params.n_symbols != vocab.size:
            raise ValueError("emission width does not match vocabulary size")
        self.vocab = vocab
        self.params = params
        self.delta = check_floor(float(delta))
        self.trace = trace

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
