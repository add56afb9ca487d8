"""Discrete hidden Markov model: scaled forward/backward, Baum-Welch
training (every user of a cohort in lock-step), and Laplace emission
smoothing.

All likelihood work is done in the scaled domain, where normalization
constants whose logs accumulate into the log-likelihood keep it exact for
windows far longer than raw products would allow. Scoring
(`forward_log_likelihood`) normalizes every step. Training normalizes once
per block of BLOCK_STEPS steps, which gives the same posteriors in real
arithmetic with fewer numpy calls per step; it agrees with per-step
scaling to about 1e-12 and refuses input whose mass within one block
falls below the smallest normal float. The M-step sets every parameter
below ZERO_BELOW = 1e-100 to zero, so that neither training nor scoring
multiplies subnormal numbers.
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
        if self.pi.ndim != 1 or self.emit.ndim != 2:
            raise ValueError("pi must be 1-D and emit 2-D")
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


# Rows per block of the scoring forward recursion. A row's bits from its
# (W, K) @ (K, K) products depend on the row only while W stays in one BLAS
# kernel path. On this OpenBLAS 0.3.31 build (Haswell kernels, one or two
# threads), bisected with random rows at the default K = 20: every W from 2
# to 2 500 gives each row the same bits, and from W = 2 501, where
# W * K * K first exceeds 10**6, another path gives other bits; at K = 28
# the switch comes at W = 1 285. So a block also holds at most
# 10**6 // K**2 rows, rounded down to a multiple of 4 (and at least 4),
# which is ROW_BLOCK up to K = 22. At some state counts (17-19, 25-27,
# 33-35, ... 57-59) a row's bits differ between blocks of 2 and of 4 rows,
# and a single row is a gemv with bits of its own, so each block, a lone
# window's included, is padded to a multiple of 4 rows; then no K from 1 to
# 64 gave a row bits that depend on its batch.
ROW_BLOCK = 2048


def forward_log_likelihood(
    pi: np.ndarray, trans: np.ndarray, emit: np.ndarray, windows
) -> np.ndarray:
    """log P(window) of each row of a (W, n) window batch by the scaled
    forward recursion; a single window is a (1, n) batch.

    emit need not be stochastic: the marginally-smoothed variant scores
    through a patched emission table.

    The rows run in near-equal blocks of at most ROW_BLOCK rows, and of at
    most 10**6 // K**2 rows at larger K, each padded to a multiple of 4 rows
    with copies of its first rows, whose scores are dropped. So a window's
    score does not depend on the batch it is scored in, a batch of one
    included.
    """
    mat = as_window_matrix(windows, emit.shape[1])
    table = np.ascontiguousarray(emit.T)  # a symbol's K probabilities in one row
    rows = max(4, min(ROW_BLOCK, 10**6 // table.shape[1] ** 2) // 4 * 4)
    blocks = np.array_split(mat, max(1, -(-mat.shape[0] // rows)))
    return np.concatenate([_forward_block(pi, trans, table, block) for block in blocks])


def _forward_block(pi: np.ndarray, trans: np.ndarray, table: np.ndarray, mat: np.ndarray):
    """`forward_log_likelihood` of one block, with emissions as an (S, K)
    table.

    Each step writes into buffers allocated once per call: a matmul, one
    take of the step's emission rows from the table, a multiply, the row
    sums into row t of the (n, W) scale array, and a divide back into
    alpha. A window that loses all mass is NaN for the rest of the loop;
    the one zero-mass check after it raises FloatingPointError, and only
    then are the logs taken. The padded block has at least 4 columns, and
    there np.add.reduce along axis 0 adds each window's logs in step
    order, as a running total does.
    """
    matmul, multiply, add_reduce, divide = np.matmul, np.multiply, np.add.reduce, np.divide
    take = table.take  # the method skips np.take's Python-level dispatch
    w = mat.shape[0]
    rows = np.arange(-(-w // 4) * 4) % w  # the block's rows, then copies of its first rows
    steps = mat.take(rows, 0).T  # step t's symbols in one row
    alpha = np.empty((steps.shape[1], table.shape[1]))
    unscaled, obs = np.empty_like(alpha), np.empty_like(alpha)
    scale = np.empty(steps.shape)
    scale_col = scale[:, :, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        take(steps[0], 0, obs, "clip")
        multiply(pi, obs, unscaled)
        add_reduce(unscaled, 1, None, scale[0])
        divide(unscaled, scale_col[0], alpha)
        for sym, c, c_col in zip(steps[1:], scale[1:], scale_col[1:]):
            matmul(alpha, trans, unscaled)
            take(sym, 0, obs, "clip")
            multiply(unscaled, obs, unscaled)
            add_reduce(unscaled, 1, None, c)
            divide(unscaled, c_col, alpha)
    if not (scale > 0.0).all():
        raise FloatingPointError("forward pass lost all probability mass")
    return add_reduce(np.log(scale), 0)[:w]


# Cells (users x longest sequence x states) of one lock-step Baum-Welch
# batch. The forward and backward recursions share one float64 array of
# twice this many cells (8 MiB), which bounds training memory like
# CHUNK_CELLS bounds `med`.
COHORT_CELLS = 1 << 19

# Steps between two normalizations of the Baum-Welch recursions, and rows
# per block of its products over time. On the eval-p5 seed-0 fit (2 vCPUs,
# one BLAS thread, 10 interleaved runs) 8 took about 5% longer than 16 and
# 32 about 7% less, but 16 keeps the smallest block mass there at 1e-41
# where 32's was 1e-76; the smallest normal float is 2.2e-308.
BLOCK_STEPS = 16

# The M-step sets every new parameter below this to 0.0. As EM converges,
# thousands of parameters fall to values such as 1e-250 that are still
# normal floats, but whose products in the recursions are subnormal, and
# the CPU takes a slow path for each subnormal operand. On the eval-p30
# seed-0 fit (one BLAS thread) the converged E-step held 2 000 subnormal
# cells and took 1.8x as long as the E-step after 5 iterations; flushing
# only subnormal parameters left 1 788 such cells, this floor 13, and the
# two E-steps then take the same time. An entry this small moves a sum of
# order one by far less than one ulp: no log-likelihood, other parameter
# or score of that fit changed.
ZERO_BELOW = 1e-100

_TINY = np.finfo(np.float64).tiny


class _BatchLayout:
    """Buffers of one lock-step layout: the sequences still training, in
    batch order. The caller builds one when that set changes and reuses it
    every EM iteration until then.

    `steps` is a time-major (T_max, 2B, K) view of `work`, a float64 scratch
    array of at least 2 x T_max x B x K cells that the caller allocates once
    per batch: column b < B carries sequence b's forward recursion from its
    first symbol, and column B + b its backward recursion from its last
    symbol, so one batched product advances both. Every iteration copies
    each sequence's emission table, transposed so that a symbol's K
    probabilities are one contiguous row, into `table` below a row of 1.0,
    and `rows` names the table row that one np.take gathers into each slot
    of `steps`: row t holds symbol t of each sequence in its forward column
    and symbol T-1-t in its backward column, and 1.0 past its end.

    Everything else an EM iteration reuses is built here once, so that no
    iteration slices a step or allocates a buffer that the next one needs
    again: the row views of each block of BLOCK_STEPS steps, paired as the
    loop reads them; one (2, T_max, K) buffer that takes one sequence's
    alpha and u rows at a time, and one for its xi products per block; and
    each sequence's np.bincount cells. Like `steps`, all of it grows with
    T_max, so COHORT_CELLS bounds it too. The views and pairs are about 215
    bytes of Python objects per step, two thirds of the 320 bytes `steps`
    holds per step at B = 1 and K = 20.
    """

    def __init__(
        self, seqs: Sequence[np.ndarray], n_symbols: Sequence[int], n_states: int, work: np.ndarray
    ):
        self.seqs = seqs
        lengths = [seq.size for seq in seqs]
        t_max, n, k = max(lengths), len(seqs), n_states
        self.steps = work[: 2 * t_max * n * k].reshape(t_max, 2 * n, k)
        self.offsets = np.cumsum([1, *n_symbols[:-1]])
        self.table = np.empty((1 + sum(n_symbols), k))
        self.table[0] = 1.0
        self.rows = np.zeros((t_max, 2 * n), dtype=np.intp)
        for b, (seq, offset) in enumerate(zip(seqs, self.offsets)):
            self.rows[: seq.size, b] = seq + offset
            self.rows[: seq.size, n + b] = seq[::-1] + offset
        self.valid = np.tile(np.arange(t_max)[:, None] < np.array(lengths), 2)
        self.pi = np.empty((n, k))
        self.trans = np.empty((2 * n, k, k))  # each transition matrix, then each transposed
        # The two sums of every L-th row of `steps` before its normalization,
        # and the sums of all rows, for the checks.
        self.scale = np.empty(((t_max - 1) // BLOCK_STEPS + 1, 2 * n))
        self.mass = np.empty((t_max, 2 * n))
        self.step = np.empty((2 * n, k))
        # Each block of the loop: its first row, that row's sum as a row and
        # as a column, and the (previous row, current row) pairs of its steps.
        views, span = list(self.steps), BLOCK_STEPS
        self.blocks = [
            (views[t], c, c[:, None], list(zip(views[t : t + span], views[t + 1 : t + 1 + span])))
            for t, c in zip(range(0, t_max, span), self.scale)
        ]
        # One sequence's alpha and u rows at a time, copied out of `steps`,
        # and its xi product of each full block of steps.
        self.copies = np.empty((2, t_max, k))
        self.products = np.empty(((t_max - 1) // span, k, k))
        # Each sequence's flat (symbol, state) cell of every gamma entry.
        self.cells = [((seq * k)[:, None] + np.arange(k)).ravel() for seq in seqs]


def _time_blocks(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of x as (n, L, K) blocks of BLOCK_STEPS rows, and the rest."""
    rows = x.shape[0] - x.shape[0] % BLOCK_STEPS
    return x[:rows].reshape(-1, BLOCK_STEPS, x.shape[1]), x[rows:]


def _expectations(params: Sequence[HmmParams], lay: _BatchLayout):
    """Block-scaled forward/backward pass of every sequence of a batch
    layout under its own parameters, run for the whole batch at once.

    One loop over the (T_max, 2B, K) `steps` array runs both recursions:
    step t is one np.vecmat of row t-1 with each sequence's transition
    matrix (forward column) and its transpose (backward column), and one
    multiply by the emissions one np.take gathered into row t. The forward
    column holds alpha_t, the backward column u_s = e_s * beta_s at
    position s = T-1-t (beta_s = A @ u_(s+1)). The row views and the
    per-step buffer belong to the layout, so the loop allocates nothing.
    np.vecmat runs each column's product as one BLAS gemv, as the
    reference's (K,) @ (K, K) does, with less dispatch per call than a
    batched (2B, 1, K) @ (2B, K, K) matmul.

    Any scale constants give the same posteriors in real arithmetic
    (Rabiner 1989), so rows are divided by their sums only at t = 0, L, 2L,
    ... (L = BLOCK_STEPS), every L steps from each sequence's own first
    symbol forward and its own last symbol backward: no block edge depends
    on T_max. After the loop one call divides every row of `steps`, and so
    each sequence's alpha and u rows, by its sum; then beta_t = A @ u_(t+1),
    G_t = sum(alpha_t * beta_t), gamma_t = alpha_t * beta_t / G_t, and the
    xi term is the sum over t of alpha_t^T (u_(t+1) / G_t). Both products
    over time are summed over fixed blocks of L steps in block order, so
    they are the same at any BLAS thread count. The log-likelihood adds the
    logs of the forward block sums before T-1 and of the forward mass at
    T-1.

    Yields (log_likelihood, gamma, xi_sum) per sequence, in order:
    gamma[t, i] is the posterior state occupancy, xi_sum[i, j] the
    posterior transition count summed over time. Each sequence's gamma and
    xi product come from contiguous rows of the layout's copy buffer, by the
    same expressions as a single-sequence pass, so they are bit-identical to
    it; each gamma is a new array that its consumer owns. The M-step in
    `baum_welch_cohort` counts emissions from gamma with one np.bincount
    over the layout's cells.

    The checks raise FloatingPointError for the first sequence in batch
    order that fails them, forward before backward. A position whose
    forward mass is zero one step after a normalized predecessor, as
    per-step scaling would find it, is named. Any other forward or backward
    mass below the smallest normal float names its block: per-step scaling
    would survive such input, while block scaling would lose precision in
    silence.
    """
    matmul, vecmat, multiply = np.matmul, np.vecmat, np.multiply
    add_reduce, divide, copyto = np.add.reduce, np.divide, np.copyto
    steps, table, trans, mass, n = lay.steps, lay.table, lay.trans, lay.mass, len(params)
    span, step = BLOCK_STEPS, lay.step
    np.concatenate([p.emit.T for p in params], out=table[1:])
    np.stack([p.pi for p in params], out=lay.pi)
    np.stack([p.trans for p in params] + [p.trans.T for p in params], out=trans)

    np.take(table, lay.rows, 0, steps, "clip")
    with np.errstate(divide="ignore", invalid="ignore"):
        multiply(lay.pi, steps[0, :n], steps[0, :n])
        for first, c, c_col, pairs in lay.blocks:
            add_reduce(first, 1, None, c)
            divide(first, c_col, first)
            for prev, cur in pairs:
                vecmat(prev, trans, step)
                multiply(step, cur, cur)
        add_reduce(steps, 2, None, mass)
        divide(steps, mass[:, :, None], steps)
    mass[::span] = lay.scale
    bad = lay.valid & ~(mass >= _TINY)
    if bad.any():
        b = int(bad.any(axis=0).argmax())
        t, t_len = int(bad[:, b].argmax()), lay.seqs[b % n].size
        lo = t and t - (t - 1) % span  # the block of steps that holds t
        hi = min(lo + span - 1, t_len - 1) if lo else 0
        if b >= n:
            where = f"{t_len - 1 - hi} to {t_len - 1 - lo}"
            raise FloatingPointError(f"backward mass underflow in the block of positions {where}")
        prev = steps[t - 1, b]  # divided only when t > 0
        per_step = t and (prev / prev.sum()) @ trans[b] @ table[lay.rows[t, b]]
        if mass[t, b] == 0.0 and not per_step > 0.0:
            raise FloatingPointError(f"zero forward mass at position {t}")
        raise FloatingPointError(f"forward mass underflow in the block of positions {lo} to {hi}")

    for b, (p, seq) in enumerate(zip(params, lay.seqs)):
        t_len = seq.size
        ll = float(np.log(np.append(mass[: t_len - 1 : span, b], mass[t_len - 1, b])).sum())
        al, u = lay.copies[:, :t_len]
        copyto(al, steps[:t_len, b])
        copyto(u, steps[t_len - 1 :: -1, n + b])  # in position order
        gamma = np.empty_like(al)  # beta, then gamma
        gamma[-1] = 1.0
        (u_blocks, u_rest), (b_blocks, b_rest) = _time_blocks(u[1:]), _time_blocks(gamma[:-1])
        matmul(u_blocks, p.trans.T, b_blocks)
        matmul(u_rest, p.trans.T, b_rest)
        multiply(al, gamma, gamma)
        norm = add_reduce(gamma, 1)  # G_t
        divide(gamma, norm[:, None], gamma)
        divide(u[1:], norm[:-1, None], u[1:])  # the weights, in place of u
        a_blocks, a_rest = _time_blocks(al[:-1])
        products = matmul(a_blocks.transpose(0, 2, 1), u_blocks, lay.products[: len(a_blocks)])
        xi = add_reduce(products, 0) + a_rest.T @ u_rest
        yield ll, gamma, p.trans * xi
        del gamma, b_blocks, b_rest  # before the next sequence's gamma is allocated


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
            for u, cells in zip(active, lay.cells):
                ll, gamma, xi_sum = next(stats)  # a zip over `stats` would hold on to gamma
                seq, trace = seqs[u], traces[u]
                lls = trace.log_likelihoods
                lls.append(ll)
                if not (len(lls) > 1 and tol > 0.0 and (ll - lls[-2]) / seq.size < tol):
                    # np.bincount adds each (symbol, state) cell's gamma in t
                    # order from 0.0, like the reference's np.add.at, so the
                    # counts are bit-identical. They fill an (S, K) array:
                    # normalize_rows must sum the same transposed layout.
                    emit_counts = np.bincount(
                        cells, gamma.ravel(), n_symbols[u] * n_states
                    ).reshape(n_symbols[u], n_states)
                    new = (
                        gamma[0] / gamma[0].sum(),
                        normalize_rows(xi_sum),
                        normalize_rows(emit_counts.T),
                    )
                    for table in new:
                        table[table < ZERO_BELOW] = 0.0
                    params[u] = HmmParams(*new)
                    if trace.iterations < max_iter:
                        still.append(u)
                del gamma  # before the generator allocates the next sequence's
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
        config: TrainConfig,
        base: tuple[HmmParams, TrainingTrace],
    ) -> "LaplaceHmmModel":
        """Smooth the emissions of `base`, the Baum-Welch fit of
        `train_indices`."""
        params, trace = base
        return cls(vocab, laplace_smooth_emissions(params, config.delta), config.delta, trace)

    def to_arrays(self) -> tuple[dict, dict[str, np.ndarray]]:
        return hmm_meta(self.params, self.delta, self.trace), self.params.to_arrays()

    @classmethod
    def from_arrays(cls, vocab: Vocabulary, meta: dict, arrays) -> "LaplaceHmmModel":
        params = HmmParams.from_arrays(arrays)
        return cls(vocab, params, meta["delta"], TrainingTrace.from_json(meta["training"]))

    def score_windows(self, windows) -> np.ndarray:
        return forward_log_likelihood(self.params.pi, self.params.trans, self.params.emit, windows)
