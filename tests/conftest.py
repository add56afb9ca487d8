"""Shared builders and brute-force oracles for the test suite."""

from __future__ import annotations

import itertools
import math
import multiprocessing
import random
from typing import Mapping, Sequence

import numpy as np
import pytest

from appauth.encode import (
    CONTEXTS_PER_APP,
    KIND_APP,
    N_DAY,
    Observation,
    Vocabulary,
    day_flag_of,
    timezone_of,
)
from appauth.evaluation import ScoreTable
from appauth.ingest import EVENT_LOG_HEADER, RawEvent
from appauth.models.edit_distance import INDEL_COST, MISMATCH_COST
from appauth.models.hmm import (
    BLOCK_STEPS,
    ZERO_BELOW,
    HmmParams,
    TrainingTrace,
    baum_welch,
    forward_log_likelihood,
)
from appauth.models.core import TrainConfig, check_indices, normalize_rows, random_simplex
from appauth.simulate import CohortSpec, inject_intrusion


@pytest.fixture(autouse=True)
def no_child_process_outlives_the_test():
    """`eval` forks a Baum-Welch child; whatever a test does, none may be
    left running after it."""
    yield
    assert multiprocessing.active_children() == []


def app(app_id: str, tz: int = 0, day: int = 0) -> Observation:
    return Observation("app", app_id=app_id, tz=tz, day=day)


# an app id that no test vocabulary holds
UNKNOWN_APP = "<unknown>"


def unk(tz: int = 0, day: int = 0) -> Observation:
    """An app that every test vocabulary projects to its unknown index of
    context (tz, day)."""
    return app(UNKNOWN_APP, tz, day)


PSI = Observation("psi")
DELTA = Observation("delta")


def score_table(rows) -> ScoreTable:
    """A score table (n = stride = 1) from (model owner, window owner,
    score) rows: one array per pair holding its scores in row order, with
    the pairs sorted as `generate_score_records` emits them."""
    scores: dict[tuple[str, str], list[float]] = {}
    for mo, wo, score in sorted(rows, key=lambda r: r[:2]):
        scores.setdefault((mo, wo), []).append(float(score))
    return ScoreTable(1, 1, {pair: np.array(s, dtype=np.float64) for pair, s in scores.items()})


def score_one(model, window) -> float:
    """Score a single window as a batch of one."""
    return float(model.score_windows(np.asarray(window, dtype=np.int64)[None, :])[0])


def random_hmm(rng: np.random.Generator, n_states: int, n_symbols: int) -> HmmParams:
    """A random fully-stochastic parameter set."""
    return HmmParams(
        pi=random_simplex(rng, (n_states,)),
        trans=random_simplex(rng, (n_states, n_states)),
        emit=random_simplex(rng, (n_states, n_symbols)),
    )


def hmm_base(train_indices, vocab: Vocabulary, config: TrainConfig):
    """The Baum-Welch fit of one training sequence that both HMM variants
    build on: the fit `train_cohort_models` gives each user."""
    return baum_welch(
        train_indices, vocab.size, config.n_states, config.max_iter, config.tol, config.seed
    )


def forward_one(params: HmmParams, window) -> float:
    """Forward log-likelihood of a single window under raw parameters."""
    return float(forward_log_likelihood(params.pi, params.trans, params.emit, [window])[0])


def reference_forward_log_likelihood(pi, trans, emit, windows) -> np.ndarray:
    """Scaled forward log-likelihoods of a (W, n) window batch with fresh
    arrays at every step and a running total of the logs: the recursion
    that `forward_log_likelihood` must equal bit for bit."""
    mat = np.asarray(windows, dtype=np.int64)
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


def per_step_forward_backward(params: HmmParams, seq: np.ndarray):
    """Scaled forward/backward pass of one sequence that normalizes at
    every step (Rabiner 1989), with one plain product for the xi term.

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
    weighted = emit_obs[1:] * beta[1:] / scale[1:, None]  # (T-1, K)
    xi_sum = params.trans * (alpha[:-1].T @ weighted)
    return float(np.log(scale).sum()), gamma, xi_sum


def reference_forward_backward(params: HmmParams, seq: np.ndarray):
    """Block-scaled forward/backward pass of one sequence, one step at a
    time: the oracle that the lock-step `_expectations` must equal bit for
    bit.

    alpha is normalized at positions 0, L, 2L, ... (L = BLOCK_STEPS). The
    backward pass carries u_s = e_s * beta_s, normalized at T-1, T-1-L, ...
    After the loops the rows of both are divided by their sums, beta_s =
    A @ u_(s+1) is rebuilt in blocks of L rows, the posteriors are
    normalized, and the xi product is summed over blocks of L rows in block
    order. Returns what `per_step_forward_backward` returns, which it equals
    up to rounding.
    """
    span, tiny = BLOCK_STEPS, np.finfo(np.float64).tiny
    t_len = seq.size
    k = params.n_states
    emit_obs = params.emit[:, seq].T  # (T, K)

    alpha = np.empty((t_len, k))
    log_terms = []
    lo = 0  # the first position of the current block
    for t in range(t_len):
        if t:
            a = (alpha[t - 1] @ params.trans) * emit_obs[t]
        else:
            a = params.pi * emit_obs[0]
        if (t - 1) % span == 0:
            lo = t
        c = a.sum()
        if not c >= tiny:
            prev = alpha[t - 1] / alpha[t - 1].sum() if t else None
            if c == 0.0 and not (t and ((prev @ params.trans) * emit_obs[t]).sum() > 0.0):
                raise FloatingPointError(f"zero forward mass at position {t}")
            hi = min(lo + span - 1, t_len - 1) if t else 0
            raise FloatingPointError(f"forward mass underflow in the block of positions {lo} to {hi}")
        if t % span == 0 or t == t_len - 1:
            log_terms.append(c)
        if t % span == 0:
            a = a / c
        alpha[t] = a

    trans_t = np.ascontiguousarray(params.trans.T)
    u = np.empty((t_len, k))  # u[s] = e_s * beta_s up to its block's scale
    hi = t_len - 1  # the last position of the current block
    for s in range(t_len - 1, -1, -1):
        if s < t_len - 1:
            v = (u[s + 1] @ trans_t) * emit_obs[s]
        else:
            v = emit_obs[s].copy()
        if (t_len - 2 - s) % span == 0:
            hi = s
        d = v.sum()
        if not d >= tiny:
            lo = max(hi - span + 1, 0) if s < t_len - 1 else s
            raise FloatingPointError(f"backward mass underflow in the block of positions {lo} to {hi}")
        if (t_len - 1 - s) % span == 0:
            v = v / d
        u[s] = v

    alpha = alpha / alpha.sum(axis=1)[:, None]
    u = u / u.sum(axis=1)[:, None]
    rows = (t_len - 1) // span * span
    beta = np.empty((t_len, k))
    beta[-1] = 1.0
    for s in range(0, rows, span):
        beta[s : s + span] = u[1 + s : 1 + s + span] @ params.trans.T
    beta[rows:-1] = u[1 + rows :] @ params.trans.T
    gamma = alpha * beta
    norm = gamma.sum(axis=1)  # G_t
    gamma = gamma / norm[:, None]
    weighted = u[1:] / norm[:-1, None]  # (T-1, K)
    blocks = [alpha[s : s + span].T @ weighted[s : s + span] for s in range(0, rows, span)]
    product = np.add.reduce(np.array(blocks).reshape(-1, k, k), 0)
    product = product + alpha[rows:-1].T @ weighted[rows:]
    return float(np.log(np.array(log_terms)).sum()), gamma, params.trans * product


def unfloored_m_step(seq, n_symbols, n_states, gamma, xi_sum) -> HmmParams:
    """The M-step before it set parameters below ZERO_BELOW to zero: the
    old rule, which a fit with this step reproduces bit for bit."""
    emit_counts = np.zeros((n_symbols, n_states))
    np.add.at(emit_counts, seq, gamma)
    return HmmParams(
        pi=gamma[0] / gamma[0].sum(),
        trans=normalize_rows(xi_sum),
        emit=normalize_rows(emit_counts.T),
    )


def reference_m_step(seq, n_symbols, n_states, gamma, xi_sum) -> HmmParams:
    """The M-step of `baum_welch_cohort`: the old rule, then every entry
    below ZERO_BELOW set to zero."""
    params = unfloored_m_step(seq, n_symbols, n_states, gamma, xi_sum)
    for table in (params.pi, params.trans, params.emit):
        table[table < ZERO_BELOW] = 0.0
    return params


def reference_baum_welch(
    seq,
    n_symbols,
    n_states,
    max_iter,
    tol,
    seed,
    forward_backward=reference_forward_backward,
    m_step=reference_m_step,
):
    """Baum-Welch on one sequence with the step-at-a-time recursion above:
    the oracle the lock-step cohort trainer must equal bit for bit. With
    `per_step_forward_backward` it is the fit that normalizes every step,
    and with `unfloored_m_step` the fit of the old rule."""
    seq = np.asarray(seq, dtype=np.int64)
    rng = np.random.default_rng(seed)
    params = HmmParams(
        pi=random_simplex(rng, (n_states,)),
        trans=random_simplex(rng, (n_states, n_states)),
        emit=random_simplex(rng, (n_states, n_symbols)),
    )
    trace = TrainingTrace(seed=seed)
    prev_ll = None
    for _ in range(max_iter):
        ll, gamma, xi_sum = forward_backward(params, seq)
        trace.log_likelihoods.append(ll)
        if prev_ll is not None and tol > 0.0 and (ll - prev_ll) / seq.size < tol:
            break
        prev_ll = ll
        params = m_step(seq, n_symbols, n_states, gamma, xi_sum)
    return params, trace


def enumerate_forward(params: HmmParams, window) -> float:
    """Log-likelihood by explicit summation over all K**n state paths."""
    window = list(window)
    states = range(params.n_states)
    total = 0.0
    for path in itertools.product(states, repeat=len(window)):
        p = params.pi[path[0]] * params.emit[path[0], window[0]]
        for t in range(1, len(window)):
            p *= params.trans[path[t - 1], path[t]]
            p *= params.emit[path[t], window[t]]
        total += p
    return math.log(total)


def med_distance(model, window) -> float:
    """Alignment distance of one window: the negated matcher score."""
    return -score_one(model, window)


# The oracles' own decode of the symbol layout, apart from the attribute
# tables of `Vocabulary` that `MedModel` and `mshmm` read.

# sentinel "app values" so that symbol families compare with plain ==
_APP_UNKNOWN = -2
_APP_SESSION_START = -3
_APP_DAY_CHANGE = -4


def substitution_cost(u: Observation, v: Observation) -> int:
    """Cost of substituting one observation for another, in {0, 1, 2, 3}.

    Zero for identical symbols. When both symbols refer to the same app,
    each mismatched context attribute — time-of-day block, weekday flag —
    adds one. Anything else, including marker-vs-other, is a full mismatch
    at 3. A vocabulary projects apps it does not hold alike, so the oracles
    agree with the models only on streams whose unknown apps share one id,
    as `unk` builds them.
    """
    if u == v:
        return 0
    if u.kind == v.kind == KIND_APP and u.app_id == v.app_id:
        return int(u.tz != v.tz) + int(u.day != v.day)
    return MISMATCH_COST


def symbol_attributes(indices: np.ndarray, vocab: Vocabulary) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-index (app value, tz, day) arrays for vectorized cost evaluation.

    App value is the app rank for app symbols and a distinct negative
    sentinel per non-app family; markers get tz = day = -1 so equal markers
    compare as full matches.
    """
    arr = np.asarray(indices, dtype=np.int64)
    check_indices(arr.ravel(), vocab.size)
    ub = vocab.unknown_base
    psi = vocab.session_start_index
    is_app = arr < ub
    is_unk = (arr >= ub) & (arr < psi)
    appv = np.where(
        is_app,
        arr // CONTEXTS_PER_APP,
        np.where(is_unk, _APP_UNKNOWN, np.where(arr == psi, _APP_SESSION_START, _APP_DAY_CHANGE)),
    )
    ctx = np.where(is_app, arr % CONTEXTS_PER_APP, np.where(is_unk, arr - ub, -1))
    tz = np.where(ctx >= 0, ctx // N_DAY, -1)
    day = np.where(ctx >= 0, ctx % N_DAY, -1)
    return appv, tz, day


def pairwise_distance(pattern: list[Observation], text: list[Observation]) -> int:
    """Classic global weighted edit distance between two short sequences."""
    rows = len(pattern) + 1
    cols = len(text) + 1
    dp = [[0] * cols for _ in range(rows)]
    for i in range(1, rows):
        dp[i][0] = i * INDEL_COST
    for j in range(1, cols):
        dp[0][j] = j * INDEL_COST
    for i in range(1, rows):
        for j in range(1, cols):
            dp[i][j] = min(
                dp[i - 1][j - 1] + substitution_cost(pattern[i - 1], text[j - 1]),
                dp[i - 1][j] + INDEL_COST,
                dp[i][j - 1] + INDEL_COST,
            )
    return dp[-1][-1]


def brute_med_distance(pattern: list[Observation], text: list[Observation]) -> int:
    """Exhaustive minimum of the global distance over all substrings of text."""
    best = len(pattern) * INDEL_COST  # align against the empty substring
    for i in range(len(text) + 1):
        for j in range(i + 1, len(text) + 1):
            best = min(best, pairwise_distance(pattern, text[i:j]))
    return best


def semi_global_distance(pattern: list[Observation], text: list[Observation]) -> int:
    """Semi-global weighted edit distance, one cell at a time in O(n * T):
    the pattern aligns against its best substring of text, so leading and
    trailing text are free."""
    prev = [0] * (len(text) + 1)
    for i, u in enumerate(pattern, 1):
        row = [i * INDEL_COST]
        for j, v in enumerate(text, 1):
            row.append(
                min(
                    prev[j - 1] + substitution_cost(u, v),
                    prev[j] + INDEL_COST,
                    row[j - 1] + INDEL_COST,
                )
            )
        prev = row
    return min(prev)


def reference_med_distances(model, windows) -> np.ndarray:
    """Distances of a (W, n) window batch to a `MedModel`'s text with a full
    running minimum along the text in every DP row: the kernel that
    `score_windows` must equal bit for bit, with no dedupe or chunking.

    The DP runs on E[i, j] = D[i, j] - INDEL_COST * (i + j), in which both
    gap moves cost 0 and a substitution costs cost - 2 * INDEL_COST."""
    mat = np.asarray(windows, dtype=np.int64)
    n = mat.shape[1]
    t_app, t_tz, t_day = symbol_attributes(model.train_indices, model.vocab)
    w_app, w_tz, w_day = (a[:, :, None] for a in symbol_attributes(mat, model.vocab))
    ramp = INDEL_COST * np.arange(model.train_indices.size + 1, dtype=np.int64)
    prev = np.tile(-ramp, (len(mat), 1))  # leading text is free
    cand = np.zeros_like(prev)
    for i in range(n):
        cost = (w_tz[:, i] != t_tz).astype(np.int64) + (w_day[:, i] != t_day)
        cost[w_app[:, i] != t_app] = MISMATCH_COST
        np.add(prev[:, :-1], cost - 2 * INDEL_COST, out=cand[:, 1:])
        np.minimum(cand[:, 1:], prev[:, 1:], out=cand[:, 1:])
        np.minimum.accumulate(cand, axis=1, out=cand)
        prev, cand = cand, prev
    return (prev + ramp).min(axis=1) + INDEL_COST * n  # trailing text is free


def random_observation(rng: np.random.Generator, apps: list[str]) -> Observation:
    """Any symbol the alphabet allows, markers included."""
    kind = rng.integers(0, 10)
    if kind == 0:
        return PSI
    if kind == 1:
        return DELTA
    if kind == 2:
        return unk(int(rng.integers(0, 3)), int(rng.integers(0, 2)))
    return app(
        apps[int(rng.integers(0, len(apps)))],
        int(rng.integers(0, 3)),
        int(rng.integers(0, 2)),
    )


def small_vocab() -> Vocabulary:
    return Vocabulary(["chat", "mail", "maps"])


def replay_reference(models, test_observations, n, thresholds, seed, segment):
    """The intrusion replay one pair at a time: (latency rows, mean curve).

    Each ordered (genuine, intruder) pair is spliced, projected and scored
    at every window end on its own; its latency is the first window ending
    at or after the splice whose score is below the owner's threshold, and
    the curve adds the pairs' scores in pair order."""
    users = sorted(u for u in models if u in test_observations)
    score_sum = np.zeros(2 * segment - n + 1)
    rows = []
    for g_pos, genuine_user in enumerate(users):
        if len(test_observations[genuine_user]) < segment:
            continue
        for i_pos, intruder in enumerate(users):
            if intruder == genuine_user or len(test_observations[intruder]) < segment:
                continue
            pair_seed = np.random.SeedSequence(entropy=(seed, g_pos, i_pos))
            spliced = inject_intrusion(
                test_observations[genuine_user], test_observations[intruder], pair_seed, segment
            )
            indices = models[genuine_user].vocab.project(spliced)
            windows = np.lib.stride_tricks.sliding_window_view(indices, n)
            scores = models[genuine_user].score_windows(windows)
            score_sum += scores
            latency = None
            for end, score in zip(range(n - 1, 2 * segment), scores):
                if end >= segment and score < thresholds[genuine_user]:
                    latency = end - segment + 1
                    break
            rows.append((genuine_user, intruder, n, latency))
    return rows, score_sum / len(rows)


def reference_synthetic_user(
    user_id: str, app_pool: Sequence[str], preference: np.ndarray, spec: CohortSpec, seed: int
) -> list[RawEvent]:
    """`generate_synthetic_user` with a `Generator.choice` call per app
    event: the draw it must equal event for event. `choice` checks only the
    probability vectors of the contexts the simulated days reach."""
    rng = np.random.default_rng(seed)
    horizon = spec.days * 86400.0
    mean_gap = 86400.0 / spec.session_rate
    pool_size = len(app_pool)

    events: list[RawEvent] = []
    t = rng.exponential(mean_gap)
    while t < horizon:
        start = int(round(t))
        duration = max(30.0, rng.exponential(spec.session_length))
        end = min(t + duration, horizon)
        events.append(RawEvent(user_id, start, "unlock"))
        app_t = float(start)
        last_ts = start
        while app_t < end:
            ts = int(round(app_t))
            ctx = preference[timezone_of(ts), day_flag_of(ts)]
            app = app_pool[int(rng.choice(pool_size, p=ctx))]
            events.append(RawEvent(user_id, ts, "app", app))
            last_ts = ts
            app_t += max(1.0, rng.exponential(spec.dwell))
        events.append(RawEvent(user_id, max(int(round(end)), last_ts), "lock"))
        t = max(end + 60.0, t + rng.exponential(mean_gap))
    return events


DAY = 86400

# rows that parse_event_log must drop, one error each
MALFORMED_ROWS = [
    ["u", "noon", "app", "mail"],  # timestamp not an integer
    ["u", "-5", "app", "mail"],  # negative timestamp
    ["u", "10", "swipe", ""],  # unknown kind
    ["u", "10", "app", ""],  # app event without an app
    ["u", "10", "lock", "mail"],  # lock carrying an app
    ["", "10", "unlock", ""],  # empty user id
    ["u", "10", "app"],  # missing field
]


def hostile_event_log(
    seed: int, cohort: Mapping[str, Sequence[RawEvent]]
) -> tuple[list[list], int]:
    """Event-log CSV rows, header first, built to trip a pipeline, and the
    number of malformed rows among them.

    `cohort`'s users keep their events under ids holding ',', '"', ':' or an
    inner space, and so do their apps. Each gets sessions straddling
    midnight with an app event on second 0. Added users have no session,
    one sample, or two sessions. Some rows are duplicated, stray locks and
    malformed rows are mixed in, and every row is shuffled.
    """
    rng = random.Random(seed)
    odd = [",", '"', ":", " "]
    apps = sorted({ev.app_id for events in cohort.values() for ev in events if ev.app_id})
    rename = {a: f"{a}{rng.choice(odd)}{k}" for k, a in enumerate(apps)}
    events: list[RawEvent] = []

    def straddle(user: str, day: int, app_ids: Sequence[str]) -> None:
        midnight = day * DAY
        events.append(RawEvent(user, midnight - 45, "unlock"))
        for ts in (midnight - 45, midnight, midnight + 40):
            events.append(RawEvent(user, ts, "app", rng.choice(app_ids)))
        events.append(RawEvent(user, midnight + 75, "lock"))

    for k, user in enumerate(sorted(cohort)):
        uid = f"{user}{odd[k % len(odd)]}{seed}"
        for ev in cohort[user]:
            events.append(RawEvent(uid, ev.local_timestamp, ev.kind, rename.get(ev.app_id, "")))
        for day in rng.sample(range(1, 6), 2):
            straddle(uid, day, [rename[a] for a in apps])
        # locks at random instants: most fall between sessions
        events += [RawEvent(uid, rng.randrange(6 * DAY), "lock") for _ in range(4)]
    events += [RawEvent("no session", 1000, "unlock"), RawEvent("no session", 1060, "lock")]
    for kind, app_id in [("unlock", ""), ("app", "x:y"), ("lock", "")]:
        events.append(RawEvent('one "sample"', 1000, kind, app_id))
    for day in (1, 2):
        straddle("two: sessions", day, ["a,b", "c d"])
    events += rng.sample(events, len(events) // 50)
    rows = [[ev.user_id, ev.local_timestamp, ev.kind, ev.app_id] for ev in events]
    malformed = rng.sample(MALFORMED_ROWS, 4)
    rows += malformed
    rng.shuffle(rows)
    return [EVENT_LOG_HEADER, *rows], len(malformed)
