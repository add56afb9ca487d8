"""Verification protocol and reporting.

Every user's model scores every user's test windows into a `ScoreTable`
of per-pair score arrays (genuine pairs on the diagonal, impostor pairs off
it); the confusion metrics and ROC/EER estimation work on its two sides with
numpy reductions, and the reports derive each window's owners and end index
from its pair and (n, stride). The dataset-statistics reports live here too.
"""

from __future__ import annotations

import logging
import multiprocessing
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from itertools import chain, count
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TextIO

import numpy as np

from .encode import KIND_APP, Observation, Vocabulary, encode_sessions, sliding_windows
from .ingest import (
    DEFAULT_IDLE_GAP,
    SplitDataset,
    resample_sessions,
    sessionize,
    split_sessions,
    write_csv,
)
from .models import TrainConfig, UserModel, train_user_model
from .models.hmm import HmmParams, TrainingTrace, baum_welch_cohort

log = logging.getLogger(__name__)

HMM_METHODS = ("hmm-lap", "mshmm")

DEFAULT_TRAIN_FRACTION = 0.7
DEFAULT_MIN_TRAIN = 500
DEFAULT_MIN_TEST = 200


def format_number(x: float) -> str:
    """Numeric CSV formatting: six significant digits."""
    return format(float(x), ".6g")


@dataclass(frozen=True, slots=True, eq=False)
class ScoreTable:
    """Scored windows, one float64 score array per (model owner, window
    owner) pair, with the pairs in sorted order.

    Window k of a pair ends at test index `n - 1 + k * stride`; a pair is
    genuine when its two owners match.
    """

    n: int
    stride: int
    scores: dict[tuple[str, str], np.ndarray]

    def __len__(self) -> int:
        return sum(s.size for s in self.scores.values())

    def sides(self) -> tuple[np.ndarray, np.ndarray]:
        """(genuine, impostor) scores: the diagonal pairs' arrays and the
        off-diagonal pairs' arrays, each concatenated in pair order."""
        genuine = [np.empty(0)] + [s for (mo, wo), s in self.scores.items() if mo == wo]
        impostor = [np.empty(0)] + [s for (mo, wo), s in self.scores.items() if mo != wo]
        return np.concatenate(genuine), np.concatenate(impostor)


@dataclass(frozen=True, slots=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self) -> None:
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise ValueError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True, slots=True)
class BoxplotSummary:
    mean: float
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float

    @classmethod
    def of(cls, values: Sequence[float]) -> "BoxplotSummary":
        arr = np.asarray(values, dtype=np.float64)
        if arr.size == 0:
            raise ValueError("cannot summarize an empty sample")
        q1, med, q3 = np.percentile(arr, [25.0, 50.0, 75.0])
        return cls(float(arr.mean()), float(arr.min()), float(q1), float(med), float(q3), float(arr.max()))


@dataclass(frozen=True, slots=True)
class UnknownAppStats:
    """Per-pair unknown-app percentages plus genuine/impostor summaries."""

    pairs: tuple[tuple[str, str, float], ...]  # (model_owner, test_user, pct)
    genuine: BoxplotSummary
    impostor: BoxplotSummary


@dataclass(frozen=True, slots=True)
class TopAppRow:
    rank: int
    app_id: str
    user_count: int
    per_user_usage: float
    overall_usage: float


# ---------------------------------------------------------------------------
# scoring protocol


def generate_score_records(
    models: Mapping[str, UserModel],
    projections: Mapping[tuple[str, str], np.ndarray],
    n: int,
    stride: int = 1,
) -> ScoreTable:
    """Score test windows against models, one (model owner, window owner)
    pair per key of `projections`.

    Each projection is the window owner's test sequence already projected
    into the model owner's vocabulary, so unknown-ness is always relative to
    the verifier. Windows end at indices n-1, n-1+stride, ...; pairs with
    fewer than n test symbols are skipped with a warning. Pairs are walked
    in sorted order, so the table's pairs come out sorted.
    """
    if n < 1:
        raise ValueError("window length must be >= 1")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    scores: dict[tuple[str, str], np.ndarray] = {}
    for model_owner, window_owner in sorted(projections):
        indices = projections[(model_owner, window_owner)]
        if indices.size < n:
            log.warning(
                "skipping %s vs %s: %d test symbols < window length %d",
                model_owner,
                window_owner,
                indices.size,
                n,
            )
            continue
        windows = sliding_windows(indices, n)[::stride]
        scores[(model_owner, window_owner)] = models[model_owner].score_windows(windows)
    return ScoreTable(n, stride, scores)


def confusion_counts(table: ScoreTable, threshold: float) -> ConfusionCounts:
    """Accept iff score >= threshold; genuine iff owner matches."""
    genuine, impostor = table.sides()
    tp = int(np.count_nonzero(genuine >= threshold))
    fp = int(np.count_nonzero(impostor >= threshold))
    return ConfusionCounts(tp, fp, impostor.size - fp, genuine.size - tp)


def _ratio(name: str, num: float, den: float) -> float:
    if den == 0:
        raise ValueError(f"{name} undefined: zero denominator")
    return 100.0 * num / den


def sensitivity(cc: ConfusionCounts) -> float:
    """True-positive rate as a percentage."""
    return _ratio("sensitivity", cc.tp, cc.tp + cc.fn)


def specificity(cc: ConfusionCounts) -> float:
    """True-negative rate as a percentage."""
    return _ratio("specificity", cc.tn, cc.tn + cc.fp)


def accuracy(cc: ConfusionCounts) -> float:
    return _ratio("accuracy", cc.tp + cc.tn, cc.total)


def f1(cc: ConfusionCounts) -> float:
    return _ratio("f1", 2 * cc.tp, 2 * cc.tp + cc.fp + cc.fn)


# ---------------------------------------------------------------------------
# ROC / EER


def roc_curve(table: ScoreTable) -> np.ndarray:
    """Threshold sweep as (N, 3) rows of (threshold, false-accept rate,
    false-reject rate), the rates as fractions, sorted by threshold
    ascending: one row per distinct score plus a top sentinel."""
    genuine, impostor = table.sides()
    if not genuine.size or not impostor.size:
        raise ValueError("need at least one genuine and one impostor row")
    if not (np.isfinite(genuine).all() and np.isfinite(impostor).all()):
        raise FloatingPointError("non-finite scores cannot be ranked")
    # sides() concatenates into fresh arrays, so sorting them leaves the table as it is
    genuine.sort()
    impostor.sort()
    thresholds = np.unique(np.concatenate([genuine, impostor]))
    thresholds = np.append(thresholds, thresholds[-1] + 1.0)
    far = (impostor.size - np.searchsorted(impostor, thresholds, side="left")) / impostor.size
    frr = np.searchsorted(genuine, thresholds, side="left") / genuine.size
    return np.column_stack([thresholds, far, frr])


def eer_threshold(curve: np.ndarray) -> tuple[float, float]:
    """(EER %, operating threshold) from a `roc_curve` sweep.

    The EER is FAR at the FAR/FRR crossing, linearly interpolated between
    adjacent thresholds when they cross between grid points; the threshold
    is the swept one nearest the crossing.
    """
    thresholds, far, frr = curve.T
    diff = frr - far
    above = int(np.argmax(diff > 0.0))  # first strictly positive; exists via sentinel
    k = above - 1
    lam = -diff[k] / (diff[above] - diff[k]) if diff[above] != diff[k] else 0.0
    pick = k if abs(diff[k]) <= abs(diff[above]) else above
    return float(100.0 * (far[k] + lam * (far[above] - far[k]))), float(thresholds[pick])


def equal_error_rate(table: ScoreTable) -> float:
    return eer_threshold(roc_curve(table))[0]


# ---------------------------------------------------------------------------
# dataset statistics


def overlap_matrix(sets: Mapping[str, Iterable]) -> tuple[list[str], np.ndarray]:
    """Row-normalized percentage overlap: entry (i, j) = 100 |Si ∩ Sj| / |Si|.

    Asymmetric by construction; diagonal is 100.
    """
    users = sorted(sets)
    if len(users) < 2:
        raise ValueError("need at least 2 users")
    materialized = {u: set(sets[u]) for u in users}
    for u, s in materialized.items():
        if not s:
            raise ValueError(f"user {u} has an empty set")
    matrix = np.empty((len(users), len(users)))
    for i, ui in enumerate(users):
        si = materialized[ui]
        for j, uj in enumerate(users):
            matrix[i, j] = 100.0 * len(si & materialized[uj]) / len(si)
    return users, matrix


def app_similarity_matrix(vocabs: Mapping[str, Vocabulary]):
    """Pairwise app-set overlap between users' training vocabularies."""
    return overlap_matrix({u: v.apps for u, v in vocabs.items()})


def observation_similarity_matrix(symbol_sets: Mapping[str, Iterable[Observation]]):
    """Pairwise overlap of contextualized training observations (markers
    excluded — they are shared structure, not behavior)."""
    return overlap_matrix(
        {
            u: {o.to_text() for o in obs_set if o.kind == KIND_APP}
            for u, obs_set in symbol_sets.items()
        }
    )


def unknown_app_stats(
    vocabs: Mapping[str, Vocabulary],
    test_apps: Mapping[str, Sequence[str]],
) -> UnknownAppStats:
    """Percentage of each user's test app samples outside each model owner's
    app set, summarized separately for genuine and impostor pairs."""
    app_sets = {u: set(v.apps) for u, v in vocabs.items()}
    pairs: list[tuple[str, str, float]] = []
    genuine: list[float] = []
    impostor: list[float] = []
    for model_owner in sorted(app_sets):
        known = app_sets[model_owner]
        for test_user in sorted(test_apps):
            apps = test_apps[test_user]
            if len(apps) == 0:
                continue
            unknown = sum(1 for a in apps if a not in known)
            pct = 100.0 * unknown / len(apps)
            pairs.append((model_owner, test_user, pct))
            (genuine if model_owner == test_user else impostor).append(pct)
    return UnknownAppStats(
        tuple(pairs), BoxplotSummary.of(genuine), BoxplotSummary.of(impostor)
    )


def top_apps_report(samples_by_user: Mapping[str, Sequence[str]], k: int = 20) -> list[TopAppRow]:
    """Most-used apps across the cohort.

    per_user_usage divides an app's total sample count by the number of
    users who used it; overall_usage divides by the cohort size, so
    overall = per_user * user_count / total_users.
    """
    n_users = len(samples_by_user)
    totals: dict[str, int] = {}
    user_counts: dict[str, int] = {}
    for user in samples_by_user:
        seen_here: set[str] = set()
        for app in samples_by_user[user]:
            totals[app] = totals.get(app, 0) + 1
            seen_here.add(app)
        for app in seen_here:
            user_counts[app] = user_counts.get(app, 0) + 1
    ranked = sorted(totals, key=lambda a: (-totals[a], a))[:k]
    return [
        TopAppRow(
            rank=i + 1,
            app_id=app,
            user_count=user_counts[app],
            per_user_usage=totals[app] / user_counts[app],
            overall_usage=totals[app] / n_users,
        )
        for i, app in enumerate(ranked)
    ]


# ---------------------------------------------------------------------------
# cohort preparation and grid evaluation


@dataclass(slots=True)
class PreparedUser:
    """One user's data after resampling, splitting and encoding; each
    observation keeps the resampled timestamp it was encoded from."""

    vocab: Vocabulary
    train_indices: np.ndarray
    train_observations: list[Observation]
    test_observations: list[Observation]
    train_timestamps: np.ndarray
    test_timestamps: np.ndarray


def prepare_user(split: SplitDataset) -> PreparedUser:
    """Encode a chronological split and build the vocabulary from its
    training half."""
    train = encode_sessions(split.train)
    test = encode_sessions(split.test)
    train_obs = [obs for _, obs in train]
    test_obs = [obs for _, obs in test]
    vocab = Vocabulary.from_observations(train_obs)
    return PreparedUser(
        vocab,
        vocab.project(train_obs),
        train_obs,
        test_obs,
        np.array([ts for ts, _ in train], dtype=np.int64),
        np.array([ts for ts, _ in test], dtype=np.int64),
    )


def prepare_cohort(
    events_by_user: Mapping[str, Sequence],
    period: int,
    train_fraction: float = DEFAULT_TRAIN_FRACTION,
    idle_gap: float = DEFAULT_IDLE_GAP,
    min_train: int = DEFAULT_MIN_TRAIN,
    min_test: int = DEFAULT_MIN_TEST,
) -> dict[str, PreparedUser]:
    """Full per-user pipeline from raw events; drops ineligible users.

    The one eligibility rule: a user is kept iff the chronological split of
    its resampled samples leaves at least max(1, min_train) of them in
    training and max(1, min_test) in test. Each sample encodes to one app
    observation, so markers never count. A dropped user is logged with both
    counts and never encoded.
    """
    prepared: dict[str, PreparedUser] = {}
    for user in sorted(events_by_user):
        resampled = resample_sessions(sessionize(events_by_user[user], idle_gap=idle_gap), period)
        total = sum(len(s.samples) for s in resampled)
        # a single sample cannot be split; it counts as a test sample
        split = SplitDataset([], resampled)
        if total > 1:
            split = split_sessions(resampled, train_fraction)
        n_train = sum(len(s.samples) for s in split.train)
        n_test = total - n_train
        if n_train < max(1, min_train) or n_test < max(1, min_test):
            log.warning("user %s ineligible: %d train / %d test samples", user, n_train, n_test)
            continue
        prepared[user] = prepare_user(split)
    return prepared


def train_cohort_models(
    methods: Sequence[str],
    prepared: Mapping[str, PreparedUser],
    config: TrainConfig = TrainConfig(),
    bases: Mapping[str, tuple[HmmParams, TrainingTrace]] | None = None,
) -> dict[str, dict[str, UserModel]]:
    """One model per (method, user); the two HMM variants share one
    Baum-Welch fit per user, run for the whole cohort in lock-step, or
    taken from `bases` (a `train_hmm_bases` result) when it is given."""
    if bases is None:
        bases = train_hmm_bases(methods, prepared, config)
    return {
        method: {
            user: train_user_model(method, p.train_indices, p.vocab, config, base=bases.get(user))
            for user, p in prepared.items()
        }
        for method in methods
    }


def train_hmm_bases(
    methods: Sequence[str], prepared: Mapping[str, PreparedUser], config: TrainConfig
) -> dict[str, tuple[HmmParams, TrainingTrace]]:
    """One Baum-Welch fit per user, shared by both HMM variants and run for
    all users in lock-step; empty when no method in `methods` is one of them."""
    if not any(m in HMM_METHODS for m in methods):
        return {}
    users = list(prepared)
    fits = baum_welch_cohort(
        [prepared[u].train_indices for u in users],
        [prepared[u].vocab.size for u in users],
        config.n_states,
        config.max_iter,
        config.tol,
        config.seed,
    )
    return dict(zip(users, fits))


def _send_result(conn, fn: Callable, args: tuple) -> None:
    """The child's side of `_forked`: send (True, result) or (False, exception)."""
    try:
        result = (True, fn(*args))
    except Exception as exc:
        result = (False, exc)
    conn.send(result)


@contextmanager
def _forked(fn: Callable, *args) -> Iterator[Callable[[], object]]:
    """Run `fn(*args)` in a forked child while the with-block runs.

    The child inherits the arguments through fork, so nothing is pickled on
    the way in; only the result comes back, through a pipe. The block gets
    a function that waits for that result and re-raises an exception of the
    child with its own type. The child is always reaped, and terminated
    first when the block raises.
    """
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_send_result, args=(send, fn, args))
    child.start()
    send.close()

    def result():
        try:
            ok, value = receive.recv()
        except EOFError:
            child.join()
            raise RuntimeError(
                f"{fn.__name__} child exited with code {child.exitcode} without a result"
            ) from None
        if not ok:
            raise value
        return value

    try:
        yield result
    except BaseException:
        child.terminate()
        raise
    finally:
        receive.close()
        child.join()


def evaluate_methods(
    methods: Sequence[str],
    prepared: Mapping[str, PreparedUser],
    n_values: Sequence[int],
    config: TrainConfig = TrainConfig(),
    stride: int = 1,
) -> dict[tuple[str, int], ScoreTable]:
    """A score table for every (method, window length) combination.

    Projections of each test sequence into each model owner's vocabulary
    are computed once. The two HMM variants share one Baum-Welch fit per
    user, run in a forked child while this process trains and scores the
    other methods; every table is scored here.
    """
    hmm = [m for m in methods if m in HMM_METHODS]
    others = [m for m in methods if m not in HMM_METHODS]
    # with no HMM method there is nothing to fit, and `fits()` returns {}
    fitting = _forked(train_hmm_bases, hmm, prepared, config) if hmm else nullcontext(dict)
    with fitting as fits:
        users = sorted(prepared)
        projections = {
            (mo, wo): prepared[mo].vocab.project(prepared[wo].test_observations)
            for mo in users
            for wo in users
        }
        models = train_cohort_models(others, prepared, config)
        tables = _score_methods(models, projections, n_values, stride)
        bases = fits()
    models = train_cohort_models(hmm, prepared, config, bases)
    tables |= _score_methods(models, projections, n_values, stride)
    return {(method, n): tables[(method, n)] for method in methods for n in n_values}


def _score_methods(
    models: Mapping[str, Mapping[str, UserModel]],
    projections: Mapping[tuple[str, str], np.ndarray],
    n_values: Sequence[int],
    stride: int,
) -> dict[tuple[str, int], ScoreTable]:
    return {
        (method, n): generate_score_records(by_user, projections, n, stride)
        for method, by_user in models.items()
        for n in n_values
    }


# ---------------------------------------------------------------------------
# report files


def write_scores_csv(table: ScoreTable, dest: str | Path | TextIO) -> None:
    """One row per scored window: pairs in the table's order, ends ascending."""
    body = (
        (mo, wo, end, format_number(score))
        for (mo, wo), scores in table.scores.items()
        for end, score in zip(count(table.n - 1, table.stride), scores.tolist())
    )
    write_csv(dest, chain([["model_owner", "window_owner", "end_index", "score"]], body))


def write_eer_grid_csv(
    n_values: Sequence[int], periods: Sequence[int], grid: np.ndarray, dest: str | Path | TextIO
) -> None:
    """EER (percent) per (window length, sampling period) cell; grid has
    shape (len(n_values), len(periods)) and a NaN cell is left empty."""
    header = ["n"] + [f"period_{p}" for p in periods]
    body = (
        [n] + ["" if np.isnan(v) else format_number(v) for v in grid[i]]
        for i, n in enumerate(n_values)
    )
    write_csv(dest, chain([header], body))


def write_roc_csv(curve: np.ndarray, dest: str | Path | TextIO) -> None:
    """A `roc_curve` sweep with its rates in percent."""
    columns = (map(format_number, col) for col in (curve * (1.0, 100.0, 100.0)).T.tolist())
    write_csv(dest, chain([["threshold", "far", "frr"]], zip(*columns)))


def write_similarity_csv(
    users: Sequence[str], matrix: np.ndarray, dest: str | Path | TextIO
) -> None:
    body = ([user] + [format_number(x) for x in matrix[i]] for i, user in enumerate(users))
    write_csv(dest, chain([["user"] + list(users)], body))


def write_unknown_stats_csv(stats: UnknownAppStats, dest: str | Path | TextIO) -> None:
    pairs = (
        [mo, tu, "genuine" if mo == tu else "impostor", format_number(pct)]
        for mo, tu, pct in stats.pairs
    )
    summary = (
        [name] + [format_number(x) for x in (s.mean, s.minimum, s.q1, s.median, s.q3, s.maximum)]
        for name, s in (("genuine", stats.genuine), ("impostor", stats.impostor))
    )
    header = ["model_owner", "test_user", "kind", "unknown_pct"]
    summary_header = ["summary", "mean", "min", "q1", "median", "q3", "max"]
    write_csv(dest, chain([header], pairs, [[], summary_header], summary))


def write_top_apps_csv(rows: Sequence[TopAppRow], dest: str | Path | TextIO) -> None:
    header = ["rank", "app_id", "user_count", "per_user_usage", "overall_usage"]
    body = (
        [r.rank, r.app_id, r.user_count]
        + [format_number(r.per_user_usage), format_number(r.overall_usage)]
        for r in rows
    )
    write_csv(dest, chain([header], body))
