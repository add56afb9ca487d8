"""Verification protocol and reporting.

Every user's model scores every user's test windows (genuine pairs on the
diagonal, impostor pairs off it) into one columnar `ScoreTable`; the
confusion metrics, ROC/EER estimation and the intrusion thresholds work on
its columns with masks and numpy reductions. The dataset-statistics reports
live here too.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable, Mapping, Sequence, TextIO

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

DEFAULT_MIN_TRAIN = 500
DEFAULT_MIN_TEST = 200


def format_number(x: float) -> str:
    """Numeric CSV formatting: six significant digits."""
    return format(float(x), ".6g")


@dataclass(frozen=True, slots=True, eq=False)
class ScoreTable:
    """Scored windows as parallel columns, one row per window.

    `model_owner` and `window_owner` are codes into the sorted `users`
    tuple; a row is genuine when the two match. `generate_score_records`
    emits rows in (model owner, window owner, end index) order.
    """

    users: tuple[str, ...]
    model_owner: np.ndarray  # int64 codes into users
    window_owner: np.ndarray  # int64 codes into users
    end_index: np.ndarray  # int64 index of each window's last symbol
    score: np.ndarray  # float64

    def __len__(self) -> int:
        return self.score.size

    @property
    def genuine(self) -> np.ndarray:
        return self.model_owner == self.window_owner


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
class RocCurve:
    """Threshold sweep: (threshold, false-accept %, false-reject %) rows,
    sorted by threshold ascending."""

    points: tuple[tuple[float, float, float], ...]


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


@dataclass(frozen=True, slots=True)
class EerGrid:
    """EER (percent) per (window length, sampling period) cell."""

    n_values: tuple[int, ...]
    periods: tuple[int, ...]
    values: np.ndarray  # shape (len(n_values), len(periods))


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
    in sorted order, so the table's rows come out sorted.
    """
    if n < 1:
        raise ValueError("window length must be >= 1")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    users = tuple(sorted({u for pair in projections for u in pair}))
    code = {u: i for i, u in enumerate(users)}
    empty = np.empty(0, dtype=np.int64)
    columns = [(empty, empty, empty, np.empty(0, dtype=np.float64))]
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
        scores = models[model_owner].score_windows(sliding_windows(indices, n)[::stride])
        ends = np.arange(n - 1, indices.size, stride, dtype=np.int64)
        columns.append(
            (
                np.full(ends.size, code[model_owner], dtype=np.int64),
                np.full(ends.size, code[window_owner], dtype=np.int64),
                ends,
                np.asarray(scores, dtype=np.float64),
            )
        )
    return ScoreTable(users, *(np.concatenate(col) for col in zip(*columns)))


def confusion_counts(table: ScoreTable, threshold: float) -> ConfusionCounts:
    """Accept iff score >= threshold; genuine iff owner matches."""
    accept = table.score >= threshold
    genuine = table.genuine
    tp = int(np.count_nonzero(accept & genuine))
    fn = int(np.count_nonzero(genuine)) - tp
    fp = int(np.count_nonzero(accept)) - tp
    return ConfusionCounts(tp, fp, len(table) - tp - fn - fp, fn)


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


def _split_scores(table: ScoreTable) -> tuple[np.ndarray, np.ndarray]:
    """Sorted genuine and impostor scores; masks keep the row order."""
    genuine = table.genuine
    if genuine.all() or not genuine.any():
        raise ValueError("need at least one genuine and one impostor row")
    return np.sort(table.score[genuine]), np.sort(table.score[~genuine])


def _sweep(genuine: np.ndarray, impostor: np.ndarray):
    """FAR/FRR (fractions) at every distinct score plus a top sentinel."""
    if not (np.isfinite(genuine).all() and np.isfinite(impostor).all()):
        raise FloatingPointError("non-finite scores cannot be ranked")
    thresholds = np.unique(np.concatenate([genuine, impostor]))
    thresholds = np.append(thresholds, thresholds[-1] + 1.0)
    far = (impostor.size - np.searchsorted(impostor, thresholds, side="left")) / impostor.size
    frr = np.searchsorted(genuine, thresholds, side="left") / genuine.size
    return thresholds, far, frr


def roc_curve(table: ScoreTable) -> RocCurve:
    thresholds, far, frr = _sweep(*_split_scores(table))
    points = zip(thresholds.tolist(), (100.0 * far).tolist(), (100.0 * frr).tolist())
    return RocCurve(tuple(points))


def _crossing(genuine: np.ndarray, impostor: np.ndarray) -> tuple[float, float]:
    """(EER %, threshold) from sorted scores.

    The EER is FAR at the FAR/FRR crossing, linearly interpolated between
    adjacent thresholds when they cross between grid points; the threshold
    is the swept one nearest the crossing.
    """
    thresholds, far, frr = _sweep(genuine, impostor)
    diff = frr - far
    above = int(np.argmax(diff > 0.0))  # first strictly positive; exists via sentinel
    k = above - 1
    lam = -diff[k] / (diff[above] - diff[k]) if diff[above] != diff[k] else 0.0
    pick = k if abs(diff[k]) <= abs(diff[above]) else above
    return float(100.0 * (far[k] + lam * (far[above] - far[k]))), float(thresholds[pick])


def equal_error_rate(table: ScoreTable) -> float:
    return _crossing(*_split_scores(table))[0]


def eer_threshold(table: ScoreTable) -> tuple[float, float]:
    """(EER %, operating threshold): the swept threshold nearest the
    FAR/FRR crossing."""
    return _crossing(*_split_scores(table))


# ---------------------------------------------------------------------------
# dataset statistics


def _as_app_set(value) -> set[str]:
    if isinstance(value, Vocabulary):
        return set(value.apps)
    return set(value)


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


def app_similarity_matrix(vocabs: Mapping[str, "Vocabulary | Iterable[str]"]):
    """Pairwise app-set overlap between users' training vocabularies."""
    return overlap_matrix({u: _as_app_set(v) for u, v in vocabs.items()})


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
    vocabs: Mapping[str, "Vocabulary | Iterable[str]"],
    test_apps: Mapping[str, Sequence[str]],
) -> UnknownAppStats:
    """Percentage of each user's test app samples outside each model owner's
    app set, summarized separately for genuine and impostor pairs."""
    app_sets = {u: _as_app_set(v) for u, v in vocabs.items()}
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
    if n_users == 0:
        return []
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

    user_id: str
    vocab: Vocabulary
    train_indices: np.ndarray
    train_observations: list[Observation]
    test_observations: list[Observation]
    train_timestamps: np.ndarray
    test_timestamps: np.ndarray


def prepare_user(user_id: str, split: SplitDataset) -> PreparedUser:
    """Encode a chronological split and build the vocabulary from its
    training half."""
    train = encode_sessions(split.train)
    test = encode_sessions(split.test)
    train_obs = [obs for _, obs in train]
    test_obs = [obs for _, obs in test]
    vocab = Vocabulary.from_observations(train_obs)
    return PreparedUser(
        user_id,
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
    train_fraction: float = 0.7,
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
        prepared[user] = prepare_user(user, split)
    return prepared


def train_cohort_models(
    method: str,
    prepared: Mapping[str, PreparedUser],
    config: TrainConfig = TrainConfig(),
    bases: Mapping[str, tuple[HmmParams, TrainingTrace]] | None = None,
) -> dict[str, UserModel]:
    """One model per user; an HMM method first trains the users missing
    from `bases` in one lock-step Baum-Welch cohort."""
    bases = dict(bases or {})
    missing = {user: p for user, p in prepared.items() if user not in bases}
    if missing:
        bases.update(train_hmm_bases([method], missing, config) or {})
    return {
        user: train_user_model(method, p.train_indices, p.vocab, config, base=bases.get(user))
        for user, p in prepared.items()
    }


def train_hmm_bases(
    methods: Sequence[str], prepared: Mapping[str, PreparedUser], config: TrainConfig
) -> dict[str, tuple[HmmParams, TrainingTrace]] | None:
    """One Baum-Welch fit per user, shared by both HMM variants and run for
    all users in lock-step; None when no method in `methods` is one of them."""
    if not any(m in HMM_METHODS for m in methods):
        return None
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


def evaluate_methods(
    methods: Sequence[str],
    prepared: Mapping[str, PreparedUser],
    n_values: Sequence[int],
    config: TrainConfig = TrainConfig(),
    stride: int = 1,
) -> dict[tuple[str, int], ScoreTable]:
    """A score table for every (method, window length) combination.

    Projections of each test sequence into each model owner's vocabulary
    are computed once, and the two HMM variants share one Baum-Welch run
    per user.
    """
    users = sorted(prepared)
    projections = {
        (mo, wo): prepared[mo].vocab.project(prepared[wo].test_observations)
        for mo in users
        for wo in users
    }
    bases = train_hmm_bases(methods, prepared, config)
    out: dict[tuple[str, int], ScoreTable] = {}
    for method in methods:
        models = train_cohort_models(method, prepared, config, bases)
        for n in n_values:
            out[(method, n)] = generate_score_records(models, projections, n, stride)
    return out


# ---------------------------------------------------------------------------
# report files


def write_scores_csv(table: ScoreTable, dest: str | Path | TextIO) -> None:
    """One row per scored window, in the table's (sorted) row order."""
    users = np.asarray(table.users, dtype=object)
    body = zip(
        users[table.model_owner].tolist(),
        users[table.window_owner].tolist(),
        table.end_index.tolist(),
        map(format_number, table.score.tolist()),
    )
    write_csv(dest, chain([["model_owner", "window_owner", "end_index", "score"]], body))


def write_eer_grid_csv(grid: EerGrid, dest: str | Path | TextIO) -> None:
    header = ["n"] + [f"period_{p}" for p in grid.periods]
    body = (
        [n] + ["" if np.isnan(v) else format_number(v) for v in grid.values[i]]
        for i, n in enumerate(grid.n_values)
    )
    write_csv(dest, chain([header], body))


def write_roc_csv(curve: RocCurve, dest: str | Path | TextIO) -> None:
    body = ([format_number(x) for x in point] for point in curve.points)
    write_csv(dest, chain([["threshold", "far", "frr"]], body))


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
