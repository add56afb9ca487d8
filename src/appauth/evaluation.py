"""Verification protocol and reporting.

Every user's model scores every user's test windows into a `ScoreTable`
of per-pair score arrays (genuine pairs on the diagonal, impostor pairs off
it); the confusion metrics and ROC/EER estimation work on its two sides with
numpy reductions, and the reports derive each window's owners and end index
from its pair and (n, stride). The dataset-statistics reports live here too.
"""

from __future__ import annotations

import csv
import io
import logging
import multiprocessing
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, groupby
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .encode import Observation, Vocabulary, encode_sessions
from .ingest import (
    DEFAULT_IDLE_GAP,
    SplitDataset,
    resample_sessions,
    sessionize,
    split_sessions,
    write_csv,
)
from .models import HMM_METHODS, TrainConfig, UserModel, train_user_model
from .models.hmm import HmmParams, TrainingTrace, baum_welch_cohort

log = logging.getLogger(__name__)

DEFAULT_TRAIN_FRACTION = 0.7
DEFAULT_MIN_TRAIN = 500
DEFAULT_MIN_TEST = 200

# Rows of the top-apps report.
TOP_APPS = 20

# The one numeric CSV format: six significant digits, "-0" for -0.0.
NUMBER_FORMAT = "%.6g"

# Rows per block of the scores and ROC writers, which fill a block's row
# templates with one `%`: writing a 200 000-row ROC curve peaks at 0.65 MiB
# (tracemalloc), where one string per value took 79 MiB; 2**14 rows per
# block peaked at 2.6 MiB and was no faster.
WRITE_ROWS = 1 << 12


def format_number(x: float) -> str:
    """Numeric CSV formatting: `NUMBER_FORMAT`."""
    return NUMBER_FORMAT % float(x)


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


# Window symbols (windows x n) per `score_windows` call of the scoring loop.
# All six methods at both n on eval-p30 (seed 0, one BLAS thread, best of
# 3): 2**13 was no faster than 2**15, and 2**16 took the same time but held
# more transient memory: `med` at n = 60 held 3.1 MiB above its result,
# against 2.2 MiB.
BATCH_CELLS = 1 << 15


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
    in sorted order, so the table's pairs come out sorted, and each model
    owner's windows are scored in a few calls (see `_score_owner`).
    """
    if n < 1:
        raise ValueError("window length must be >= 1")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    scores: dict[tuple[str, str], np.ndarray] = {}
    for model_owner, pairs in groupby(sorted(projections), itemgetter(0)):
        eligible = {}
        for pair in pairs:
            indices = projections[pair]
            if indices.size < n:
                log.warning(
                    "skipping %s vs %s: %d test symbols < window length %d",
                    *pair,
                    indices.size,
                    n,
                )
                continue
            eligible[pair] = indices
        if eligible:
            owned = _score_owner(models[model_owner], list(eligible.values()), n, stride)
            scores.update(zip(eligible, owned))
    return ScoreTable(n, stride, scores)


def _score_owner(
    model: UserModel, sequences: Sequence[np.ndarray], n: int, stride: int
) -> list[np.ndarray]:
    """The window scores of each sequence, each in an array of its own.

    The windows of all sequences, in order, go to `score_windows` in
    near-equal consecutive calls of at most BATCH_CELLS // n windows, so a
    call may span sequences, and it holds a single window only when there
    is one in all. A stride past a sequence's end, one beyond int64 too,
    takes its first window alone.
    """
    firsts = [np.arange(0, seq.size - n + 1, min(stride, seq.size)) for seq in sequences]
    offsets = np.cumsum([0] + [seq.size for seq in sequences[:-1]])
    starts = np.concatenate([f + offset for f, offset in zip(firsts, offsets)])
    windows = np.lib.stride_tricks.sliding_window_view(np.concatenate(sequences), n)
    calls = -(-starts.size // max(1, BATCH_CELLS // n))
    scored = np.concatenate(
        [model.score_windows(windows[part]) for part in np.array_split(starts, calls)]
    )
    return [part.copy() for part in np.split(scored, np.cumsum([f.size for f in firsts[:-1]]))]


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


def top_apps_report(samples_by_user: Mapping[str, Sequence[str]]) -> list[TopAppRow]:
    """The cohort's TOP_APPS most-used apps.

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
    ranked = sorted(totals, key=lambda a: (-totals[a], a))[:TOP_APPS]
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
        split = split_sessions(resampled, train_fraction)
        n_train = sum(len(s.samples) for s in split.train)
        n_test = sum(len(s.samples) for s in split.test)
        if n_train < max(1, min_train) or n_test < max(1, min_test):
            log.warning("user %s ineligible: %d train / %d test samples", user, n_train, n_test)
            continue
        prepared[user] = prepare_user(split)
    return prepared


def train_cohort_models(
    methods: Sequence[str],
    prepared: Mapping[str, PreparedUser],
    config: TrainConfig = TrainConfig(),
) -> dict[str, dict[str, UserModel]]:
    """One model per (method, user); the two HMM variants share one
    Baum-Welch fit per user, run for the whole cohort in lock-step."""
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
            raise ChildProcessError(
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
    are computed once. A forked child trains the two HMM variants, which
    share one Baum-Welch fit per user, while this process trains and scores
    the other methods; every table is scored here. The other methods'
    models are released once scored, before the child's arrive.
    """
    hmm = [m for m in methods if m in HMM_METHODS]
    others = [m for m in methods if m not in HMM_METHODS]
    with _forked(train_cohort_models, hmm, prepared, config) as hmm_models:
        users = sorted(prepared)
        projections = {
            (mo, wo): prepared[mo].vocab.project(prepared[wo].test_observations)
            for mo in users
            for wo in users
        }
        models = train_cohort_models(others, prepared, config)
        tables = _score_methods(models, projections, n_values, stride)
        del models
        models = hmm_models()
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


def write_scores_csv(table: ScoreTable, path: str | Path) -> None:
    """One row per scored window: pairs in the table's order, ends ascending."""

    def text():
        for pair, scores in table.scores.items():
            template = _row_start(pair).replace("%", "%%") + "%d," + NUMBER_FORMAT + "\n"
            ends = range(table.n - 1, table.n - 1 + table.stride * scores.size, table.stride)
            for lo in range(0, scores.size, WRITE_ROWS):
                hi = lo + WRITE_ROWS
                yield _filled(template, ends[lo:hi], scores[lo:hi].tolist())

    _write_rows(path, ["model_owner", "window_owner", "end_index", "score"], text())


def write_eer_grid_csv(
    n_values: Sequence[int], periods: Sequence[int], grid: np.ndarray, path: str | Path
) -> None:
    """EER (percent) per (window length, sampling period) cell; grid has
    shape (len(n_values), len(periods)) and a NaN cell is left empty."""
    header = ["n"] + [f"period_{p}" for p in periods]
    body = (
        [n] + ["" if np.isnan(v) else format_number(v) for v in grid[i]]
        for i, n in enumerate(n_values)
    )
    write_csv(path, chain([header], body))


def write_roc_csv(curve: np.ndarray, path: str | Path) -> None:
    """A `roc_curve` sweep with its rates in percent."""
    template = ",".join([NUMBER_FORMAT] * 3) + "\n"
    text = (
        _filled(template, *(curve[lo : lo + WRITE_ROWS] * (1.0, 100.0, 100.0)).T.tolist())
        for lo in range(0, len(curve), WRITE_ROWS)
    )
    _write_rows(path, ["threshold", "far", "frr"], text)


def _filled(template: str, *columns: Sequence) -> str:
    """`template` once per row of the equal-length columns, filled by one
    `%` with each row's values in column order."""
    return template * len(columns[0]) % tuple(chain.from_iterable(zip(*columns)))


def _row_start(fields: Sequence[str]) -> str:
    """The start of a CSV row, up to and including the comma after
    `fields`, quoted as `write_csv` quotes them."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow([*fields, ""])
    return buffer.getvalue()[:-1]


def _write_rows(path: str | Path, header: Sequence[str], rows: Iterable[str]) -> None:
    """A CSV file as `write_csv` writes it, from a header of plain names and
    blocks of rows already joined, each row ending in "\\n"."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(rows)


def write_similarity_csv(users: Sequence[str], matrix: np.ndarray, path: str | Path) -> None:
    body = ([user] + [format_number(x) for x in matrix[i]] for i, user in enumerate(users))
    write_csv(path, chain([["user"] + list(users)], body))


def write_unknown_stats_csv(stats: UnknownAppStats, path: str | Path) -> None:
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
    write_csv(path, chain([header], pairs, [[], summary_header], summary))


def write_top_apps_csv(rows: Sequence[TopAppRow], path: str | Path) -> None:
    header = ["rank", "app_id", "user_count", "per_user_usage", "overall_usage"]
    body = (
        [r.rank, r.app_id, r.user_count]
        + [format_number(r.per_user_usage), format_number(r.overall_usage)]
        for r in rows
    )
    write_csv(path, chain([header], body))
