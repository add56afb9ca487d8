"""Synthetic cohorts with controllable separability, and intrusion replay.

No real usage data ships with this package, so experiments run on generated
cohorts: each user gets an app pool (partially shared across the cohort,
per the overlap knob) and context-conditioned app preferences, then a
Poisson session process writes an ordinary event log. The intrusion
experiment splices an impostor's observations onto a genuine stream and
measures how quickly windowed scores fall below threshold.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .encode import N_DAY, N_TZ, Observation, day_flag_of, timezone_of
from .evaluation import ScoreTable, format_number, generate_score_records
from .ingest import RawEvent, write_csv
from .models import UserModel

log = logging.getLogger(__name__)

DEFAULT_SEGMENT = 200
DEFAULT_THRESHOLD_PERCENTILE = 5.0


@dataclass(frozen=True, slots=True)
class CohortSpec:
    """Reproducible recipe for a whole synthetic cohort."""

    n_users: int = 10
    days: int = 30
    overlap: float = 0.5
    apps_per_user: int = 30
    session_rate: float = 8.0  # mean sessions per day
    session_length: float = 420.0  # mean seconds per session
    dwell: float = 75.0  # mean seconds on an app before switching
    concentration: float = 0.3  # Dirichlet concentration of the base preference
    context_spread: float = 1.0  # lognormal sigma of per-context preference tilts
    seed: int = 0

    def __post_init__(self) -> None:
        for name, low in (("n_users", 1), ("days", 0), ("apps_per_user", 1), ("seed", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}")
        # the comparisons fail on NaN, so NaN is rejected too
        if not 0.0 <= self.overlap <= 1.0:
            raise ValueError("overlap must be in [0, 1]")
        for name in ("session_rate", "session_length", "dwell", "concentration"):
            if not 0.0 < getattr(self, name) < float("inf"):
                raise ValueError(f"{name} must be positive and finite")
        if not 0.0 <= self.context_spread < float("inf"):
            raise ValueError("context_spread must be non-negative and finite")


def generate_synthetic_user(
    user_id: str, app_pool: Sequence[str], preference: np.ndarray, spec: CohortSpec, seed: int
) -> list[RawEvent]:
    """Event log for one user over `spec.days` days.

    Sessions arrive as a Poisson process at the spec's daily rate, last
    an exponential time, and contain unlock / app-switch / lock events; the
    app at each switch is drawn from `preference[time block, day flag]`, a
    probability vector over `app_pool` for the current context, the way
    `Generator.choice(len(app_pool), p=...)` draws it. Deterministic given
    the seed. Raises ValueError on a preference `choice` would refuse, in
    any context, whether or not the simulated days reach it.
    """
    tables = _cumulative_tables(preference, len(app_pool))
    rng = np.random.default_rng(seed)
    horizon = spec.days * 86400.0
    mean_gap = 86400.0 / spec.session_rate

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
            cdf = tables[timezone_of(ts)][day_flag_of(ts)]
            app = app_pool[bisect_right(cdf, rng.random())]
            events.append(RawEvent(user_id, ts, "app", app))
            last_ts = ts
            app_t += max(1.0, rng.exponential(spec.dwell))
        events.append(RawEvent(user_id, max(int(round(end)), last_ts), "lock"))
        t = max(end + 60.0, t + rng.exponential(mean_gap))
    return events


def _cumulative_tables(preference: np.ndarray, pool_size: int) -> list[list[list[float]]]:
    """Per (time block, day flag), the table `Generator.choice` draws from
    with that context's probability vector: its cumulative sum divided by
    the last entry. One uniform u then picks the first app whose entry
    exceeds u, so an app of probability 0 is never drawn. Refuses every
    vector `choice` refuses, with its tolerance on the sum: sqrt(eps) of
    float64, or of a coarser float type the preference comes in."""
    dtype = np.asarray(preference).dtype
    eps = max(np.finfo(np.float64).eps, np.finfo(dtype).eps if dtype.kind == "f" else 0.0)
    preference = np.asarray(preference, dtype=np.float64)
    if preference.shape != (N_TZ, N_DAY, pool_size):
        raise ValueError(f"preference has shape {preference.shape}, not {(N_TZ, N_DAY, pool_size)}")
    if np.isnan(preference).any():
        raise ValueError("preference contains NaN")
    if (preference < 0).any():
        raise ValueError("preference has a negative entry")
    if (np.abs(preference.sum(axis=-1) - 1.0) > np.sqrt(eps)).any():
        raise ValueError("a preference row does not sum to 1")
    cdf = preference.cumsum(axis=-1)
    cdf /= cdf[..., -1:]
    return cdf.tolist()


def make_cohort(spec: CohortSpec) -> dict[str, list[RawEvent]]:
    """Event logs for a whole cohort, keyed by user id.

    A fraction `overlap` of each user's app pool comes from a cohort-wide
    shared list; the rest is private, so overlap 0 gives disjoint
    vocabularies and overlap 1 identical ones. Each user draws one base
    preference over their pool, then tilts it per (time block, day flag)
    context — contexts favor different apps, but an app's reachability is
    shared across contexts the way real usage is.
    """
    n_shared = int(round(spec.overlap * spec.apps_per_user))
    shared = [f"app.shared.{i:03d}" for i in range(n_shared)]
    seeds = np.random.SeedSequence(spec.seed).spawn(spec.n_users)

    cohort: dict[str, list[RawEvent]] = {}
    for u in range(spec.n_users):
        user_id = f"user{u:02d}"
        private = [
            f"app.{user_id}.{i:03d}" for i in range(spec.apps_per_user - n_shared)
        ]
        pool = sorted(shared + private)
        rng = np.random.default_rng(seeds[u])
        base = rng.dirichlet(np.full(len(pool), spec.concentration))
        tilts = rng.lognormal(0.0, spec.context_spread, size=(N_TZ, N_DAY, len(pool)))
        # a large spread overflows a tilt, or a context's sum, to inf, or
        # underflows every tilt of a context to 0
        with np.errstate(over="ignore", invalid="ignore"):
            preference = base[None, None, :] * tilts
            total = preference.sum(axis=-1, keepdims=True)
        bad = total[~(np.isfinite(total) & (total > 0))]
        if bad.size:
            raise ValueError(
                f"context_spread={spec.context_spread} is too large: "
                f"a context preference of {user_id} sums to {bad[0]}"
            )
        preference /= total
        seed = int(rng.integers(2**63))
        cohort[user_id] = generate_synthetic_user(user_id, pool, preference, spec, seed)
    return cohort


# ---------------------------------------------------------------------------
# intrusion experiment


def inject_intrusion(
    genuine_test: Sequence[Observation],
    intruder_test: Sequence[Observation],
    seed,
    segment: int = DEFAULT_SEGMENT,
) -> list[Observation]:
    """Concatenate a random genuine slice with a random intruder slice.

    Both slices are `segment` consecutive observations starting at a seeded
    random index; genuine material comes first.
    """
    if len(genuine_test) < segment or len(intruder_test) < segment:
        raise ValueError(
            f"both sequences need >= {segment} observations "
            f"(got {len(genuine_test)} and {len(intruder_test)})"
        )
    rng = np.random.default_rng(seed)
    gi = int(rng.integers(0, len(genuine_test) - segment + 1))
    ii = int(rng.integers(0, len(intruder_test) - segment + 1))
    return list(genuine_test[gi : gi + segment]) + list(intruder_test[ii : ii + segment])


def detection_latency(
    scores: np.ndarray, end_index: np.ndarray, splice: int, thresholds: np.ndarray
) -> list[int | None]:
    """Per row of a (pairs, windows) score block, the number of windows
    from the first one ending at `splice` up to the first score below that
    row's threshold; None when no window ending at or after the splice
    drops below it."""
    hit = (end_index >= splice) & (scores < thresholds[:, None])
    first = hit.argmax(axis=1)
    return [
        int(end_index[k]) - splice + 1 if found else None
        for k, found in zip(first.tolist(), hit.any(axis=1).tolist())
    ]


def genuine_score_thresholds(
    table: ScoreTable, percentile: float = DEFAULT_THRESHOLD_PERCENTILE
) -> dict[str, float]:
    """Per-user decision threshold: a low percentile of the user's own
    genuine window scores."""
    return {
        mo: float(np.percentile(scores, percentile))
        for (mo, wo), scores in table.scores.items()
        if mo == wo
    }


@dataclass(slots=True)
class LatencyRow:
    model_owner: str
    intruder: str
    latency: int | None

    @property
    def detected(self) -> bool:
        return self.latency is not None


@dataclass(slots=True)
class IntrusionStudy:
    """All (genuine, intruder) pairings at one window length."""

    n: int
    mean_scores: np.ndarray  # mean score per window end index
    rows: list[LatencyRow]

    def detection_rate(self, within: int) -> float:
        if not self.rows:
            raise ValueError("no intrusion pairs were run")
        hits = sum(1 for r in self.rows if r.latency is not None and r.latency <= within)
        return hits / len(self.rows)


def intrusion_study(
    models: Mapping[str, UserModel],
    test_observations: Mapping[str, Sequence[Observation]],
    n: int,
    thresholds: Mapping[str, float],
    seed: int = 0,
    segment: int = DEFAULT_SEGMENT,
) -> IntrusionStudy:
    """Run the splice experiment for every ordered (genuine, intruder) pair.

    Each pair's 2 * segment spliced stream, projected into the genuine
    user's vocabulary, is scored at stride 1 by `generate_score_records`.
    Users whose test sequences are shorter than the segment are skipped, as
    are genuine users without a threshold, with a warning. A pair's slice
    positions are drawn from `SeedSequence((seed, g, i))`, where g and i
    are the lengths of the genuine user's and the intruder's test
    sequences, and the mean curve is each window's correctly rounded sum
    over the pairs divided by their number: a pair's splice and latency
    depend on that pair alone.
    """
    if n > 2 * segment:
        raise ValueError(
            f"window length n={n} exceeds the 2 x segment={segment} symbols of a spliced stream"
        )
    users = sorted(u for u in models if u in test_observations)
    projections: dict[tuple[str, str], np.ndarray] = {}
    for genuine_user in users:
        genuine_test = test_observations[genuine_user]
        if len(genuine_test) < segment:
            log.warning("skipping %s as genuine: test sequence too short", genuine_user)
            continue
        if genuine_user not in thresholds:
            log.warning("skipping %s as genuine: no decision threshold", genuine_user)
            continue
        for intruder in users:
            intruder_test = test_observations[intruder]
            if intruder == genuine_user or len(intruder_test) < segment:
                continue
            pair_seed = np.random.SeedSequence((seed, len(genuine_test), len(intruder_test)))
            spliced = inject_intrusion(genuine_test, intruder_test, pair_seed, segment)
            projections[(genuine_user, intruder)] = models[genuine_user].vocab.project(spliced)
    if not projections:
        raise ValueError("no (genuine, intruder) pair had enough test data")
    table = generate_score_records(models, projections, n)
    pairs = list(table.scores)
    scores = np.stack(list(table.scores.values()))
    ends = np.arange(n - 1, 2 * segment)
    owner_thresholds = np.array([thresholds[genuine_user] for genuine_user, _ in pairs])
    latencies = detection_latency(scores, ends, segment, owner_thresholds)
    rows = [LatencyRow(g, i, latency) for (g, i), latency in zip(pairs, latencies)]
    return IntrusionStudy(n, np.array([math.fsum(col) for col in scores.T]) / len(pairs), rows)


def write_intrusion_curve_csv(studies: Sequence[IntrusionStudy], path: str | Path) -> None:
    body = (
        [study.n, study.n - 1 + offset, format_number(score)]
        for study in studies
        for offset, score in enumerate(study.mean_scores)
    )
    write_csv(path, chain([["n", "window_index", "mean_score"]], body))


def write_latency_csv(studies: Sequence[IntrusionStudy], path: str | Path) -> None:
    body = (
        [r.model_owner, r.intruder, study.n, "" if r.latency is None else r.latency, int(r.detected)]
        for study in studies
        for r in study.rows
    )
    header = ["model_owner", "intruder", "n", "latency_windows", "detected"]
    write_csv(path, chain([header], body))
