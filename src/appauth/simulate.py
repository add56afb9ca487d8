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
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .encode import Observation, day_flag_of, timezone_of
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

    @classmethod
    def from_json(cls, payload: Mapping) -> "CohortSpec":
        return cls(**config_kwargs(cls, payload, "synthetic config"))


# JSON type names by Python type; any other value, a bool included, is an object
_JSON_TYPES = {type(None): "null", int: "integer", float: "number", str: "string"}
_JSON_TYPES.update({list: "list", tuple: "list"})
# a float field takes any number, and the None default (`data`) a string too
_ACCEPTED = {"number": ("integer", "number"), "null": ("null", "string")}


def _from_json(value, default, what: str):
    """`value`, of the default's JSON type or one `_ACCEPTED` allows, for its
    field: a list becomes a tuple, an object goes through a `from_json`."""
    want = _JSON_TYPES.get(type(default), "object")
    accepted = _ACCEPTED.get(want, (want,))
    if _JSON_TYPES.get(type(value), "object") not in accepted:
        raise ValueError(f"{what} takes {' or '.join(accepted)}, got {value!r}")
    if want == "list":
        return tuple(_from_json(v, default[0], f"{what} element") for v in value)
    return type(default).from_json(value) if want == "object" else value


def config_kwargs(cls, payload, what: str) -> dict:
    """Constructor keywords for the dataclass `cls`, whose fields all have
    defaults, from a parsed JSON object. Raises ValueError on an unknown key,
    and on a value whose JSON type differs from its field default's."""
    if not isinstance(payload, Mapping):
        raise ValueError(f"{what} must be a JSON object, got {payload!r}")
    unknown = set(payload) - set(cls.__dataclass_fields__)
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")
    default = cls()
    return {k: _from_json(v, getattr(default, k), f"{what} key {k!r}") for k, v in payload.items()}


def generate_synthetic_user(
    user_id: str, app_pool: Sequence[str], preference: np.ndarray, spec: CohortSpec, seed: int
) -> list[RawEvent]:
    """Event log for one user over `spec.days` days.

    Sessions arrive as a Poisson process at the spec's daily rate, last
    an exponential time, and contain unlock / app-switch / lock events; the
    app at each switch is drawn from `preference[time block, day flag]`, a
    probability vector over `app_pool` for the current context.
    Deterministic given the seed.
    """
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
        tilts = rng.lognormal(0.0, spec.context_spread, size=(3, 2, len(pool)))
        preference = base[None, None, :] * tilts
        preference /= preference.sum(axis=-1, keepdims=True)
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
    are genuine users without a threshold, with a warning. Slice positions
    are derived deterministically from the study seed and the pair of user
    ids.
    """
    if n > 2 * segment:
        raise ValueError(
            f"window length n={n} exceeds the 2 x segment={segment} symbols of a spliced stream"
        )
    users = sorted(u for u in models if u in test_observations)
    long_enough = [len(test_observations[u]) >= segment for u in users]
    projections: dict[tuple[str, str], np.ndarray] = {}
    for g_pos, genuine_user in enumerate(users):
        if not long_enough[g_pos]:
            log.warning("skipping %s as genuine: test sequence too short", genuine_user)
            continue
        if genuine_user not in thresholds:
            log.warning("skipping %s as genuine: no decision threshold", genuine_user)
            continue
        for i_pos, intruder in enumerate(users):
            if intruder == genuine_user or not long_enough[i_pos]:
                continue
            pair_seed = np.random.SeedSequence(entropy=(seed, g_pos, i_pos))
            spliced = inject_intrusion(
                test_observations[genuine_user], test_observations[intruder], pair_seed, segment
            )
            projections[(genuine_user, intruder)] = models[genuine_user].vocab.project(spliced)
    if not projections:
        raise ValueError("no (genuine, intruder) pair had enough test data")
    table = generate_score_records(models, projections, n)
    pairs = list(table.scores)
    scores = np.stack(list(table.scores.values()))
    ends = np.arange(n - 1, 2 * segment)
    owner_thresholds = np.array([thresholds[genuine_user] for genuine_user, _ in pairs])
    latencies = detection_latency(scores, ends, segment, owner_thresholds)
    # Rows are added one at a time in pair order, which fixes the curve's
    # bits; scores.sum(axis=0) sums pairwise when each pair has one window.
    score_sum = np.zeros(scores.shape[1])
    for row in scores:
        score_sum += row
    rows = [LatencyRow(g, i, latency) for (g, i), latency in zip(pairs, latencies)]
    return IntrusionStudy(n, score_sum / len(pairs), rows)


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
