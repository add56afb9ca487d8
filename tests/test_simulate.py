"""Synthetic cohort generation and the splice-intrusion experiment."""

from __future__ import annotations

from dataclasses import asdict

import numpy as np
import pytest

from conftest import app, random_observation, replay_reference, score_table
from appauth.encode import Vocabulary
from appauth.evaluation import generate_score_records
from appauth.models import METHOD_TAGS, TrainConfig, train_user_model
from appauth.simulate import (
    CohortSpec,
    IntrusionStudy,
    LatencyRow,
    UserProfile,
    detection_latency,
    generate_synthetic_user,
    genuine_score_thresholds,
    inject_intrusion,
    intrusion_study,
    make_cohort,
)


def test_cohort_spec_validation_and_json_round_trip():
    spec = CohortSpec(n_users=3, days=5, overlap=0.25, seed=9)
    assert CohortSpec.from_json(asdict(spec)) == spec
    with pytest.raises(ValueError):
        CohortSpec(overlap=1.5)
    with pytest.raises(ValueError):
        CohortSpec(n_users=0)


def test_profile_rejects_bad_preference():
    with pytest.raises(ValueError):
        UserProfile("u", ["a", "b"], np.full((3, 2, 3), 1 / 3))
    with pytest.raises(ValueError):
        UserProfile("u", ["a", "b"], np.full((3, 2, 2), 0.4))


def test_generate_user_event_structure():
    pref = np.full((3, 2, 2), 0.5)
    profile = UserProfile("u", ["a", "b"], pref, seed=3)
    events = generate_synthetic_user(profile, days=3)
    assert events, "three days should produce sessions"
    assert all(e.user_id == "u" for e in events)
    state = "locked"
    for e in events:
        if e.kind == "unlock":
            assert state == "locked"
            state = "unlocked"
        elif e.kind == "lock":
            assert state == "unlocked"
            state = "locked"
        else:
            assert state == "unlocked"
            assert e.app_id in ("a", "b")
    assert state == "locked"
    ts = [e.local_timestamp for e in events]
    assert ts == sorted(ts)
    assert ts[-1] <= 3 * 86400


def test_generate_user_is_deterministic_and_zero_days_is_empty():
    pref = np.full((3, 2, 2), 0.5)
    a = generate_synthetic_user(UserProfile("u", ["a", "b"], pref, seed=3), days=2)
    b = generate_synthetic_user(UserProfile("u", ["a", "b"], pref, seed=3), days=2)
    c = generate_synthetic_user(UserProfile("u", ["a", "b"], pref, seed=4), days=2)
    assert a == b
    assert a != c
    assert generate_synthetic_user(UserProfile("u", ["a", "b"], pref, seed=3), days=0) == []


def test_cohort_pools_follow_overlap():
    def pools(spec):
        cohort = make_cohort(spec)
        return {u: {e.app_id for e in events if e.kind == "app"} for u, events in cohort.items()}

    half = pools(CohortSpec(n_users=3, days=4, overlap=0.5, apps_per_user=10, seed=1))
    assert set(half) == {"user00", "user01", "user02"}
    for u, used in half.items():
        shared = {a for a in used if a.startswith("app.shared.")}
        private = {a for a in used if a.startswith(f"app.{u}.")}
        assert shared | private == used  # nothing from other users' pools

    disjoint = pools(CohortSpec(n_users=3, days=4, overlap=0.0, apps_per_user=10, seed=1))
    assert not (disjoint["user00"] & disjoint["user01"])

    full = pools(CohortSpec(n_users=2, days=4, overlap=1.0, apps_per_user=10, seed=1))
    assert all(a.startswith("app.shared.") for a in full["user00"] | full["user01"])


def test_cohort_is_deterministic_per_seed():
    spec = CohortSpec(n_users=2, days=3, seed=7)
    assert make_cohort(spec) == make_cohort(spec)
    assert make_cohort(spec) != make_cohort(CohortSpec(n_users=2, days=3, seed=8))


def obs_stream(app_ids):
    return [app(a, 0, 0) for a in app_ids]


def test_inject_intrusion_composition():
    genuine = obs_stream([f"g{i}" for i in range(300)])
    intruder = obs_stream([f"i{i}" for i in range(250)])
    spliced = inject_intrusion(genuine, intruder, np.random.SeedSequence(0), segment=100)
    assert len(spliced) == 200
    assert all(o.app_id.startswith("g") for o in spliced[:100])
    assert all(o.app_id.startswith("i") for o in spliced[100:])
    # contiguous slices, in original order
    first = int(spliced[0].app_id[1:])
    assert [o.app_id for o in spliced[:100]] == [f"g{first + k}" for k in range(100)]
    again = inject_intrusion(genuine, intruder, np.random.SeedSequence(0), segment=100)
    assert [o.app_id for o in again] == [o.app_id for o in spliced]
    with pytest.raises(ValueError):
        inject_intrusion(genuine[:50], intruder, np.random.SeedSequence(0), segment=100)


def test_detection_latency_hand_case():
    scores = np.tile([9.0, 0.0, 9.0, 9.0, 2.0, 9.0, 1.0, 1.0], (3, 1))
    ends = np.arange(2, 10)  # n = 3 over a 5 + 5 splice
    latency = detection_latency(scores, ends, splice=5, thresholds=np.array([3.0, 1.5, -1.0]))
    # pre-splice dip at end=3 must not count; first post-splice hit is end=6
    assert latency[0] == 2
    assert latency[1] == 4  # only ends 8, 9 qualify
    assert latency[2] is None


def test_genuine_score_thresholds_percentile():
    rows = [("u", "u", float(i), i) for i in range(101)]
    rows += [("u", "v", -100.0)]  # impostor rows are ignored
    thresholds = genuine_score_thresholds(score_table(rows), percentile=5.0)
    assert thresholds == {"u": 5.0}


def test_detection_rate_arithmetic():
    rows = [
        LatencyRow("a", "b", 60, 1),
        LatencyRow("a", "c", 60, 5),
        LatencyRow("b", "a", 60, 9),
        LatencyRow("b", "c", 60, None),
    ]
    study = IntrusionStudy(60, 200, np.zeros(1), rows)
    assert study.detection_rate(within=5) == 0.5
    assert study.detection_rate(within=100) == 0.75


def test_intrusion_study_runs_all_pairs():
    users = ["u0", "u1", "u2"]
    vocabs = {u: Vocabulary([f"{u}.app"]) for u in users}
    config = TrainConfig(n_states=2, max_iter=3, seed=0)
    models = {}
    test_obs = {}
    for u in users:
        stream = obs_stream([f"{u}.app"] * 260)
        models[u] = train_user_model("mc", vocabs[u].project(stream[:200]), vocabs[u], config)
        test_obs[u] = stream
    thresholds = {u: -1e9 for u in users}  # never detect: latency rows all None
    study = intrusion_study(models, test_obs, n=20, thresholds=thresholds, seed=0, segment=100)
    assert len(study.rows) == 6  # ordered pairs of 3 users
    assert study.mean_scores.shape == (200 - 20 + 1,)
    assert all(row.latency is None for row in study.rows)
    assert study.detection_rate(within=5) == 0.0
    with pytest.raises(ValueError, match="n=201 .* segment=100"):
        intrusion_study(models, test_obs, n=201, thresholds=thresholds, segment=100)


REPLAY_SEGMENT = 20


@pytest.fixture(scope="module")
def replay_cohort():
    """Six users over shared and private apps; user05's test stream is
    shorter than the segment, so it takes part in no pair, and the other
    five make 20 ordered pairs."""
    rng = np.random.default_rng(23)
    train, test = {}, {}
    for k in range(6):
        apps = ["chat", "mail", "maps"] + [f"u{k}.{j}" for j in range(3)]
        train[f"user{k:02d}"] = [random_observation(rng, apps) for _ in range(90)]
        size = REPLAY_SEGMENT - 5 if k == 5 else 50 + 7 * k
        test[f"user{k:02d}"] = [random_observation(rng, apps) for _ in range(size)]
    return train, test


@pytest.mark.parametrize("method", METHOD_TAGS)
def test_intrusion_study_matches_per_pair_replay(replay_cohort, method):
    train, test = replay_cohort
    config = TrainConfig(n_states=3, max_iter=4, seed=0)
    models = {}
    for user, stream in train.items():
        vocab = Vocabulary.from_observations(stream)
        models[user] = train_user_model(method, vocab.project(stream), vocab, config)
    genuine = {(u, u): models[u].vocab.project(test[u]) for u in models}
    for n in (1, 5, 20, 2 * REPLAY_SEGMENT):
        thresholds = genuine_score_thresholds(generate_score_records(models, genuine, n))
        study = intrusion_study(models, test, n, thresholds, seed=3, segment=REPLAY_SEGMENT)
        rows, mean_scores = replay_reference(models, test, n, thresholds, 3, REPLAY_SEGMENT)
        assert len(rows) == 20
        assert [(r.model_owner, r.intruder, r.n, r.latency) for r in study.rows] == rows
        assert study.mean_scores.shape == (2 * REPLAY_SEGMENT - n + 1,)
        assert study.mean_scores.tobytes() == mean_scores.tobytes()
