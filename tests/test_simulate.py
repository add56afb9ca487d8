"""Synthetic cohort generation and the splice-intrusion experiment."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import app, score_table
from appauth.encode import Vocabulary
from appauth.models import TrainConfig, train_user_model
from appauth.simulate import (
    CohortSpec,
    IntrusionStudy,
    IntrusionTrace,
    LatencyRow,
    UserProfile,
    detection_latency,
    generate_synthetic_user,
    genuine_score_thresholds,
    inject_intrusion,
    intrusion_experiment,
    intrusion_study,
    make_cohort,
)


def test_cohort_spec_validation_and_json_round_trip():
    spec = CohortSpec(n_users=3, days=5, overlap=0.25, seed=9)
    assert CohortSpec.from_json(spec.to_json()) == spec
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


def test_intrusion_experiment_scores_every_window():
    vocab = Vocabulary(["g"])
    config = TrainConfig(n_states=2, max_iter=3, seed=0)
    model = train_user_model("mc", vocab.project(obs_stream(["g"] * 60)), vocab, config)
    spliced = obs_stream(["g"] * 30 + ["x"] * 30)
    trace = intrusion_experiment(model, spliced, n=10, segment=30)
    assert len(trace.scores) == 60 - 10 + 1
    assert trace.splice_index == 30
    assert list(trace.window_end_indices()) == list(range(9, 60))
    with pytest.raises(ValueError):
        intrusion_experiment(model, spliced[:59], n=10, segment=30)
    with pytest.raises(ValueError):
        intrusion_experiment(model, spliced, n=61, segment=30)


def test_detection_latency_hand_case():
    trace = IntrusionTrace(
        genuine_segment=obs_stream(["g"] * 5),
        intruder_segment=obs_stream(["i"] * 5),
        scores=[9.0, 0.0, 9.0, 9.0, 2.0, 9.0, 1.0, 1.0],  # window ends 2..9
        n=3,
    )
    # pre-splice dip at end=3 must not count; first post-splice hit is end=6
    assert detection_latency(trace, threshold=3.0) == 2
    assert detection_latency(trace, threshold=1.5) == 4  # only ends 8, 9 qualify
    assert detection_latency(trace, threshold=-1.0) is None


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
