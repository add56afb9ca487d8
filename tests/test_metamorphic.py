"""Metamorphic relations: input changes that must not change a score.

Each relation transforms the event logs of a TINY-sized synthetic cohort,
evaluates both cohorts the same way and compares every (model owner,
window owner) pair's score array with np.array_equal and every EER cell
with ==, with no tolerance. The oracles check single models and the
byte-identical check compares two trees; these check that no score depends
on user names, absolute dates, who else is in the cohort or app names.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from appauth.evaluation import (
    equal_error_rate,
    evaluate_methods,
    generate_score_records,
    prepare_cohort,
    train_cohort_models,
)
from appauth.models import HMM_METHODS, METHOD_TAGS
from appauth.models.core import TrainConfig
from appauth.simulate import (
    CohortSpec,
    genuine_score_thresholds,
    intrusion_study,
    make_cohort,
)

SPEC = CohortSpec(n_users=3, days=6, apps_per_user=8, seed=7)
CONFIG = TrainConfig(n_states=3, max_iter=6, seed=7)
N_VALUES = (5, 9)
HMM_FREE = tuple(m for m in METHOD_TAGS if m not in HMM_METHODS)
WEEK = 7 * 24 * 3600


def evaluate(events, methods=METHOD_TAGS):
    """Every (method, n) score table of the cohort at period 30, stride 1."""
    prepared = prepare_cohort(events, period=30, min_train=50, min_test=30)
    assert len(prepared) == len(events)
    return evaluate_methods(methods, prepared, N_VALUES, CONFIG, stride=1)


def latencies(events):
    """`intrude`'s study of the cohort with `mshmm` at n = 9: its latency
    rows and its mean score curve."""
    prepared = prepare_cohort(events, period=30, min_train=50, min_test=30)
    models = train_cohort_models(["mshmm"], prepared, CONFIG)["mshmm"]
    genuine = {(u, u): models[u].vocab.project(p.test_observations) for u, p in prepared.items()}
    thresholds = genuine_score_thresholds(generate_score_records(models, genuine, 9))
    test_obs = {u: p.test_observations for u, p in prepared.items()}
    study = intrusion_study(models, test_obs, 9, thresholds, seed=7, segment=40)
    return [(r.model_owner, r.intruder, r.latency) for r in study.rows], study.mean_scores


def assert_same_scores(got, want, user=lambda u: u, every_pair=True):
    """Each pair of `want` has the same scores in `got` under the user map;
    with `every_pair`, `got` has no other pair and each EER is the same."""
    assert list(got) == list(want)
    for key, table in want.items():
        moved = got[key].scores
        for (mo, wo), scores in table.scores.items():
            assert np.array_equal(moved[user(mo), user(wo)], scores), (key, mo, wo)
        if every_pair:
            assert len(moved) == len(table.scores), key
            assert equal_error_rate(got[key]) == equal_error_rate(table), key


def rename_users(events, name):
    return {name(u): [replace(ev, user_id=name(u)) for ev in evs] for u, evs in events.items()}


def rename_apps(events, name):
    return {
        u: [replace(ev, app_id=name(ev.app_id)) if ev.app_id else ev for ev in evs]
        for u, evs in events.items()
    }


def reversed_names(names, prefix):
    """A name per item, whose sort order is the reverse of the items'."""
    ranked = sorted(names)
    return {x: f"{prefix}{len(ranked) - i:03d}" for i, x in enumerate(ranked)}


@pytest.fixture(scope="module")
def cohort():
    return make_cohort(SPEC)


@pytest.fixture(scope="module")
def tables(cohort):
    return evaluate(cohort)


def test_user_names_in_reversed_order_change_no_score(cohort, tables):
    names = reversed_names(cohort, "user")
    assert sorted(names.values()) == [names[u] for u in sorted(cohort, reverse=True)]
    assert_same_scores(evaluate(rename_users(cohort, names.get)), tables, names.get)


def test_user_names_in_the_same_order_change_no_intrusion_latency(cohort):
    """Names that keep the users' order and names that reverse it both keep
    every latency row, under the name map, and the mean score curve: a
    pair's splice is seeded by the two users' test lengths, not by their
    names or places, and the curve's sums are exact in any order."""
    rows, curve = latencies(cohort)
    for name in ["id-{}".format, reversed_names(cohort, "user").get]:
        moved_rows, moved_curve = latencies(rename_users(cohort, name))
        assert sorted(moved_rows) == sorted((name(g), name(i), lat) for g, i, lat in rows)
        assert np.array_equal(moved_curve, curve)


def test_a_week_later_no_score_changes(cohort, tables):
    shifted = {
        u: [replace(ev, local_timestamp=ev.local_timestamp + WEEK) for ev in evs]
        for u, evs in cohort.items()
    }
    assert_same_scores(evaluate(shifted), tables)


@pytest.fixture(scope="module")
def grown(cohort):
    """The cohort and a user "new00", whose log is twice as long as any."""
    extra = make_cohort(replace(SPEC, n_users=SPEC.n_users + 1, days=2 * SPEC.days))
    return dict(cohort, new00=[replace(ev, user_id="new00") for ev in extra[max(extra)]])


def test_an_added_user_changes_no_score_of_the_others(cohort, tables, grown):
    """The added user sorts first, so every other user's position in the
    cohort moves; its log is twice as long, so it becomes every other
    user's longest Baum-Welch batch mate; and its windows share every model
    owner's scoring calls."""
    assert sorted(grown)[0] == "new00"
    assert len(grown["new00"]) > max(len(evs) for evs in cohort.values())
    assert_same_scores(evaluate(grown), tables, every_pair=False)


def test_an_added_user_changes_no_intrusion_latency_of_the_others(cohort, grown):
    """Every existing pair keeps its latency row, though the added user
    sorts first."""
    rows, _ = latencies(cohort)
    grown_rows, _ = latencies(grown)
    assert [row for row in grown_rows if "new00" not in row[:2]] == rows


def test_app_names_in_the_same_order_change_no_score(cohort, tables):
    assert_same_scores(evaluate(rename_apps(cohort, lambda a: "id." + a)), tables)


def test_app_names_in_reversed_order_change_no_hmm_free_score(cohort, tables):
    """The HMM fits do change: each user's random-simplex start is drawn
    over its symbols in vocabulary order, which follows the app names."""
    names = reversed_names({ev.app_id for evs in cohort.values() for ev in evs if ev.app_id}, "a")
    want = {key: table for key, table in tables.items() if key[0] in HMM_FREE}
    assert_same_scores(evaluate(rename_apps(cohort, names.get), HMM_FREE), want)
