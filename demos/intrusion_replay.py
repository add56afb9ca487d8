"""
How fast does a score threshold catch a mid-session intruder?
=============================================================

Splices an intruder's symbol stream onto the tail of a genuine stream and
watches the owner-model score of a sliding window cross the owner's own
decision threshold. With disjoint app pools the intruder's apps all project
to unknown symbols, so scores collapse within a few windows of the splice.
"""

import numpy as np

from appauth.evaluation import generate_score_records, prepare_cohort, train_cohort_models
from appauth.models import TrainConfig
from appauth.simulate import (
    CohortSpec,
    genuine_score_thresholds,
    intrusion_study,
    make_cohort,
)

WINDOW = 30
STRIDE = 5
SEGMENT = 100

spec = CohortSpec(n_users=4, days=14, overlap=0.0, apps_per_user=12, seed=5)
prepared = prepare_cohort(make_cohort(spec), period=30)
config = TrainConfig(n_states=10, max_iter=20, seed=0)
models = train_cohort_models(["mshmm"], prepared, config)["mshmm"]

# Each user's threshold is a low percentile of their own genuine window
# scores: almost all of the owner's activity stays above it.
genuine = {(u, u): models[u].vocab.project(p.test_observations) for u, p in prepared.items()}
genuine_table = generate_score_records(models, genuine, WINDOW, STRIDE)
thresholds = genuine_score_thresholds(genuine_table, percentile=5.0)
for user in sorted(thresholds):
    print(f"{user}: threshold {thresholds[user]:.1f}")

study = intrusion_study(
    models,
    {u: p.test_observations for u, p in prepared.items()},
    WINDOW,
    thresholds,
    seed=0,
    segment=SEGMENT,
)

print(f"\n{len(study.rows)} (owner, intruder) pairs, segment {SEGMENT}, window {WINDOW}")
print(f"{'owner':<8} {'intruder':<8} {'latency (windows)':>18}")
for row in study.rows:
    latency = row.latency if row.detected else "never"
    print(f"{row.model_owner:<8} {row.intruder:<8} {latency!s:>18}")
rate = study.detection_rate(within=5)
print(f"\ndetected within 5 windows of the splice in {100 * rate:.0f}% of pairs")

# Mean score trajectory around the splice: window end index SEGMENT is the
# first window containing intruder symbols.
splice = SEGMENT
ends = np.arange(WINDOW - 1, WINDOW - 1 + study.mean_scores.size)
print("\nmean owner-model score near the splice:")
for end, score in zip(ends, study.mean_scores):
    if splice - 3 <= end <= splice + 6:
        marker = "  <- first window touching intruder data" if end == splice else ""
        print(f"  window ending at {end:>3}: {score:>9.1f}{marker}")
