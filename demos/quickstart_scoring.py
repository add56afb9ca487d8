"""
Train every model family for one user and score genuine vs impostor windows
===========================================================================

Generates a small synthetic cohort, trains all six scoring methods on one
user's history, then scores recent-activity windows drawn from that user and
from a different user. Every method scores higher-is-more-genuine, so the
owner's own windows should outscore the impostor's under each model.
"""

from numpy.lib.stride_tricks import sliding_window_view

from appauth.evaluation import prepare_cohort, train_cohort_models
from appauth.models import METHOD_TAGS, TrainConfig
from appauth.simulate import CohortSpec, make_cohort

WINDOW = 20
STRIDE = 5

spec = CohortSpec(n_users=4, days=12, overlap=0.5, apps_per_user=12, seed=3)
prepared = prepare_cohort(make_cohort(spec), period=30)
owner, impostor = sorted(prepared)[:2]
print(f"cohort of {len(prepared)} users; modelling {owner}, intruding with {impostor}")
print(f"{owner} trains on {prepared[owner].train_indices.size} symbols, "
      f"tests on {len(prepared[owner].test_observations)}")

config = TrainConfig(n_states=10, max_iter=20, seed=0)
genuine = prepared[owner].vocab.project(prepared[owner].test_observations)
foreign = prepared[owner].vocab.project(prepared[impostor].test_observations)

print(f"\nmean log-style score over {WINDOW}-symbol windows (stride {STRIDE}):")
print(f"{'method':<12} {'genuine':>10} {'impostor':>10} {'margin':>10}")
models = train_cohort_models(METHOD_TAGS, {owner: prepared[owner]}, config)
for method in METHOD_TAGS:
    model = models[method][owner]
    own = model.score_windows(sliding_window_view(genuine, WINDOW)[::STRIDE]).mean()
    other = model.score_windows(sliding_window_view(foreign, WINDOW)[::STRIDE]).mean()
    print(f"{method:<12} {own:>10.2f} {other:>10.2f} {own - other:>10.2f}")

# The binary rules collapse each window to accept/reject, so their "scores"
# are acceptance rates; the sequence models separate the users by tens of
# log-units because impostor windows keep paying unknown-symbol penalties.
