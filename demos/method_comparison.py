"""
Equal-error-rate comparison across methods and window lengths
=============================================================

Runs the full cross-user evaluation protocol on a synthetic cohort: every
user's model scores every user's test windows, and each method's genuine and
impostor score distributions meet at the equal error rate. Longer windows
give the sequence models more evidence per decision.
"""

from appauth.evaluation import equal_error_rate, evaluate_methods, prepare_cohort
from appauth.models import METHOD_TAGS, TrainConfig
from appauth.simulate import CohortSpec, make_cohort

N_VALUES = (20, 60)
STRIDE = 5

spec = CohortSpec(n_users=5, days=14, overlap=0.5, apps_per_user=15, seed=11)
prepared = prepare_cohort(make_cohort(spec), period=30)
print(f"{len(prepared)} eligible users at a 30 s sampling period")

config = TrainConfig(n_states=10, max_iter=20, seed=0)
tables = evaluate_methods(METHOD_TAGS, prepared, N_VALUES, config, STRIDE)

print(f"\nEER% by method and window length (stride {STRIDE}):")
header = "".join(f"  n={n:<6}" for n in N_VALUES)
print(f"{'method':<12}{header}")
for method in METHOD_TAGS:
    cells = "".join(f"  {equal_error_rate(tables[(method, n)]):<7.2f}" for n in N_VALUES)
    print(f"{method:<12}{cells}")

counts = {n: len(tables[(METHOD_TAGS[0], n)]) for n in N_VALUES}
print(f"\nscored windows per method: {counts} (all user pairs, both directions)")
