"""Workload definitions and their seeded inputs.

Each cohort is generated by appauth.simulate from the run's seed, then each
user's event log is cut after the session in which the user's resampled
sample count reaches `samples`. Without the cut, the number of samples per
user varies about twofold between seeds, and `med` work (windows x T) by
15% between whole cohorts; with it, every seed gives the same amount of
work within a session per user, while the usage itself still differs.
`days` is long enough for every user seen to reach `samples`; a user who
does not keeps the whole log.
"""

from __future__ import annotations

from appauth import ingest, simulate

METHODS = ("bin-unk", "bin-unfore", "med", "mc", "hmm-lap", "mshmm")
ACCEPT = {"overlap": 0.5, "apps_per_user": 30, "concentration": 0.3, "context_spread": 1.0}

WORKLOADS = {
    # about 14 days per user at period 30, the acceptance cohort otherwise
    "eval-p30": {
        "kind": "eval",
        "cohort": {**ACCEPT, "n_users": 10, "days": 30},
        "samples": 1600,
        "period": 30,
        "n_values": [20, 60],
        "stride": 5,
    },
    # about 7 days per user at period 5
    "eval-p5": {
        "kind": "eval",
        "cohort": {**ACCEPT, "n_users": 3, "days": 16},
        "samples": 4800,
        "period": 5,
        "n_values": [20],
        "stride": 1,
    },
    # the intrusion cohort (disjoint app pools), about 14 days per user
    "verify-stream": {
        "kind": "stream",
        "cohort": {**ACCEPT, "overlap": 0.0, "n_users": 10, "days": 30},
        "samples": 1600,
        "period": 30,
        "n": 60,
        "segment": 200,
    },
}


def cohort_spec(workload: dict, seed: int) -> simulate.CohortSpec:
    return simulate.CohortSpec(**workload["cohort"], seed=seed)


def cut_cohort(workload: dict, cohort: dict[str, list]) -> dict[str, list]:
    """Cut each user's log after the session that reaches `samples`."""
    return {user: _cut(events, workload["period"], workload["samples"]) for user, events in cohort.items()}


def _cut(events: list, period: int, samples: int) -> list:
    total = 0
    for session in ingest.resample_sessions(ingest.sessionize(events), period):
        total += len(session.samples)
        if total >= samples:
            return [ev for ev in events if ev.local_timestamp <= session.end]
    return events
