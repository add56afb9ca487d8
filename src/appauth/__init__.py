"""Continuous smartphone-user verification from foreground-app usage.

The package turns raw app/lock event logs into contextualized observation
sequences, trains per-user verification models (binary rules, edit
distance, Markov chain, and two smoothed HMM variants), and evaluates them
with the windowed genuine/impostor protocol (ROC, EER, intrusion latency).
"""

from __future__ import annotations

__version__ = "0.1.0"

from .encode import Observation, Vocabulary, day_flag_of, encode_sessions, timezone_of
from .evaluation import (
    ConfusionCounts,
    ScoreTable,
    accuracy,
    confusion_counts,
    equal_error_rate,
    f1,
    generate_score_records,
    prepare_cohort,
    roc_curve,
    sensitivity,
    specificity,
    top_apps_report,
    unknown_app_stats,
)
from .ingest import (
    RawEvent,
    Session,
    SplitDataset,
    parse_event_log,
    sessionize,
)
from .models import (
    METHOD_TAGS,
    TrainConfig,
    load_model,
    save_model,
    train_user_model,
)
from .simulate import (
    CohortSpec,
    generate_synthetic_user,
    inject_intrusion,
    make_cohort,
)

__all__ = [
    "CohortSpec",
    "ConfusionCounts",
    "METHOD_TAGS",
    "Observation",
    "RawEvent",
    "ScoreTable",
    "Session",
    "SplitDataset",
    "TrainConfig",
    "Vocabulary",
    "__version__",
    "accuracy",
    "confusion_counts",
    "day_flag_of",
    "encode_sessions",
    "equal_error_rate",
    "f1",
    "generate_score_records",
    "generate_synthetic_user",
    "inject_intrusion",
    "load_model",
    "make_cohort",
    "parse_event_log",
    "prepare_cohort",
    "roc_curve",
    "save_model",
    "sensitivity",
    "sessionize",
    "specificity",
    "timezone_of",
    "top_apps_report",
    "train_user_model",
    "unknown_app_stats",
]
