"""Command-line front end: reproducible experiment runs from a JSON config.

Subcommands cover the full pipeline — synthesize a cohort, ingest raw
events into symbol sequences, train per-user models, score sequences
against a model, run the EER evaluation grid, emit dataset statistics, and
replay intrusion splices. Every run writes a manifest capturing the
configuration hash and library versions, so identical configs reproduce
identical outputs byte for byte.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import sys
from dataclasses import asdict, dataclass, field, replace
from itertools import repeat
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import __version__
from .encode import KIND_APP, read_sequence_csv, write_sequence_csv
from .evaluation import (
    DEFAULT_MIN_TEST,
    DEFAULT_MIN_TRAIN,
    EerGrid,
    PreparedUser,
    ScoreTable,
    accuracy,
    app_similarity_matrix,
    confusion_counts,
    eer_threshold,
    evaluate_methods,
    f1,
    format_number,
    generate_score_records,
    observation_similarity_matrix,
    prepare_cohort,
    roc_curve,
    sensitivity,
    specificity,
    top_apps_report,
    train_cohort_models,
    train_hmm_bases,
    unknown_app_stats,
    write_eer_grid_csv,
    write_roc_csv,
    write_scores_csv,
    write_similarity_csv,
    write_top_apps_csv,
    write_unknown_stats_csv,
)
from .ingest import (
    DEFAULT_IDLE_GAP,
    FormatError,
    RawEvent,
    group_by_user,
    parse_event_log,
    write_csv,
    write_event_log,
)
from .models import (
    DEFAULT_DELTA,
    METHOD_TAGS,
    TrainConfig,
    load_model,
    save_model,
)
from .models.core import DEFAULT_MAX_ITER, DEFAULT_N_STATES, DEFAULT_TOL
from .simulate import (
    CohortSpec,
    config_kwargs,
    genuine_score_thresholds,
    intrusion_study,
    make_cohort,
    write_intrusion_curve_csv,
    write_latency_csv,
)

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

DEFAULT_PERIODS = (5, 10, 15, 20, 25, 30)
DEFAULT_N_VALUES = (20, 30, 40, 50, 60)


@dataclass(slots=True)
class ExperimentConfig:
    """Everything a run needs; JSON-serializable and hashable."""

    data: str | None = None  # event-log CSV path; None -> synthetic
    synthetic: CohortSpec = field(default_factory=CohortSpec)
    periods: tuple[int, ...] = DEFAULT_PERIODS
    n_values: tuple[int, ...] = DEFAULT_N_VALUES
    train_fraction: float = 0.7
    methods: tuple[str, ...] = METHOD_TAGS
    delta: float = DEFAULT_DELTA
    n_states: int = DEFAULT_N_STATES
    max_iter: int = DEFAULT_MAX_ITER
    tol: float = DEFAULT_TOL
    seed: int = 0
    stride: int = 1
    out: str = "results"
    idle_gap: float = DEFAULT_IDLE_GAP
    min_train: int = DEFAULT_MIN_TRAIN
    min_test: int = DEFAULT_MIN_TEST
    segment: int = 200
    threshold_percentile: float = 5.0

    def __post_init__(self) -> None:
        if not self.periods or not self.n_values or not self.methods:
            raise ValueError("periods, n_values and methods must be non-empty")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")
        if self.segment < 1:
            raise ValueError("segment must be >= 1")
        for m in self.methods:
            if m not in METHOD_TAGS:
                raise ValueError(f"unknown method {m!r}; expected one of {METHOD_TAGS}")

    def to_json(self) -> dict:
        return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()}

    @classmethod
    def from_json(cls, payload: Mapping) -> "ExperimentConfig":
        return cls(**config_kwargs(cls, payload, "config"))

    @property
    def train_config(self) -> TrainConfig:
        return TrainConfig(
            delta=self.delta,
            n_states=self.n_states,
            max_iter=self.max_iter,
            tol=self.tol,
            seed=self.seed,
        )

    def config_hash(self) -> str:
        canonical = json.dumps(self.to_json(), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def load_config(path: str | None) -> ExperimentConfig:
    if path is None:
        return ExperimentConfig()
    with open(path, "r", encoding="utf-8") as fh:
        return ExperimentConfig.from_json(json.load(fh))


def apply_overrides(config: ExperimentConfig, args: argparse.Namespace) -> ExperimentConfig:
    updates: dict = {}
    if getattr(args, "method", None):
        updates["methods"] = (args.method,)
    if getattr(args, "n", None):
        updates["n_values"] = (args.n,)
    if getattr(args, "period", None):
        updates["periods"] = (args.period,)
    if getattr(args, "seed", None) is not None:
        updates["seed"] = args.seed
        updates["synthetic"] = replace(config.synthetic, seed=args.seed)
    if getattr(args, "out", None):
        updates["out"] = args.out
    return replace(config, **updates) if updates else config


def _write_json(path: Path, payload: Mapping) -> None:
    """Indented JSON with sorted keys and a trailing newline."""
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def write_manifest(config: ExperimentConfig, command: str, out_dir: Path) -> None:
    manifest = {
        "command": command,
        "config": config.to_json(),
        "config_hash": config.config_hash(),
        "versions": {
            "python": ".".join(str(v) for v in sys.version_info[:3]),
            "numpy": np.__version__,
            "appauth": __version__,
        },
    }
    _write_json(out_dir / "manifest.json", manifest)


def _out_dir(config: ExperimentConfig) -> Path:
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_cohort(config: ExperimentConfig) -> dict[str, list[RawEvent]]:
    if config.data is not None:
        events, report = parse_event_log(config.data)
        if report.errors:
            log.warning("%d malformed rows dropped while parsing %s", len(report.errors), config.data)
        return group_by_user(events)
    return make_cohort(config.synthetic)


def _prepare(
    config: ExperimentConfig, events_by_user: Mapping[str, Sequence[RawEvent]], period: int
) -> dict[str, PreparedUser]:
    return prepare_cohort(
        events_by_user,
        period,
        train_fraction=config.train_fraction,
        idle_gap=config.idle_gap,
        min_train=config.min_train,
        min_test=config.min_test,
    )


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(config: ExperimentConfig) -> int:
    out = _out_dir(config)
    cohort = make_cohort(config.synthetic)
    rows = [ev for user in sorted(cohort) for ev in cohort[user]]
    write_event_log(rows, out / "events.csv")
    write_manifest(config, "synth", out)
    print(f"wrote {len(rows)} events for {len(cohort)} users to {out / 'events.csv'}")
    return EXIT_OK


def cmd_ingest(config: ExperimentConfig) -> int:
    out = _out_dir(config)
    report: dict = {"periods": {}}
    events_by_user = _load_cohort(config)
    for period in config.periods:
        prepared = _prepare(config, events_by_user, period)
        train_rows = []
        test_rows = []
        for user in sorted(prepared):
            p = prepared[user]
            train_rows.extend(zip(repeat(user), p.train_timestamps.tolist(), p.train_observations))
            test_rows.extend(zip(repeat(user), p.test_timestamps.tolist(), p.test_observations))
        write_sequence_csv(train_rows, out / f"train_period{period}.csv")
        write_sequence_csv(test_rows, out / f"test_period{period}.csv")
        report["periods"][str(period)] = {
            "eligible_users": sorted(prepared),
            "train_symbols": {u: int(prepared[u].train_indices.size) for u in sorted(prepared)},
            "test_symbols": {u: len(prepared[u].test_observations) for u in sorted(prepared)},
        }
    _write_json(out / "ingest_report.json", report)
    write_manifest(config, "ingest", out)
    print(f"ingested {len(config.periods)} period(s) into {out}")
    return EXIT_OK


def cmd_train(config: ExperimentConfig) -> int:
    out = _out_dir(config)
    period = config.periods[0]
    prepared = _prepare(config, _load_cohort(config), period)
    if not prepared:
        print("no eligible users to train on", file=sys.stderr)
        return EXIT_DATA
    model_dir = out / "models"
    model_dir.mkdir(exist_ok=True)
    train_config = config.train_config
    bases = train_hmm_bases(config.methods, prepared, train_config)
    for method in config.methods:
        models = train_cohort_models(method, prepared, train_config, bases)
        for user, model in models.items():
            save_model(model, model_dir / f"{user}.{method}.npz", owner=user)
    write_manifest(config, "train", out)
    total = len(prepared) * len(config.methods)
    print(f"trained {total} models ({len(prepared)} users x {len(config.methods)} methods) in {model_dir}")
    return EXIT_OK


def cmd_score(config: ExperimentConfig, model_path: str, sequence_path: str) -> int:
    out = _out_dir(config)
    model = load_model(model_path)
    owner = getattr(model, "owner", None) or Path(model_path).stem.split(".")[0]
    rows = read_sequence_csv(sequence_path)
    by_owner: dict[str, list] = {}
    for seq_owner, _, obs in rows:
        by_owner.setdefault(seq_owner, []).append(obs)
    projections = {(owner, wo): model.vocab.project(obs) for wo, obs in by_owner.items()}
    table = generate_score_records({owner: model}, projections, config.n_values[0], config.stride)
    write_scores_csv(table, out / "scores.csv")
    write_manifest(config, "score", out)
    print(f"wrote {len(table)} scores to {out / 'scores.csv'}")
    return EXIT_OK


def cmd_eval(config: ExperimentConfig) -> int:
    out = _out_dir(config)
    grids: dict[str, EerGrid] = {
        m: EerGrid(
            config.n_values,
            config.periods,
            np.full((len(config.n_values), len(config.periods)), np.nan),
        )
        for m in config.methods
    }
    first_period: dict[tuple[str, int], ScoreTable] = {}
    first_crossings: dict[tuple[str, int], tuple[float, float]] = {}
    events_by_user = _load_cohort(config)
    for j, period in enumerate(config.periods):
        prepared = _prepare(config, events_by_user, period)
        if len(prepared) < 2:
            log.warning("period %ds: fewer than 2 eligible users; skipping column", period)
            continue
        by_key = evaluate_methods(
            config.methods, prepared, config.n_values, config.train_config, config.stride
        )
        # (EER %, threshold) of each non-empty table, from one sweep: the
        # grid takes the EER, metrics.csv the first period's pair.
        crossings = {key: eer_threshold(table) for key, table in by_key.items() if table}
        for method in config.methods:
            for i, n in enumerate(config.n_values):
                if (method, n) in crossings:
                    grids[method].values[i, j] = crossings[(method, n)][0]
        if j == 0:
            first_period, first_crossings = by_key, crossings

    for method in config.methods:
        write_eer_grid_csv(grids[method], out / f"eer_grid_{method}.csv")
    if first_period:
        period = config.periods[0]
        n0 = config.n_values[0]
        metric_rows = ["method,n,period,threshold,eer,sensitivity,specificity,accuracy,f1".split(",")]
        for method in config.methods:
            table = first_period[(method, n0)]
            if table:
                write_scores_csv(table, out / f"scores_{method}.csv")
                write_roc_csv(roc_curve(table), out / f"roc_{method}.csv")
            for n in config.n_values:
                if (method, n) not in first_crossings:
                    continue
                eer, thr = first_crossings[(method, n)]
                cc = confusion_counts(first_period[(method, n)], thr)
                metric_rows.append(
                    [
                        method,
                        str(n),
                        str(period),
                        format_number(thr),
                        format_number(eer),
                        format_number(sensitivity(cc)),
                        format_number(specificity(cc)),
                        format_number(accuracy(cc)),
                        format_number(f1(cc)),
                    ]
                )
        write_csv(out / "metrics.csv", metric_rows)
    write_manifest(config, "eval", out)
    print(f"wrote EER grids for {len(config.methods)} method(s) to {out}")
    return EXIT_OK


def cmd_stats(config: ExperimentConfig) -> int:
    out = _out_dir(config)
    period = config.periods[0]
    prepared = _prepare(config, _load_cohort(config), period)
    if len(prepared) < 2:
        print("need at least 2 eligible users for statistics", file=sys.stderr)
        return EXIT_DATA
    vocabs = {u: p.vocab for u, p in prepared.items()}
    users, app_m = app_similarity_matrix(vocabs)
    write_similarity_csv(users, app_m, out / "similarity_app.csv")
    users, obs_m = observation_similarity_matrix(
        {u: set(p.train_observations) for u, p in prepared.items()}
    )
    write_similarity_csv(users, obs_m, out / "similarity_obs.csv")
    test_apps = {
        u: [o.app_id for o in p.test_observations if o.kind == KIND_APP]
        for u, p in prepared.items()
    }
    write_unknown_stats_csv(unknown_app_stats(vocabs, test_apps), out / "unknown_stats.csv")
    train_apps = {
        u: [o.app_id for o in p.train_observations if o.kind == KIND_APP]
        for u, p in prepared.items()
    }
    write_top_apps_csv(top_apps_report(train_apps), out / "top_apps.csv")
    write_manifest(config, "stats", out)
    print(f"wrote similarity, unknown-app and top-app reports to {out}")
    return EXIT_OK


def cmd_intrude(config: ExperimentConfig) -> int:
    out = _out_dir(config)
    period = config.periods[0]
    method = "mshmm" if "mshmm" in config.methods else config.methods[0]
    prepared = _prepare(config, _load_cohort(config), period)
    if len(prepared) < 2:
        print("need at least 2 eligible users for intrusion replay", file=sys.stderr)
        return EXIT_DATA
    models = train_cohort_models(method, prepared, config.train_config)
    test_obs = {u: p.test_observations for u, p in prepared.items()}
    genuine = {(u, u): models[u].vocab.project(test_obs[u]) for u in models}
    studies = []
    for n in config.n_values:
        genuine_table = generate_score_records(models, genuine, n, config.stride)
        thresholds = genuine_score_thresholds(genuine_table, config.threshold_percentile)
        studies.append(
            intrusion_study(models, test_obs, n, thresholds, config.seed, config.segment)
        )
    for study in studies:
        if not any(row.detected for row in study.rows):
            print(
                f"warning: {method} at n={study.n} detected none of the "
                f"{len(study.rows)} intrusion pairs",
                file=sys.stderr,
            )
    write_intrusion_curve_csv(studies, out / "intrusion_curve.csv")
    write_latency_csv(studies, out / "latency.csv")
    write_manifest(config, "intrude", out)
    n_pairs = len(studies[0].rows) if studies else 0
    print(f"ran {len(studies)} window length(s) x {n_pairs} pairs with {method}; reports in {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 1 on usage errors, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="appauth",
        description="App-usage continuous-authentication experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON experiment config file")
        p.add_argument("--method", choices=METHOD_TAGS, help="restrict to one method")
        p.add_argument("--n", type=int, help="restrict to one window length")
        p.add_argument("--period", type=int, help="restrict to one sampling period (s)")
        p.add_argument("--seed", type=int, help="override the experiment seed")
        p.add_argument("--out", help="output directory")

    for name, help_text in [
        ("synth", "generate a synthetic cohort event log"),
        ("ingest", "parse, sessionize and encode an event log"),
        ("train", "train per-user models"),
        ("eval", "run the EER evaluation grid"),
        ("stats", "dataset statistics reports"),
        ("intrude", "intrusion-splice latency experiment"),
    ]:
        p = sub.add_parser(name, help=help_text)
        common(p)
    p_score = sub.add_parser("score", help="score a sequence file against a saved model")
    common(p_score)
    p_score.add_argument("--model", required=True, help="model .npz file")
    p_score.add_argument("--sequence", required=True, help="sequence CSV to score")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = apply_overrides(load_config(args.config), args)
        if args.command == "synth":
            return cmd_synth(config)
        if args.command == "ingest":
            return cmd_ingest(config)
        if args.command == "train":
            return cmd_train(config)
        if args.command == "score":
            return cmd_score(config, args.model, args.sequence)
        if args.command == "eval":
            return cmd_eval(config)
        if args.command == "stats":
            return cmd_stats(config)
        if args.command == "intrude":
            return cmd_intrude(config)
        parser.error(f"unknown command {args.command!r}")
    except (FormatError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (FloatingPointError, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
