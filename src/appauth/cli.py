"""Command-line front end: reproducible experiment runs from a JSON config.

Subcommands cover the full pipeline — synthesize a cohort, ingest raw
events into symbol sequences, train per-user models, score sequences
against a model, run the EER evaluation grid, emit dataset statistics, and
replay intrusion splices. `main` owns the run: it creates the output
directory, dispatches the command, and after it succeeds writes a manifest
capturing the configuration hash and library versions, so identical configs
reproduce identical outputs byte for byte.
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
from typing import Iterator, Mapping, Sequence

import numpy as np

from . import __version__
from .encode import KIND_APP, read_sequence_csv, write_sequence_csv
from .evaluation import (
    DEFAULT_MIN_TEST,
    DEFAULT_MIN_TRAIN,
    DEFAULT_TRAIN_FRACTION,
    PreparedUser,
    accuracy,
    confusion_counts,
    eer_threshold,
    evaluate_methods,
    f1,
    format_number,
    generate_score_records,
    overlap_matrix,
    prepare_cohort,
    roc_curve,
    sensitivity,
    specificity,
    top_apps_report,
    train_cohort_models,
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
    RawEvent,
    group_by_user,
    parse_event_log,
    write_csv,
    write_event_log,
)
from .models import METHOD_TAGS, TrainConfig, load_model, save_model
from .simulate import (
    DEFAULT_SEGMENT,
    DEFAULT_THRESHOLD_PERCENTILE,
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


@dataclass(frozen=True, slots=True)
class ExperimentConfig(TrainConfig):
    """Everything a run needs; JSON-serializable and hashable. The training
    fields (delta, n_states, max_iter, tol, seed) are TrainConfig's own."""

    data: str | None = None  # event-log CSV path; None -> synthetic
    synthetic: CohortSpec = field(default_factory=CohortSpec)
    periods: tuple[int, ...] = DEFAULT_PERIODS
    n_values: tuple[int, ...] = DEFAULT_N_VALUES
    train_fraction: float = DEFAULT_TRAIN_FRACTION
    methods: tuple[str, ...] = METHOD_TAGS
    stride: int = 1
    out: str = "results"
    idle_gap: float = DEFAULT_IDLE_GAP
    min_train: int = DEFAULT_MIN_TRAIN
    min_test: int = DEFAULT_MIN_TEST
    segment: int = DEFAULT_SEGMENT
    threshold_percentile: float = DEFAULT_THRESHOLD_PERCENTILE

    def __post_init__(self) -> None:
        # zero-argument super() fails in a slots dataclass
        TrainConfig.__post_init__(self)
        if not self.periods or not self.n_values or not self.methods:
            raise ValueError("periods, n_values and methods must be non-empty")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")
        for name in ("periods", "n_values", "methods"):
            if len(set(getattr(self, name))) < len(getattr(self, name)):
                raise ValueError(f"{name} has a repeated entry")
        least = {"periods": 1, "n_values": 1, "stride": 1, "segment": 1, "min_train": 0, "min_test": 0}
        for name, floor in least.items():
            if np.min(getattr(self, name)) < floor:
                raise ValueError(f"{name} must be >= {floor}")
        for m in self.methods:
            if m not in METHOD_TAGS:
                raise ValueError(f"unknown method {m!r}; expected one of {METHOD_TAGS}")
        # the comparisons fail on NaN, so NaN is rejected too
        if not 0.0 <= self.threshold_percentile <= 100.0:
            raise ValueError("threshold_percentile must be in [0, 100]")
        if not 0.0 < self.idle_gap < float("inf"):
            raise ValueError("idle_gap must be positive and finite")

    def to_json(self) -> dict:
        return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()}

    @classmethod
    def from_json(cls, payload: Mapping) -> "ExperimentConfig":
        return cls(**config_kwargs(cls, payload, "config"))

    def config_hash(self) -> str:
        canonical = json.dumps(self.to_json(), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def load_config(path: str | None) -> ExperimentConfig:
    if path is None:
        return ExperimentConfig()
    with open(path, "r", encoding="utf-8-sig") as fh:  # with or without a BOM
        return ExperimentConfig.from_json(json.load(fh))


def apply_overrides(config: ExperimentConfig, args: argparse.Namespace) -> ExperimentConfig:
    updates: dict = {}
    if getattr(args, "method", None) is not None:
        updates["methods"] = (args.method,)
    if getattr(args, "n", None) is not None:
        updates["n_values"] = (args.n,)
    if getattr(args, "period", None) is not None:
        updates["periods"] = (args.period,)
    if getattr(args, "seed", None) is not None:
        updates["seed"] = args.seed
    if getattr(args, "out", None) is not None:
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


def _load_cohort(config: ExperimentConfig) -> dict[str, list[RawEvent]]:
    if config.data is not None:
        events, report = parse_event_log(config.data)
        if report.errors:
            log.warning("%d malformed rows dropped while parsing %s", len(report.errors), config.data)
        return group_by_user(events)
    return make_cohort(config.synthetic)


def _cohorts(config: ExperimentConfig) -> Iterator[tuple[int, dict[str, PreparedUser]]]:
    """(period, cohort prepared at that period) for each configured period,
    in order, from one read of the input. The events are released once the
    last period is prepared, before it is yielded. The generator keeps no
    cohort it has yielded, so the caller decides how long each one lives."""
    events = [_load_cohort(config)]
    for period in config.periods:
        yield period, prepare_cohort(
            # the last period (periods are distinct) pops the events, so
            # prepare_cohort holds their last reference
            events.pop() if period == config.periods[-1] else events[0],
            period,
            train_fraction=config.train_fraction,
            idle_gap=config.idle_gap,
            min_train=config.min_train,
            min_test=config.min_test,
        )


def _first_period_cohort(config: ExperimentConfig, min_users: int) -> dict[str, PreparedUser]:
    """The cohort prepared at the first sampling period; fewer than
    `min_users` eligible users is a data error."""
    period, prepared = next(_cohorts(config))
    if len(prepared) < min_users:
        raise ValueError(
            f"need at least {min_users} eligible user(s) at period {period}s, found {len(prepared)}"
        )
    return prepared


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(config: ExperimentConfig, out: Path) -> None:
    cohort = make_cohort(config.synthetic)
    rows = [ev for user in sorted(cohort) for ev in cohort[user]]
    write_event_log(rows, out / "events.csv")
    print(f"wrote {len(rows)} events for {len(cohort)} users to {out / 'events.csv'}")


def cmd_ingest(config: ExperimentConfig, out: Path) -> None:
    report: dict = {"periods": {}}
    # No name here holds a cohort, or a row of one, while `_cohorts`
    # prepares the next one.
    for period, prepared in _cohorts(config):
        report["periods"][str(period)] = _ingest_period(prepared, period, out)
        del prepared
    _write_json(out / "ingest_report.json", report)
    print(f"ingested {len(config.periods)} period(s) into {out}")


def _ingest_period(prepared: dict[str, PreparedUser], period: int, out: Path) -> dict:
    """Write one period's train and test sequence CSVs and return its
    report entry."""
    train_rows = []
    test_rows = []
    for user in sorted(prepared):
        p = prepared[user]
        train_rows.extend(zip(repeat(user), p.train_timestamps.tolist(), p.train_observations))
        test_rows.extend(zip(repeat(user), p.test_timestamps.tolist(), p.test_observations))
    write_sequence_csv(train_rows, out / f"train_period{period}.csv")
    write_sequence_csv(test_rows, out / f"test_period{period}.csv")
    return {
        "eligible_users": sorted(prepared),
        "train_symbols": {u: int(prepared[u].train_indices.size) for u in sorted(prepared)},
        "test_symbols": {u: len(prepared[u].test_observations) for u in sorted(prepared)},
    }


def cmd_train(config: ExperimentConfig, out: Path) -> None:
    prepared = _first_period_cohort(config, 1)
    model_dir = out / "models"
    model_dir.mkdir(exist_ok=True)
    trained = train_cohort_models(config.methods, prepared, config)
    for method, models in trained.items():
        for user, model in models.items():
            save_model(model, model_dir / f"{user}.{method}.npz", user)
    total = len(prepared) * len(config.methods)
    print(f"trained {total} models ({len(prepared)} users x {len(config.methods)} methods) in {model_dir}")


def cmd_score(config: ExperimentConfig, out: Path, model_path: str, sequence_path: str) -> None:
    model, owner = load_model(model_path)
    rows = read_sequence_csv(sequence_path)
    by_owner: dict[str, list] = {}
    for seq_owner, _, obs in rows:
        by_owner.setdefault(seq_owner, []).append(obs)
    projections = {(owner, wo): model.vocab.project(obs) for wo, obs in by_owner.items()}
    table = generate_score_records({owner: model}, projections, config.n_values[0], config.stride)
    write_scores_csv(table, out / "scores.csv")
    print(f"wrote {len(table)} scores to {out / 'scores.csv'}")


def cmd_eval(config: ExperimentConfig, out: Path) -> None:
    shape = (len(config.n_values), len(config.periods))
    grids = {m: np.full(shape, np.nan) for m in config.methods}
    metric_rows = ["method,n,period,threshold,eer,sensitivity,specificity,accuracy,f1".split(",")]
    report = True
    # No name here holds a cohort while `_cohorts` prepares the next one.
    for period, prepared in _cohorts(config):
        if len(prepared) < 2:
            log.warning("period %ds: fewer than 2 eligible users; skipping column", period)
            del prepared
            continue
        j = config.periods.index(period)
        tables = evaluate_methods(config.methods, prepared, config.n_values, config, config.stride)
        del prepared
        # One sweep per table: the grid takes its EER, and the first scored
        # period also reports metrics and curves. Each curve is dropped before
        # the next sweep, and the tables before the next period is scored.
        for (method, n), table in tables.items():
            if not table:
                continue
            i = config.n_values.index(n)
            curve = roc_curve(table)
            eer, thr = eer_threshold(curve)
            grids[method][i, j] = eer
            if report and i == 0:
                write_scores_csv(table, out / f"scores_{method}.csv")
                write_roc_csv(curve, out / f"roc_{method}.csv")
            del curve
            if report:
                cc = confusion_counts(table, thr)
                values = (thr, eer, sensitivity(cc), specificity(cc), accuracy(cc), f1(cc))
                metric_rows.append([method, str(n), str(period), *map(format_number, values)])
        del tables, table
        report = False

    write_csv(out / "metrics.csv", metric_rows)
    for method in config.methods:
        write_eer_grid_csv(
            config.n_values, config.periods, grids[method], out / f"eer_grid_{method}.csv"
        )
    print(f"wrote EER grids for {len(config.methods)} method(s) to {out}")


def cmd_stats(config: ExperimentConfig, out: Path) -> None:
    prepared = _first_period_cohort(config, 2)
    vocabs = {u: p.vocab for u, p in prepared.items()}
    users, app_m = overlap_matrix({u: v.apps for u, v in vocabs.items()})
    write_similarity_csv(users, app_m, out / "similarity_app.csv")
    # markers are left out: they are shared structure, not behaviour
    users, obs_m = overlap_matrix(
        {u: {o for o in p.train_observations if o.kind == KIND_APP} for u, p in prepared.items()}
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
    print(f"wrote similarity, unknown-app and top-app reports to {out}")


def cmd_intrude(config: ExperimentConfig, out: Path) -> None:
    method = "mshmm" if "mshmm" in config.methods else config.methods[0]
    prepared = _first_period_cohort(config, 2)
    models = train_cohort_models([method], prepared, config)[method]
    test_obs = {u: p.test_observations for u, p in prepared.items()}
    genuine = {(u, u): models[u].vocab.project(test_obs[u]) for u in models}
    studies = []
    for n in config.n_values:
        genuine_table = generate_score_records(models, genuine, n, config.stride)
        thresholds = genuine_score_thresholds(genuine_table, config.threshold_percentile)
        study = intrusion_study(models, test_obs, n, thresholds, config.seed, config.segment)
        if not any(row.detected for row in study.rows):
            print(
                f"warning: {method} at n={n} detected none of the "
                f"{len(study.rows)} intrusion pairs",
                file=sys.stderr,
            )
        studies.append(study)
    write_intrusion_curve_csv(studies, out / "intrusion_curve.csv")
    write_latency_csv(studies, out / "latency.csv")
    n_pairs = len(studies[0].rows)
    print(f"ran {len(studies)} window length(s) x {n_pairs} pairs with {method}; reports in {out}")


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
    overrides = {
        "method": {"choices": METHOD_TAGS, "help": "restrict to one method"},
        "n": {"type": int, "help": "restrict to one window length"},
        "period": {"type": int, "help": "restrict to one sampling period (s)"},
        "seed": {"type": int, "help": "override the training seed"},
    }
    # each command takes only the overrides it reads; any other is a usage error
    for name, flags, help_text in [
        ("synth", (), "generate a synthetic cohort event log"),
        ("ingest", ("period",), "parse, sessionize and encode an event log"),
        ("train", ("method", "period", "seed"), "train per-user models"),
        ("eval", tuple(overrides), "run the EER evaluation grid"),
        ("stats", ("period",), "dataset statistics reports"),
        ("intrude", tuple(overrides), "intrusion-splice latency experiment"),
        ("score", ("n",), "score a sequence file against a saved model"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON experiment config file")
        for flag in flags:
            p.add_argument(f"--{flag}", **overrides[flag])
        p.add_argument("--out", help="output directory")
        if name == "score":
            p.add_argument("--model", required=True, help="model .npz file")
            p.add_argument("--sequence", required=True, help="sequence CSV to score")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = apply_overrides(load_config(args.config), args)
        # built per call: it reads each cmd_* when run, so a wrapper that a
        # profiler installs on the module after import is the one dispatched
        commands = {
            "synth": cmd_synth,
            "ingest": cmd_ingest,
            "train": cmd_train,
            "score": lambda c, o: cmd_score(c, o, args.model, args.sequence),
            "eval": cmd_eval,
            "stats": cmd_stats,
            "intrude": cmd_intrude,
        }
        out = Path(config.out)
        out.mkdir(parents=True, exist_ok=True)
        commands[args.command](config, out)
        # only a run that succeeded gets a manifest
        write_manifest(config, args.command, out)
        return EXIT_OK
    except (ValueError, OSError) as exc:  # FormatError and FileNotFoundError too
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ArithmeticError as exc:  # FloatingPointError too
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
