"""End-to-end checks of the command-line pipeline."""

from __future__ import annotations

import csv
import io
import json
import math
import os
import shutil
import time
import warnings
import weakref
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from conftest import hostile_event_log
from appauth import cli, evaluation
from appauth.cli import (
    EXIT_DATA,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    ExperimentConfig,
    load_config,
    main,
)
from appauth.encode import KIND_APP, encode_sessions
from appauth.ingest import (
    EVENT_LOG_HEADER,
    parse_event_log,
    resample_sessions,
    sessionize,
    split_sessions,
    write_csv,
    write_event_log,
)
from appauth.models import METHOD_TAGS, MarkovChainModel, load_model
from appauth.simulate import CohortSpec, make_cohort

TINY = {
    "synthetic": {
        "n_users": 3,
        "days": 6,
        "overlap": 0.5,
        "apps_per_user": 8,
        "session_rate": 6.0,
        "session_length": 300.0,
        "dwell": 60.0,
        "concentration": 0.5,
        "context_spread": 1.0,
        "seed": 7,
    },
    "periods": [30],
    "n_values": [5],
    "methods": list(METHOD_TAGS),
    "n_states": 3,
    "max_iter": 4,
    "seed": 7,
    "stride": 7,
    "segment": 40,
    "min_train": 50,
    "min_test": 30,
}

USERS = ["user00", "user01", "user02"]


def write_config(root: Path, **extra) -> Path:
    payload = dict(TINY, **extra)
    path = root / "config.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory) -> tuple[Path, Path]:
    root = tmp_path_factory.mktemp("cli")
    out = root / "run"
    cfg = write_config(root, out=str(out))
    manifests = root / "manifests"  # a copy of each command's manifest.json
    manifests.mkdir()
    for command in ["synth", "ingest", "train", "eval", "stats", "intrude"]:
        assert main([command, "--config", str(cfg)]) == EXIT_OK, command
        shutil.copy(out / "manifest.json", manifests / f"{command}.json")
    code = main(
        [
            "score",
            "--config",
            str(cfg),
            "--model",
            str(out / "models" / "user00.mshmm.npz"),
            "--sequence",
            str(out / "test_period30.csv"),
        ]
    )
    assert code == EXIT_OK
    shutil.copy(out / "manifest.json", manifests / "score.json")
    return out, cfg


def test_pipeline_writes_expected_artifacts(pipeline):
    out, _ = pipeline
    expected = [
        "events.csv",
        "train_period30.csv",
        "test_period30.csv",
        "ingest_report.json",
        "metrics.csv",
        "similarity_app.csv",
        "similarity_obs.csv",
        "unknown_stats.csv",
        "top_apps.csv",
        "intrusion_curve.csv",
        "latency.csv",
        "scores.csv",
        "manifest.json",
    ]
    for method in METHOD_TAGS:
        expected += [f"eer_grid_{method}.csv", f"scores_{method}.csv", f"roc_{method}.csv"]
    for name in expected:
        assert (out / name).is_file(), name
    models = sorted(p.name for p in (out / "models").iterdir())
    assert models == sorted(f"{u}.{m}.npz" for u in USERS for m in METHOD_TAGS)


def test_ingest_report_lists_eligible_users(pipeline):
    out, _ = pipeline
    report = json.loads((out / "ingest_report.json").read_text(encoding="utf-8"))
    assert list(report["periods"]) == ["30"]
    entry = report["periods"]["30"]
    assert entry["eligible_users"] == USERS
    for user in USERS:
        assert entry["train_symbols"][user] >= TINY["min_train"]
        assert entry["test_symbols"][user] >= TINY["min_test"]


def test_ingest_csv_carries_encoded_timestamps(pipeline):
    out, _ = pipeline
    cohort = make_cohort(CohortSpec(**TINY["synthetic"]))
    for user in USERS:
        resampled = resample_sessions(sessionize(cohort[user]), TINY["periods"][0])
        split = split_sessions(resampled, ExperimentConfig().train_fraction)
        for name, sessions in [("train", split.train), ("test", split.test)]:
            with open(out / f"{name}_period30.csv", encoding="utf-8", newline="") as fh:
                rows = [r for r in csv.DictReader(fh) if r["owner"] == user]
            times = [int(r["timestamp"]) for r in rows]
            assert times == sorted(times)
            encoded = encode_sessions(sessions)
            assert times == [ts for ts, _ in encoded]
            assert [r["symbol"] for r in rows] == [obs.to_text() for _, obs in encoded]


def test_stats_observation_overlap_leaves_out_markers(pipeline, tmp_path):
    out, _ = pipeline
    prepared = cli._first_period_cohort(ExperimentConfig.from_json(TINY), 2)

    def similarity_csv(keep) -> str:
        sets = {u: {o for o in p.train_observations if keep(o)} for u, p in prepared.items()}
        path = tmp_path / "similarity.csv"
        evaluation.write_similarity_csv(*evaluation.overlap_matrix(sets), path)
        return path.read_text(encoding="utf-8")

    written = (out / "similarity_obs.csv").read_text(encoding="utf-8")
    assert written == similarity_csv(lambda o: o.kind == KIND_APP)
    assert written != similarity_csv(lambda o: True)


def test_manifest_has_config_hash_and_no_timestamps(pipeline):
    out, cfg = pipeline
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert set(manifest) == {"command", "config", "config_hash", "versions"}
    assert manifest["command"] == "score"  # last command the fixture ran
    config = ExperimentConfig.from_json(json.loads(Path(cfg).read_text(encoding="utf-8")))
    assert manifest["config_hash"] == config.config_hash()
    assert manifest["config"] == config.to_json()
    assert set(manifest["versions"]) == {"python", "numpy", "appauth"}


def test_each_command_writes_its_own_manifest(pipeline, tmp_path):
    out, cfg = pipeline
    config_hash = load_config(str(cfg)).config_hash()
    for command in ["synth", "ingest", "train", "score", "eval", "stats", "intrude"]:
        path = out.parent / "manifests" / f"{command}.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        assert (manifest["command"], manifest["config_hash"]) == (command, config_hash)
    # a command that fails writes none, though its output directory exists
    failing = write_config(tmp_path, out=str(tmp_path / "o"), min_train=10**6)
    assert main(["train", "--config", str(failing)]) == EXIT_DATA
    assert (tmp_path / "o").is_dir() and not (tmp_path / "o" / "manifest.json").exists()


def test_metrics_csv_header_and_rows(pipeline):
    out, _ = pipeline
    lines = (out / "metrics.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "method,n,period,threshold,eer,sensitivity,specificity,accuracy,f1"
    assert len(lines) == 1 + len(METHOD_TAGS)  # one n, one period
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[0] in METHOD_TAGS
        assert int(fields[1]) == 5 and int(fields[2]) == 30
        for value in fields[3:]:
            float(value)


def test_eer_grid_shape(pipeline):
    out, _ = pipeline
    lines = (out / "eer_grid_mshmm.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "n,period_30"
    assert len(lines) == 2
    n, eer = lines[1].split(",")
    assert int(n) == 5
    assert 0.0 <= float(eer) <= 100.0


def test_score_output_covers_genuine_and_impostor_windows(pipeline):
    out, _ = pipeline
    with open(out / "scores.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    assert {r["model_owner"] for r in rows} == {"user00"}
    owners = {r["window_owner"] for r in rows}
    assert "user00" in owners and len(owners) == len(USERS)


def test_latency_csv_rows_cover_all_pairs(pipeline):
    out, _ = pipeline
    lines = (out / "latency.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "model_owner,intruder,n,latency_windows,detected"
    assert len(lines) == 1 + len(USERS) * (len(USERS) - 1)  # one n value
    for line in lines[1:]:
        owner, intruder, n, latency, detected = line.split(",")
        assert owner != intruder
        assert int(n) == 5
        assert detected in {"0", "1"}
        assert (latency == "") == (detected == "0")


def test_intrusion_curve_window_indices(pipeline):
    out, _ = pipeline
    lines = (out / "intrusion_curve.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "n,window_index,mean_score"
    rows = [line.split(",") for line in lines[1:]]
    indices = [int(r[1]) for r in rows]
    # Splicing two segment-length halves yields 2*segment - n + 1 windows.
    assert indices == list(range(4, 2 * TINY["segment"]))


def test_intrude_skips_owner_without_threshold(tmp_path, caplog):
    # user02 has 53 test symbols: enough for a 48-symbol segment, too few
    # for one genuine window of 58, so it gets no threshold.
    cfg = write_config(tmp_path, out=str(tmp_path / "o"), n_values=[58], segment=48)
    assert main(["intrude", "--config", str(cfg)]) == EXIT_OK
    assert "skipping user02 as genuine: no decision threshold" in caplog.text
    with open(tmp_path / "o" / "latency.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and "user02" not in {r["model_owner"] for r in rows}
    assert "user02" in {r["intruder"] for r in rows}


def test_intrude_window_longer_than_splice_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, out=str(tmp_path / "o"), n_values=[50], segment=20)
    assert main(["intrude", "--config", str(cfg)]) == EXIT_DATA
    assert "window length n=50 exceeds the 2 x segment=20" in capsys.readouterr().err


def test_intrude_warns_when_no_pair_is_detected(tmp_path, capsys):
    # Synthetic seed 3 at n=20: every user rejects over 5% of its own
    # windows under the 0/1 bin-unk rule, so every 5th-percentile threshold
    # is 0 and `score < threshold` never fires.
    synthetic = dict(TINY["synthetic"], seed=3)
    cfg = write_config(
        tmp_path, out=str(tmp_path / "o"), synthetic=synthetic, methods=["bin-unk"], n_values=[20]
    )
    assert main(["intrude", "--config", str(cfg)]) == EXIT_OK
    err = capsys.readouterr().err
    assert "warning: bin-unk at n=20 detected none of the 6 intrusion pairs" in err
    with open(tmp_path / "o" / "latency.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6 and {r["detected"] for r in rows} == {"0"}

    cfg = write_config(tmp_path, out=str(tmp_path / "mshmm"), synthetic=synthetic, n_values=[20])
    assert main(["intrude", "--config", str(cfg)]) == EXIT_OK
    assert "detected none" not in capsys.readouterr().err


def test_eval_rerun_is_byte_identical(pipeline, tmp_path):
    out, _ = pipeline
    cfg = write_config(tmp_path, out=str(tmp_path / "run2"))
    assert main(["eval", "--config", str(cfg)]) == EXIT_OK
    for name in ["metrics.csv", "eer_grid_mshmm.csv", "scores_bin-unk.csv", "roc_med.csv"]:
        assert (tmp_path / "run2" / name).read_bytes() == (out / name).read_bytes()


PINNED = Path(__file__).parent / "data" / "cli_tiny"


def test_reports_match_pinned_outputs(pipeline):
    # written by tests/data/make_cli_outputs.py from the same TINY config
    out, _ = pipeline
    names = ["metrics.csv", "latency.csv", "intrusion_curve.csv", "scores.csv"]
    names += [f"{kind}_{m}.csv" for m in METHOD_TAGS for kind in ("scores", "eer_grid", "roc")]
    names += ["similarity_app.csv", "similarity_obs.csv", "unknown_stats.csv", "top_apps.csv"]
    names += ["ingest_report.json"]
    assert sorted(p.name for p in PINNED.iterdir()) == sorted(names)
    for name in names:
        assert (out / name).read_bytes() == (PINNED / name).read_bytes(), name


def test_usage_errors_exit_1(capsys):
    for argv in [["synth", "--method", "bogus"], [], ["score", "--config", "x.json"]]:
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == EXIT_USAGE
        assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "synthetic",
    [
        {"n_users": 10, "days": 2, "context_spread": 300.0},
        dict(TINY["synthetic"], context_spread=1000.0),
        # a base preference of exactly 0 meets an infinite tilt: 0 * inf
        {"n_users": 10, "days": 2, "concentration": 0.01, "context_spread": 1000.0, "seed": 1},
        # the one tilt of a one-app pool underflows to 0 in a context
        {"n_users": 1, "apps_per_user": 1, "context_spread": 400.0, "seed": 1},
    ],
)
def test_too_large_context_spread_exits_2(tmp_path, capsys, synthetic):
    cfg = write_config(tmp_path, out=str(tmp_path / "o"), synthetic=synthetic)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warnings included
        assert main(["synth", "--config", str(cfg)]) == EXIT_DATA
    spread = synthetic["context_spread"]
    err = capsys.readouterr().err
    assert f"data error: context_spread={spread} is too large: a context preference of user" in err


def test_missing_event_log_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, out=str(tmp_path / "o"), data=str(tmp_path / "absent.csv"))
    assert main(["ingest", "--config", str(cfg)]) == EXIT_DATA
    assert "data error" in capsys.readouterr().err


def test_unusable_paths_exit_2(pipeline, tmp_path, capsys):
    out, cfg = pipeline
    a_file = tmp_path / "a_file"
    a_file.write_text("", encoding="utf-8")
    data_is_dir = str(write_config(tmp_path, data=str(tmp_path)))
    o = str(tmp_path / "o")
    score = ["--model", str(tmp_path), "--sequence", str(out / "test_period30.csv")]
    for argv in [
        ["ingest", "--config", data_is_dir, "--out", o],  # "data" names a directory
        ["ingest", "--config", str(cfg), "--out", str(a_file)],  # --out names a file
        ["score", "--config", str(cfg), "--out", o, *score],  # --model names a directory
    ]:
        assert main(argv) == EXIT_DATA, argv
        assert "data error:" in capsys.readouterr().err, argv
    assert not (tmp_path / "o" / "manifest.json").exists()


def test_malformed_sequence_file_exits_2(pipeline, tmp_path, capsys):
    out, cfg = pipeline
    bad = tmp_path / "bad.csv"
    # an unknown app is a projected index, never a symbol of the file
    unknown = "owner,timestamp,symbol\nuser00,0,psi\nuser00,30,unk:TZ1:WD\n"
    for text, message in [
        ("who,when,what\nuser00,0,psi\n", "data error"),
        (unknown, "line 3: unparseable symbol 'unk:TZ1:WD'"),
    ]:
        bad.write_text(text, encoding="utf-8")
        code = main(
            [
                "score",
                "--config",
                str(cfg),
                "--out",
                str(tmp_path / "o"),
                "--model",
                str(out / "models" / "user00.mc.npz"),
                "--sequence",
                str(bad),
            ]
        )
        assert code == EXIT_DATA
        assert message in capsys.readouterr().err


def test_oversized_csv_field_exits_2(pipeline, tmp_path, capsys):
    out, cfg = pipeline
    huge = "x" * 200_000  # over the csv module's 131 072-character field limit
    events = tmp_path / "events.csv"
    rows = f"u1,0,unlock,\nu1,1,app,{huge}\n"
    events.write_text("user_id,local_timestamp,kind,app_id\n" + rows, encoding="utf-8")
    sequence = tmp_path / "seq.csv"
    rows = f"user00,0,psi\nuser00,30,{huge}\n"
    sequence.write_text("owner,timestamp,symbol\n" + rows, encoding="utf-8")
    model = str(out / "models" / "user00.mc.npz")
    o = str(tmp_path / "o")
    for argv in [
        ["ingest", "--config", str(write_config(tmp_path, data=str(events))), "--out", o],
        ["score", "--config", str(cfg), "--out", o, "--model", model, "--sequence", str(sequence)],
    ]:
        assert main(argv) == EXIT_DATA, argv
        assert "line 3: field larger than field limit" in capsys.readouterr().err, argv


def score_tampered(pipeline, tmp_path, method: str, array: str | None, meta=None) -> int:
    """Exit code of `appauth score` on user00's model with one NaN entry in
    `array`, or with its metadata replaced by `meta(metadata)`."""
    out, _ = pipeline
    with np.load(out / "models" / f"user00.{method}.npz", allow_pickle=False) as payload:
        arrays = {k: payload[k] for k in payload.files}
    if array is not None:
        arrays[array][0, 0] = np.nan
    if meta is not None:
        arrays["meta"] = np.array(json.dumps(meta(json.loads(str(arrays["meta"])))))
    tampered = tmp_path / f"user00.{method}.npz"
    np.savez(tampered, **arrays)
    return score_file(pipeline, tmp_path, tampered)


def score_file(pipeline, tmp_path, model: Path) -> int:
    """Exit code of `appauth score` on the model file `model`."""
    out, cfg = pipeline
    return main(
        [
            "score",
            "--config",
            str(cfg),
            "--out",
            str(tmp_path / "o"),
            "--model",
            str(model),
            "--sequence",
            str(out / "test_period30.csv"),
        ]
    )


def test_tampered_model_exits_2(pipeline, tmp_path, capsys):
    assert score_tampered(pipeline, tmp_path, "mc", "transition") == EXIT_DATA
    assert "finite and positive" in capsys.readouterr().err
    # wrongly typed metadata is a data error too, not a TypeError traceback
    code = score_tampered(pipeline, tmp_path, "hmm-lap", None, lambda m: {**m, "training": "x"})
    assert code == EXIT_DATA
    assert "malformed hmm-lap metadata" in capsys.readouterr().err
    # a trace whose iteration count disagrees with its log-likelihoods
    def miscounted(meta):
        training = meta["training"]
        return {**meta, "training": {**training, "iterations": training["iterations"] + 2}}

    assert score_tampered(pipeline, tmp_path, "hmm-lap", None, miscounted) == EXIT_DATA
    assert "iterations" in capsys.readouterr().err
    # files that are not .npz containers at all: empty, cut short, a plain array
    container = (pipeline[0] / "models" / "user00.mc.npz").read_bytes()
    np.save(tmp_path / "plain.npy", np.arange(3))
    for name, payload in (
        ("empty.npz", b""),
        ("truncated.npz", container[: len(container) // 2]),
        ("plain.npy", (tmp_path / "plain.npy").read_bytes()),
    ):
        (tmp_path / name).write_bytes(payload)
        assert score_file(pipeline, tmp_path, tmp_path / name) == EXIT_DATA, name
        assert f"{name}: not an .npz container" in capsys.readouterr().err


def test_corrupt_model_file_exits_2(pipeline, tmp_path, capsys):
    """One flipped byte inside a member of a model file fails that member's
    CRC when it is read: a data error naming the file, not a traceback."""
    corrupt = bytearray((Path(__file__).parent / "data" / "model.mc.npz").read_bytes())
    corrupt[200] ^= 0xFF  # inside meta.npy
    (tmp_path / "corrupt.npz").write_bytes(corrupt)
    assert score_file(pipeline, tmp_path, tmp_path / "corrupt.npz") == EXIT_DATA
    err = capsys.readouterr().err
    assert "data error" in err and "corrupt.npz: not an .npz container" in err
    assert "Bad CRC-32 for file 'meta.npy'" in err and "Traceback" not in err


def test_tampered_mshmm_model_exits_2(pipeline, tmp_path, capsys):
    assert score_tampered(pipeline, tmp_path, "mshmm", "p_app_tz") == EXIT_DATA
    assert "finite and non-negative" in capsys.readouterr().err


def test_non_finite_scores_exit_3(tmp_path, monkeypatch, capsys):
    def nan_scores(self, windows):
        return np.full(len(windows), np.nan)

    monkeypatch.setattr(MarkovChainModel, "score_windows", nan_scores)
    cfg = write_config(tmp_path, out=str(tmp_path / "o"), methods=["mc"])
    assert main(["eval", "--config", str(cfg)]) == EXIT_NUMERIC
    assert "numeric failure" in capsys.readouterr().err


@pytest.mark.parametrize(
    "error, code, message",
    [
        (FloatingPointError, EXIT_NUMERIC, "numeric failure"),
        (ValueError, EXIT_DATA, "data error"),
        # what numpy raises for the arrays of an impossible n_states
        (MemoryError, EXIT_DATA, "data error"),
    ],
)
def test_fit_child_error_keeps_its_exit_code(tmp_path, monkeypatch, capsys, error, code, message):
    # patched before the fork, so the Baum-Welch child raises it
    def failing_fit(*args):
        raise error("fit failed in the child")

    monkeypatch.setattr(evaluation, "baum_welch_cohort", failing_fit)
    cfg = write_config(tmp_path, out=str(tmp_path / "o"), methods=["mc", "hmm-lap"])
    assert main(["eval", "--config", str(cfg)]) == code
    assert f"{message}: fit failed in the child" in capsys.readouterr().err
    monkeypatch.undo()

    # the child also builds the HMM models; only it raises, the parent trains `mc`
    parent, real = os.getpid(), evaluation.train_user_model

    def failing_build(*args, **kwargs):
        if os.getpid() != parent:
            raise error("model build failed in the child")
        return real(*args, **kwargs)

    monkeypatch.setattr(evaluation, "train_user_model", failing_build)
    assert main(["eval", "--config", str(cfg)]) == code
    assert f"{message}: model build failed in the child" in capsys.readouterr().err


def test_scoring_error_terminates_and_reaps_the_fit_child(tmp_path, monkeypatch):
    pid_file = tmp_path / "child.pid"

    def endless_fit(*args):
        (tmp_path / "pid.tmp").write_text(str(os.getpid()))
        os.replace(tmp_path / "pid.tmp", pid_file)
        time.sleep(120)

    def failing_scoring(*args):
        deadline = time.monotonic() + 60
        while not pid_file.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        raise ValueError("scoring failed while the child trains")

    monkeypatch.setattr(evaluation, "baum_welch_cohort", endless_fit)
    monkeypatch.setattr(evaluation, "generate_score_records", failing_scoring)
    cfg = write_config(tmp_path, out=str(tmp_path / "o"), methods=["mc", "hmm-lap"])
    start = time.monotonic()
    assert main(["eval", "--config", str(cfg)]) == EXIT_DATA
    assert time.monotonic() - start < 60
    # reaped, not a zombie: the pid is gone
    with pytest.raises(ProcessLookupError):
        os.kill(int(pid_file.read_text()), 0)


def test_fit_child_that_dies_without_a_result_is_an_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(evaluation, "baum_welch_cohort", lambda *args: os._exit(5))
    cfg = write_config(tmp_path, out=str(tmp_path / "o"), methods=["mc", "mshmm"])
    assert main(["eval", "--config", str(cfg)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert "data error: train_cohort_models child exited with code 5 without a result" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o" / "manifest.json").exists()


def test_memory_error_in_the_parent_exits_2(tmp_path, monkeypatch, capsys):
    """`train` fits in its own process: a MemoryError there, as numpy
    raises it for an impossible n_states, is a data error too."""

    def refused(*args):
        raise MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000, 1000000)")

    monkeypatch.setattr(evaluation, "baum_welch_cohort", refused)
    cfg = write_config(tmp_path, out=str(tmp_path / "o"), methods=["hmm-lap"])
    assert main(["train", "--config", str(cfg)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert "data error: Unable to allocate 7.28 TiB" in err and "Traceback" not in err
    assert not (tmp_path / "o" / "manifest.json").exists()


def test_multi_period_run_loads_input_once(tmp_path, monkeypatch):
    calls = []
    real = cli.make_cohort

    def counting(spec):
        calls.append(spec)
        return real(spec)

    monkeypatch.setattr(cli, "make_cohort", counting)
    cfg = write_config(tmp_path, out=str(tmp_path / "o"), periods=[30, 60], methods=["mc"])
    for command in ("ingest", "eval"):
        calls.clear()
        assert main([command, "--config", str(cfg)]) == EXIT_OK
        assert len(calls) == 1, command


def test_eval_frees_each_period_tables_before_the_next(tmp_path, monkeypatch):
    real = cli.evaluate_methods
    refs: list[weakref.ref] = []
    alive_at_call = []

    def tracking(*args, **kwargs):
        alive_at_call.append(sum(ref() is not None for ref in refs))
        tables = real(*args, **kwargs)
        refs.extend(weakref.ref(s) for t in tables.values() for s in t.scores.values())
        return tables

    monkeypatch.setattr(cli, "evaluate_methods", tracking)
    cfg = write_config(
        tmp_path, out=str(tmp_path / "o"), periods=[30, 60], n_values=[5, 9], methods=["mc", "med"]
    )
    assert main(["eval", "--config", str(cfg)]) == EXIT_OK
    assert alive_at_call == [0, 0]


def test_cohorts_release_the_events_before_the_last_period(tmp_path, monkeypatch):
    class Events(dict):  # a plain dict cannot be weakly referenced
        pass

    real = cli._load_cohort
    refs: list[weakref.ref] = []

    def loading(config):
        events = Events(real(config))
        refs.append(weakref.ref(events))
        return events

    monkeypatch.setattr(cli, "_load_cohort", loading)
    config = load_config(write_config(tmp_path, periods=[30, 60, 90]))
    alive = [(period, refs[0]() is not None) for period, _ in cli._cohorts(config)]
    assert alive == [(30, True), (60, True), (90, False)]


def test_eval_releases_each_period_cohort_before_the_next(tmp_path, monkeypatch):
    """When `prepare_cohort` runs, no earlier period's cohort is reachable:
    neither `_cohorts` nor `cmd_eval` keeps one, also after a period with
    too few eligible users."""

    class Cohort(dict):  # a plain dict cannot be weakly referenced
        pass

    real = cli.prepare_cohort
    refs: list[weakref.ref] = []
    alive_at_call = []

    def tracking(*args, **kwargs):
        alive_at_call.append(sum(ref() is not None for ref in refs))
        cohort = Cohort(real(*args, **kwargs))
        refs.append(weakref.ref(cohort))
        return cohort

    monkeypatch.setattr(cli, "prepare_cohort", tracking)
    cfg = write_config(tmp_path, out=str(tmp_path / "o"), periods=[30, 3000, 60], methods=["mc"])
    assert main(["eval", "--config", str(cfg)]) == EXIT_OK
    assert alive_at_call == [0, 0, 0]


def test_ingest_releases_each_period_cohort_before_the_next(tmp_path, monkeypatch):
    """When `prepare_cohort` runs, no earlier period's cohort is reachable
    from `cmd_ingest`, as in `eval`."""

    class Cohort(dict):  # a plain dict cannot be weakly referenced
        pass

    real = cli.prepare_cohort
    refs: list[weakref.ref] = []
    alive_at_call = []

    def tracking(*args, **kwargs):
        alive_at_call.append(sum(ref() is not None for ref in refs))
        cohort = Cohort(real(*args, **kwargs))
        refs.append(weakref.ref(cohort))
        return cohort

    monkeypatch.setattr(cli, "prepare_cohort", tracking)
    cfg = write_config(tmp_path, out=str(tmp_path / "o"), periods=[30, 3000, 60])
    assert main(["ingest", "--config", str(cfg)]) == EXIT_OK
    assert alive_at_call == [0, 0, 0]


def test_eval_reports_come_from_the_first_scored_period(tmp_path):
    """With too few eligible users at the first period, the metrics, scores
    and ROC files come from the next period, as if it were the only one,
    and a later period does not replace them."""
    methods = ["mc", "bin-unk"]
    runs = {"late": [3000, 30, 60], "only": [30], "none": [3000]}
    for name, periods in runs.items():
        cfg = write_config(tmp_path, out=str(tmp_path / name), periods=periods, methods=methods)
        assert main(["eval", "--config", str(cfg)]) == EXIT_OK
    files = [f"{kind}_{m}.csv" for kind in ("scores", "roc") for m in methods] + ["metrics.csv"]
    for f in files:
        assert (tmp_path / "late" / f).read_bytes() == (tmp_path / "only" / f).read_bytes(), f
    for m in methods:
        late, only = (
            list(csv.reader(io.StringIO((tmp_path / run / f"eer_grid_{m}.csv").read_text())))
            for run in ("late", "only")
        )
        assert [[row[0], row[2]] for row in late] == only
        assert [row[1] for row in late] == ["period_3000", ""]
    # nothing scored: metrics.csv holds only its header, and no table is written
    assert (tmp_path / "none" / "metrics.csv").read_text().splitlines() == [
        "method,n,period,threshold,eer,sensitivity,specificity,accuracy,f1"
    ]
    assert not list((tmp_path / "none").glob("scores_*.csv"))


@pytest.mark.parametrize("n_values", [[100_000, 5], [5, 100_000]])
def test_eval_reports_come_from_the_first_window_length_with_windows(tmp_path, n_values):
    """A window length longer than every test sequence scores no window:
    each method's scores and ROC then come from the next one, as if it
    were the only one, and its grid cell stays empty."""
    methods = ["mc", "bin-unk"]
    for name, ns in (("only", [5]), ("both", n_values)):
        cfg = write_config(tmp_path, out=str(tmp_path / name), n_values=ns, methods=methods)
        assert main(["eval", "--config", str(cfg)]) == EXIT_OK
    files = [f"{kind}_{m}.csv" for kind in ("scores", "roc") for m in methods] + ["metrics.csv"]
    for f in files:
        assert (tmp_path / "both" / f).read_bytes() == (tmp_path / "only" / f).read_bytes(), f
    for m in methods:
        grid = (tmp_path / "both" / f"eer_grid_{m}.csv").read_text(encoding="utf-8").splitlines()
        assert "100000," in grid


def test_app_ids_with_commas_pass_ingest_and_score(tmp_path):
    cohort = make_cohort(CohortSpec(**TINY["synthetic"]))
    # the CSV field separator, and the one of the symbol text in sequence files
    for name, suffix in (("comma", ",beta"), ("colon", ":beta")):
        run = tmp_path / name
        run.mkdir()
        log = run / "events.csv"
        with open(log, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["user_id", "local_timestamp", "kind", "app_id"])
            for user in sorted(cohort):
                for ev in cohort[user]:
                    app_id = f"{ev.app_id}{suffix}" if ev.kind == "app" else ""
                    writer.writerow([ev.user_id, ev.local_timestamp, ev.kind, app_id])
        out = run / "o"
        cfg = write_config(run, out=str(out), data=str(log), methods=["mc"])
        assert main(["ingest", "--config", str(cfg)]) == EXIT_OK
        assert main(["train", "--config", str(cfg)]) == EXIT_OK
        model = out / "models" / "user00.mc.npz"
        assert all(a.endswith(suffix) for a in load_model(model)[0].vocab.apps)
        sequence = out / "test_period30.csv"
        code = main(["score", "--config", str(cfg), "--model", str(model), "--sequence", str(sequence)])
        assert code == EXIT_OK
        with open(out / "scores.csv", newline="") as fh:
            assert len(list(csv.reader(fh))) > 1


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_hostile_event_log_passes_every_command(tmp_path, seed):
    cohort = make_cohort(CohortSpec(**TINY["synthetic"]))
    rows, n_malformed = hostile_event_log(seed, cohort)
    log = tmp_path / "events.csv"
    write_csv(log, rows)
    events, report = parse_event_log(log)
    assert len(report.errors) == n_malformed
    copy = tmp_path / "copy.csv"
    write_event_log(events, copy)
    assert parse_event_log(copy) == (events, replace(report, rows_total=len(events), errors=[]))
    # period 600 leaves no user eligible, so its grid column is empty
    cfg = write_config(tmp_path, out=str(tmp_path / "o"), data=str(log), periods=[30, 600])
    for command in ("ingest", "train", "eval", "stats", "intrude"):
        assert main([command, "--config", str(cfg)]) == EXIT_OK, command
    for method in METHOD_TAGS:
        with open(tmp_path / "o" / f"eer_grid_{method}.csv", encoding="utf-8", newline="") as fh:
            (_, *cells), = list(csv.reader(fh))[1:]
        assert cells[0] and math.isfinite(float(cells[0])) and cells[1] == "", (method, cells)
    # the file path (ingest -> train -> score) gives eval's in-memory scores
    out = tmp_path / "o"
    report = json.loads((out / "ingest_report.json").read_text(encoding="utf-8"))
    eligible = report["periods"]["30"]["eligible_users"]
    assert len(eligible) >= 2
    for method in METHOD_TAGS:
        with open(out / f"scores_{method}.csv", encoding="utf-8", newline="") as fh:
            header, *eval_rows = csv.reader(fh)
        for user in eligible:
            score_out = tmp_path / "score" / f"{user}.{method}"
            model = out / "models" / f"{user}.{method}.npz"
            args = ["--model", str(model), "--sequence", str(out / "test_period30.csv")]
            assert main(["score", "--config", str(cfg), *args, "--out", str(score_out)]) == EXIT_OK
            with open(score_out / "scores.csv", encoding="utf-8", newline="") as fh:
                rows = list(csv.reader(fh))
            assert rows == [header] + [r for r in eval_rows if r[0] == user], (method, user)


def test_timestamp_beyond_int64_is_a_malformed_row(tmp_path):
    cohort = make_cohort(CohortSpec(**TINY["synthetic"]))
    events = [ev for user in sorted(cohort) for ev in cohort[user]]
    rows = [EVENT_LOG_HEADER] + [[e.user_id, e.local_timestamp, e.kind, e.app_id] for e in events]
    # user00 is eligible, so its events reach the int64 arrays of encoding
    app = next(ev.app_id for ev in cohort["user00"] if ev.kind == "app")
    errors, outputs = [], []
    for name, extra in [("plain", []), ("huge", [["user00", 10**20, "app", app]])]:
        run = tmp_path / name
        run.mkdir()
        write_csv(run / "events.csv", rows + extra)
        errors.append(len(parse_event_log(run / "events.csv")[1].errors))
        cfg = write_config(run, out=str(run / "o"), data=str(run / "events.csv"))
        assert main(["ingest", "--config", str(cfg)]) == EXIT_OK, name
        files = sorted((run / "o").iterdir())
        outputs.append({p.name: p.read_bytes() for p in files if p.name != "manifest.json"})
    assert errors[1] == errors[0] + 1
    assert outputs[1] == outputs[0]
    report = json.loads(outputs[0]["ingest_report.json"])
    assert "user00" in report["periods"]["30"]["eligible_users"]


def test_user_id_cannot_put_model_files_outside_models(tmp_path):
    cohort = make_cohort(CohortSpec(**TINY["synthetic"]))
    events = [ev for user in sorted(cohort) for ev in cohort[user]]
    rows = [EVENT_LOG_HEADER] + [[e.user_id, e.local_timestamp, e.kind, e.app_id] for e in events]
    # user00 is eligible, so a copy of its rows would be trained and saved
    escape = [["../escape", e.local_timestamp, e.kind, e.app_id] for e in cohort["user00"]]
    write_csv(tmp_path / "plain.csv", rows)
    write_csv(tmp_path / "events.csv", rows + escape)
    errors = [len(parse_event_log(tmp_path / name)[1].errors) for name in ("plain.csv", "events.csv")]
    assert errors[1] > errors[0]
    cfg = write_config(tmp_path, out=str(tmp_path / "o"), data=str(tmp_path / "events.csv"))
    assert main(["train", "--config", str(cfg)]) == EXIT_OK
    written = sorted(tmp_path.rglob("*.npz"))
    assert written and all(p.parent == tmp_path / "o" / "models" for p in written)


def test_overlong_user_id_is_a_malformed_row(tmp_path):
    cohort = make_cohort(CohortSpec(**TINY["synthetic"]))
    events = [ev for user in sorted(cohort) for ev in cohort[user]]
    rows = [EVENT_LOG_HEADER] + [[e.user_id, e.local_timestamp, e.kind, e.app_id] for e in events]
    # a copy of an eligible user's rows: its model file name would exceed NAME_MAX
    long_id = "u" * 300
    copy = [[long_id, e.local_timestamp, e.kind, e.app_id] for e in cohort["user00"]]
    write_csv(tmp_path / "events.csv", rows + copy)
    assert len(parse_event_log(tmp_path / "events.csv")[1].errors) == len(copy)
    cfg = write_config(tmp_path, out=str(tmp_path / "o"), data=str(tmp_path / "events.csv"))
    assert main(["train", "--config", str(cfg)]) == EXIT_OK
    written = {p.name.split(".")[0] for p in (tmp_path / "o" / "models").iterdir()}
    assert written == set(USERS)


def test_train_with_no_eligible_users_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, out=str(tmp_path / "o"), min_train=10**6)
    assert main(["train", "--config", str(cfg)]) == EXIT_DATA
    assert "need at least 1 eligible user(s) at period" in capsys.readouterr().err


def test_config_json_round_trip():
    config = ExperimentConfig.from_json(TINY)
    assert ExperimentConfig.from_json(config.to_json()) == config
    assert config.config_hash() == ExperimentConfig.from_json(config.to_json()).config_hash()
    assert load_config(None) == ExperimentConfig()


def test_config_rejects_unknown_keys_and_bad_values():
    with pytest.raises(ValueError, match="unknown config keys"):
        ExperimentConfig.from_json({"not_a_field": 1})
    # a value of another JSON type than its field's default names the key
    wrong_types = [
        ("periods", 30),
        ("periods", ["30"]),
        ("n_values", [2.5]),
        ("n_states", "3"),
        ("min_train", "10"),
        ("stride", "5"),
        ("seed", True),
        ("data", 5),
        ("synthetic", 5),
        ("synthetic", {"n_users": "3"}),
    ]
    for key, value in wrong_types:
        with pytest.raises(ValueError, match=key):
            ExperimentConfig.from_json({key: value})
    with pytest.raises(ValueError, match="JSON object"):
        ExperimentConfig.from_json([1, 2])
    # a float field takes an integer, and `data` a string
    config = ExperimentConfig.from_json({"threshold_percentile": 10, "data": "events.csv"})
    assert (config.threshold_percentile, config.data) == (10, "events.csv")
    with pytest.raises(ValueError, match="train_fraction"):
        ExperimentConfig(train_fraction=1.5)
    with pytest.raises(ValueError, match="unknown method"):
        ExperimentConfig(methods=("mshmm", "nope"))
    with pytest.raises(ValueError):
        ExperimentConfig(periods=())
    with pytest.raises(ValueError, match="segment"):
        ExperimentConfig(segment=0)
    nan, inf = float("nan"), float("inf")
    for key, values in [
        ("threshold_percentile", (-0.5, 100.5, nan, inf, -inf)),
        ("idle_gap", (0.0, -5.0, nan, inf)),
    ]:
        for value in values:
            with pytest.raises(ValueError, match=key):
                ExperimentConfig.from_json({key: value})
    # the bounds of the percentile are valid, and a sample minimum of 0 means 1
    ExperimentConfig(threshold_percentile=0.0, idle_gap=1e-3)
    ExperimentConfig(threshold_percentile=100.0, min_train=0, min_test=0)


def test_every_float_field_rejects_nan():
    def float_fields(obj) -> list[str]:
        return [k for k, v in asdict(obj).items() if isinstance(v, float)]

    nan = float("nan")
    cases = [({name: nan}, name) for name in float_fields(ExperimentConfig())]
    cases += [({"synthetic": {name: nan}}, name) for name in float_fields(CohortSpec())]
    assert {"delta", "tol", "idle_gap", "overlap", "session_rate"} <= {k for _, k in cases}
    for payload, name in cases:
        with pytest.raises(ValueError, match=name):
            ExperimentConfig.from_json(payload)


def test_synthetic_key_typo_exits_2(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"synthetic": {"n_user": 3}, "out": str(tmp_path / "o")}))
    assert main(["synth", "--config", str(cfg)]) == EXIT_DATA
    assert "n_user" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    # values of the wrong JSON type exit 2 too
    for payload, key in [
        ({"periods": 30}, "periods"),
        ({"periods": ["30"]}, "periods"),
        ({"n_values": [2.5]}, "n_values"),
        ({"n_states": "3"}, "n_states"),
        ({"min_train": "10"}, "min_train"),
        ({"stride": "5"}, "stride"),
        ({"synthetic": 5}, "synthetic"),
        ({"synthetic": {"n_users": "3"}}, "n_users"),
        ([1, 2], "JSON object"),
        # training values are checked when the config loads
        ({"delta": 5.0}, "delta"),
        ({"n_states": 0}, "n_states"),
        ({"max_iter": 0}, "max_iter"),
        ({"tol": -1}, "tol"),
        ({"tol": float("nan")}, "tol"),
        ({"seed": -1}, "seed"),
        ({"min_train": -5}, "min_train"),
        ({"min_test": -1}, "min_test"),
        # grid values are checked when the config loads too
        ({"periods": [0]}, "periods"),
        ({"n_values": [20, 0]}, "n_values"),
        ({"stride": 0}, "stride"),
        ({"periods": [30, 30]}, "periods"),
        ({"n_values": [20, 20]}, "n_values"),
        ({"methods": ["mc", "mc"]}, "methods"),
        ({"threshold_percentile": 150}, "threshold_percentile"),
        ({"threshold_percentile": float("nan")}, "threshold_percentile"),
        ({"idle_gap": -5}, "idle_gap"),
        ({"idle_gap": float("inf")}, "idle_gap"),
        # and so are synthetic-cohort values, before synth writes anything
        ({"synthetic": {"session_rate": float("nan")}}, "session_rate"),
        ({"synthetic": {"concentration": 0}}, "concentration"),
        ({"synthetic": {"days": -1}}, "days"),
        ({"synthetic": {"seed": -1}}, "seed"),
    ]:
        cfg.write_text(json.dumps(payload))
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_DATA
        assert key in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


def test_config_hash_is_stable():
    # manifests written by earlier versions name these hashes
    default = "7a31303c020b4f8256b058827604c258f7e47e232c25bc5121e7fc56e6d43e20"
    tiny = "77119db2cefaf2fdccab822c89ded3b94e8818ed644e51a7edbf0705b180f489"
    assert ExperimentConfig().config_hash() == default
    assert ExperimentConfig.from_json(TINY).config_hash() == tiny


def test_config_hash_tracks_content():
    base = ExperimentConfig()
    assert base.config_hash() != replace(base, seed=1).config_hash()
    assert base.config_hash() == ExperimentConfig().config_hash()


def test_apply_overrides_from_argv(tmp_path):
    """`--out` replaces the config's `out`, and the manifest records it."""
    cfg = write_config(tmp_path, out=str(tmp_path / "o"))
    elsewhere = str(tmp_path / "elsewhere")
    assert main(["synth", "--config", str(cfg), "--out", elsewhere]) == EXIT_OK
    manifest = json.loads((tmp_path / "elsewhere" / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["config"]["out"] == elsewhere
    assert not (tmp_path / "o").exists()


def test_each_command_takes_only_paths(capsys):
    """The config file holds every value of a run: no command takes one
    on the command line."""
    for command in ["synth", "ingest", "train", "score", "eval", "stats", "intrude"]:
        base = [command, "--model", "m.npz", "--sequence", "s.csv"] if command == "score" else [command]
        for flag, value in [("--method", "mc"), ("--n", "20"), ("--period", "30"), ("--seed", "1")]:
            with pytest.raises(SystemExit) as info:
                main([*base, flag, value])
            assert info.value.code == EXIT_USAGE, command
            assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err, command


def test_config_with_byte_order_mark_loads(tmp_path):
    cfg = write_config(tmp_path, out=str(tmp_path / "o"))
    cfg.write_text(cfg.read_text(encoding="utf-8"), encoding="utf-8-sig")
    assert cfg.read_bytes().startswith(b"\xef\xbb\xbf")
    assert load_config(str(cfg)) == ExperimentConfig.from_json(dict(TINY, out=str(tmp_path / "o")))
    assert main(["synth", "--config", str(cfg)]) == EXIT_OK
