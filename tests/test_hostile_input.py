"""Hostile input, generated: byte-patched model files load or fail as data
errors, never with another exception type, and so do config objects of
mixed JSON values; event logs, sequence files and model arrays with
hostile cells and values run through `cli.main` to a documented exit code."""

from __future__ import annotations

import csv
import io
import json
import math
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from appauth.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, ExperimentConfig, main
from appauth.encode import SEQUENCE_HEADER
from appauth.ingest import EVENT_LOG_HEADER, FormatError, write_csv
from appauth.models import METHOD_TAGS, load_model
from appauth.simulate import CohortSpec

MODEL_FILES = sorted((Path(__file__).parent / "data").glob("model.*.npz"))

# the same examples on every run, no example database and no time limit
GENERATED = settings(max_examples=100, derandomize=True, database=None, deadline=None)

# what `cli.main` turns into exit codes 2 and 3
DATA_ERRORS = (FormatError, ValueError, OSError, ArithmeticError)


@pytest.fixture(autouse=True)
def hypothesis_storage_in_a_temporary_directory(tmp_path_factory):
    """Even with no database, hypothesis caches the constants it collects
    from the source files it runs on disk; keep that cache out of the
    checkout."""
    set_hypothesis_home_dir(tmp_path_factory.mktemp("hypothesis"))
    yield
    set_hypothesis_home_dir(None)


@pytest.mark.parametrize("pinned", MODEL_FILES, ids=lambda p: p.name)
def test_a_byte_patched_model_file_loads_or_is_a_data_error(pinned, tmp_path):
    original = pinned.read_bytes()
    patched = tmp_path / pinned.name
    offsets = st.integers(0, len(original) - 1)

    @GENERATED
    @given(st.lists(st.tuples(offsets, st.integers(0, 255)), min_size=1, max_size=4))
    def loads_or_refuses(patches):
        data = bytearray(original)
        for offset, value in patches:
            data[offset] = value
        patched.write_bytes(data)
        try:
            load_model(patched)
        except DATA_ERRORS:
            pass

    loads_or_refuses()


# Damages that each once escaped `load_model` as the exception type named
# first: (offset of the byte in model.mc.npz, given its bytes, its members
# and the offset of its first central-directory entry; new value of the byte).
DAMAGES = {
    "BadZipFile-crc": (lambda d, m, cd: 200, lambda b: b ^ 0xFF),  # inside meta.npy
    "EOFError-extra-field": (lambda d, m, cd: m[-1].header_offset + 29, lambda b: 255),
    "NotImplementedError-zip-version": (lambda d, m, cd: cd + 6, lambda b: 250),  # 25.0
    "NotImplementedError-method": (lambda d, m, cd: cd + 10, lambda b: 1),  # "shrunk"
    "RuntimeError-encrypted": (lambda d, m, cd: cd + 8, lambda b: b | 1),
    "TokenError-npy-header": (  # "'shape': $26," in the last member
        lambda d, m, cd: d.index(b"'shape': (", m[-1].header_offset) + 9,
        lambda b: ord("$"),
    ),
}


@pytest.mark.parametrize("damage", DAMAGES)
def test_a_damaged_model_file_is_a_format_error(damage, tmp_path):
    offset_of, value_of = DAMAGES[damage]
    data = bytearray((Path(__file__).parent / "data" / "model.mc.npz").read_bytes())
    members = zipfile.ZipFile(io.BytesIO(data)).infolist()
    offset = offset_of(data, members, data.index(b"PK\x01\x02"))
    data[offset] = value_of(data[offset])
    path = tmp_path / "model.npz"
    path.write_bytes(data)
    with pytest.raises(FormatError, match=f"^{path}: not an .npz container"):
        load_model(path)


# Values of every JSON type: null, bools, huge ints, NaN, infinities,
# strings, lists and objects, nested.
JSON_VALUES = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.sampled_from([2**63, -(2**63) - 1, 10**400]),
        st.floats(allow_nan=True, allow_infinity=True),
        st.text(max_size=6),
    ),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


def plausible(default) -> st.SearchStrategy:
    """Values of the default's JSON type that every field of that type
    takes, so that some configs load."""
    if isinstance(default, CohortSpec):
        return config_objects(CohortSpec)
    if isinstance(default, tuple):
        return st.lists(plausible(default[0]), min_size=1, max_size=3, unique=True)
    if isinstance(default, str):
        return st.sampled_from(METHOD_TAGS) | st.text(max_size=6)
    if isinstance(default, int):
        return st.integers(1, 100)
    if isinstance(default, float):
        return st.floats(0.001, 0.999)
    return st.none() | st.text(max_size=6)


def config_objects(cls) -> st.SearchStrategy:
    """JSON objects over some of the real keys of the dataclass `cls`, each
    value plausible or of any JSON type."""
    default = cls()
    keys = st.lists(st.sampled_from(list(cls.__dataclass_fields__)), max_size=5, unique=True)
    return keys.flatmap(
        lambda ks: st.fixed_dictionaries({k: plausible(getattr(default, k)) | JSON_VALUES for k in ks})
    )


def test_a_config_object_loads_and_round_trips_or_is_a_value_error():
    """Only configs are loaded and no command runs, so a huge `n_states`
    allocates nothing."""

    @settings(GENERATED, max_examples=200)
    @given(config_objects(ExperimentConfig))
    def loads_and_round_trips_or_refuses(payload):
        try:
            config = ExperimentConfig.from_json(payload)
        except ValueError:
            return
        assert ExperimentConfig.from_json(config.to_json()) == config

    loads_and_round_trips_or_refuses()


# Cells that a hand-edited or foreign CSV may hold: empty, non-numbers, a
# 30-digit integer, NUL, a clock time, quotes, commas and padded text.
HOSTILE_CELLS = st.sampled_from(
    ["", "nan", "inf", "-inf", "1" * 30, "\x00", "00:00", '"', '""', ",", "a,b", " u0 ", " 1 "]
)
DAY = 86400
APPS = ["mail", "chat", "maps", "news"]
# "a" and "b" are apps of the pinned models, and "z" is not
SYMBOLS = ["psi", "delta"] + [
    f"app:{app}:{tz}:{day}" for app in "abz" for tz in ("TZ1", "TZ3") for day in ("WD", "WE")
]


def with_hostile_cells(rows: st.SearchStrategy) -> st.SearchStrategy:
    """Lists of well-formed rows with up to three cells replaced by hostile
    ones."""
    hits = st.lists(st.tuples(st.integers(0), st.integers(0), HOSTILE_CELLS), max_size=3)

    def spoil(drawn):
        table, spoiled = drawn
        for row, column, cell in spoiled:
            if table:
                table[row % len(table)][column % len(table[0])] = cell
        return table

    return st.tuples(rows, hits).map(spoil)


def event_rows(n_users: int) -> st.SearchStrategy:
    users = st.sampled_from([f"u{k}" for k in range(n_users)])
    kinds = st.sampled_from(["unlock", "app", "lock"])
    row = st.tuples(users, st.integers(0, 4 * DAY), kinds, st.sampled_from(APPS))
    return st.lists(
        row.map(lambda r: [r[0], str(r[1]), r[2], r[3] if r[2] == "app" else ""]), max_size=60
    )


def sequence_rows() -> st.SearchStrategy:
    owners = st.sampled_from(["u0", "u1"])
    row = st.tuples(owners, st.integers(0, 4 * DAY), st.sampled_from(SYMBOLS))
    return st.lists(row.map(lambda r: [r[0], str(r[1]), r[2]]), max_size=40)


def run(*argv) -> int:
    code = main(list(argv))
    assert code in (EXIT_OK, EXIT_DATA, EXIT_NUMERIC), argv
    return code


def test_an_event_log_with_hostile_cells_exits_0_2_or_3(tmp_path):
    """`ingest`, `stats` and `train` on event logs of 2 or 3 users, with
    `min_train` and `min_test` at 1 so that some users are eligible. No
    command forks, and a 2-state, 3-iteration fit keeps each example to
    milliseconds."""
    log = tmp_path / "events.csv"
    config = tmp_path / "config.json"
    payload = {"data": str(log), "out": str(tmp_path / "o"), "periods": [30]}
    payload.update(min_train=1, min_test=1, n_states=2, max_iter=3)
    config.write_text(json.dumps(payload), encoding="utf-8")

    @GENERATED
    @given(st.integers(2, 3).flatmap(lambda k: with_hostile_cells(event_rows(k))))
    def exits_0_2_or_3(rows):
        write_csv(log, [EVENT_LOG_HEADER, *rows])
        for command in ("ingest", "stats", "train"):
            run(command, "--config", str(config))

    exits_0_2_or_3()


@pytest.mark.parametrize("model", MODEL_FILES, ids=lambda p: p.name)
def test_a_sequence_file_with_hostile_cells_exits_0_2_or_3(model, tmp_path):
    sequence = tmp_path / "sequence.csv"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n_values": [3], "out": str(tmp_path / "o")}), encoding="utf-8")

    @GENERATED
    @given(with_hostile_cells(sequence_rows()))
    def exits_0_2_or_3(rows):
        write_csv(sequence, [SEQUENCE_HEADER, *rows])
        run("score", "--config", str(config), "--model", str(model), "--sequence", str(sequence))

    exits_0_2_or_3()


# one entry of a float array is set to each; an integer array takes the
# ones it can hold
ENTRY_VALUES = (np.nan, np.inf, -np.inf, -1.0, 0.0, 1e308, 5e-324)


def hostile_copies(array: np.ndarray):
    """(label, replacement) for each hostile copy of one model array."""
    if array.dtype == bool:
        flipped = array.copy()
        flipped.flat[0] = not flipped.flat[0]
        yield "flipped", flipped
    elif array.dtype.kind in "if":
        for value in ENTRY_VALUES if array.dtype.kind == "f" else (-1, 0):
            changed = array.copy()
            changed.flat[0] = value
            yield repr(value), changed
    yield "empty", np.zeros(0, array.dtype)
    yield "strings", np.full(array.shape, "x")


@pytest.mark.parametrize("pinned", MODEL_FILES, ids=lambda p: p.name)
def test_a_model_with_a_hostile_array_scores_finite_or_is_refused(pinned, tmp_path):
    """Each copy of the model with one array member changed exits 2 or 3,
    or exits 0 with every score finite."""
    sequence = tmp_path / "sequence.csv"
    rows = [["u0", str(ts), SYMBOLS[ts % len(SYMBOLS)]] for ts in range(40)]
    write_csv(sequence, [SEQUENCE_HEADER, *rows])
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n_values": [5], "out": str(tmp_path / "o")}), encoding="utf-8")
    with np.load(pinned, allow_pickle=False) as payload:
        arrays = {name: payload[name] for name in payload.files}
    model = tmp_path / pinned.name
    argv = ["score", "--config", str(config), "--model", str(model), "--sequence", str(sequence)]
    for name, array in arrays.items():
        for label, copy in hostile_copies(array):
            np.savez(model, **dict(arrays, **{name: copy}))
            code = run(*argv)
            if code == EXIT_OK:
                with open(tmp_path / "o" / "scores.csv", encoding="utf-8", newline="") as fh:
                    scores = [float(row[3]) for row in list(csv.reader(fh))[1:]]
                assert scores and all(map(math.isfinite, scores)), (name, label)
