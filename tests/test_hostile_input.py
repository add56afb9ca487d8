"""Hostile input, generated: byte-patched model files load or fail as data
errors, never with another exception type, and so do config objects of
mixed JSON values."""

from __future__ import annotations

import io
import zipfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from appauth.cli import ExperimentConfig
from appauth.ingest import FormatError
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
