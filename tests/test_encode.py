"""Observation alphabet, vocabulary indexing, and stream encoding."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import DELTA, PSI, app, unk
from appauth.ingest import FormatError, Session
from appauth.encode import (
    Observation,
    Vocabulary,
    day_flag_of,
    day_ordinal,
    encode_sessions,
    read_sequence_csv,
    timezone_of,
    write_sequence_csv,
)

DAY = 86400


def test_timezone_bins_half_open_edges():
    assert timezone_of(0) == 2  # midnight exactly belongs to the late bin
    assert timezone_of(1) == 0
    assert timezone_of(28800) == 0
    assert timezone_of(28801) == 1
    assert timezone_of(57600) == 1
    assert timezone_of(57601) == 2
    assert timezone_of(86399) == 2
    assert timezone_of(3 * DAY + 9000) == 0  # only clock-of-day matters


def test_day_flag_epoch_anchor():
    # epoch day 0 is a Thursday; days 2 and 3 are the weekend
    assert [day_flag_of(d * DAY + 3600) for d in range(7)] == [0, 0, 1, 1, 0, 0, 0]
    assert day_ordinal(2 * DAY + 5) == 2


def test_observation_text_round_trip():
    cases = [app("mail", 0, 0), app("a.b_c", 2, 1), PSI, DELTA]
    for obs in cases:
        assert Observation.from_text(obs.to_text()) == obs
    assert app("mail", 0, 0).to_text() == "app:mail:TZ1:WD"
    assert PSI.to_text() == "psi"
    assert DELTA.to_text() == "delta"


def test_observation_rejects_bad_input():
    colon = app("com:x", 2, 1)  # from_text splits off the context from the right
    assert Observation.from_text(colon.to_text()) == colon
    with pytest.raises(ValueError):
        Observation("app", app_id="", tz=0, day=0)
    with pytest.raises(ValueError):
        Observation("app", app_id="x", tz=3, day=0)
    # an unknown app is a projected index only, never a symbol of its own
    for text in ("app:mail", "unk:TZ4:WD", "unk:TZ3:WE", "nonsense", "app:mail:TZ1:XX"):
        with pytest.raises(FormatError):
            Observation.from_text(text)


def test_encode_sessions_markers():
    sessions = [
        Session(100, 160, [(100, "a"), (130, "a"), (160, "b")]),
        Session(400, 430, [(400, "b"), (430, "a")]),
    ]
    encoded = encode_sessions(sessions)
    assert [obs.to_text() for _, obs in encoded] == [
        "psi",
        "app:a:TZ1:WD",
        "app:a:TZ1:WD",
        "app:b:TZ1:WD",
        "psi",
        "app:b:TZ1:WD",
        "app:a:TZ1:WD",
    ]


def test_encode_sessions_day_change_before_session_start():
    sessions = [
        Session(3600, 3630, [(3600, "a"), (3630, "a")]),
        Session(DAY + 60, DAY + 60, [(DAY + 60, "a")]),
    ]
    encoded = [obs.to_text() for _, obs in encode_sessions(sessions)]
    assert encoded == ["psi", "app:a:TZ1:WD", "app:a:TZ1:WD", "delta", "psi", "app:a:TZ1:WD"]


def test_encode_sessions_single_day_change_within_session():
    sessions = [
        Session(DAY - 30, DAY + 30, [(DAY - 30, "a"), (DAY, "a"), (DAY + 30, "b")])
    ]
    encoded = [obs.to_text() for _, obs in encode_sessions(sessions)]
    # the midnight sample still belongs to the old day; the next one flips it
    assert encoded == ["psi", "app:a:TZ3:WD", "app:a:TZ3:WD", "delta", "app:b:TZ1:WD"]


def test_encode_sessions_one_marker_per_multi_day_jump():
    sessions = [
        Session(3600, 3600, [(3600, "a")]),
        Session(5 * DAY, 5 * DAY, [(5 * DAY, "a")]),
    ]
    encoded = [obs.to_text() for _, obs in encode_sessions(sessions)]
    assert encoded.count("delta") == 1


def test_encode_sessions_shares_one_observation_per_symbol():
    # five symbols: a and b on a weekday morning, a on a weekday evening,
    # a and b on a weekend morning (epoch day 2 is a Saturday)
    stamps = [3600, 3630, 4000, 60000, 60030, 2 * DAY + 3600, 2 * DAY + 3630]
    apps = ["a", "a", "b", "a", "a", "a", "b"]
    sessions = [Session(ts, ts, [(ts, app_id)]) for ts, app_id in zip(stamps, apps)]
    apps_out = [obs for _, obs in encode_sessions(sessions) if obs.kind == "app"]
    assert len(apps_out) == len(stamps)
    assert len({id(obs) for obs in apps_out}) == len(set(apps_out)) == 5
    for obs, ts, app_id in zip(apps_out, stamps, apps):
        assert obs == Observation("app", app_id, timezone_of(ts), day_flag_of(ts))


def test_vocabulary_layout():
    vocab = Vocabulary(["zeta", "alpha"])
    assert vocab.apps == ("alpha", "zeta")  # lexicographic ordering
    assert vocab.size == 6 * 2 + 8
    assert vocab.unknown_base == 12
    assert vocab.session_start_index == 18
    assert vocab.day_change_index == 19
    assert vocab.index_of(app("alpha", 0, 0)) == 0
    assert vocab.index_of(app("alpha", 2, 1)) == 5
    assert vocab.index_of(app("zeta", 1, 0)) == 8
    assert vocab.index_of(unk(1, 1)) == 12 + 3
    assert vocab.index_of(PSI) == 18
    assert vocab.index_of(DELTA) == 19


def test_vocabulary_folds_unknown_apps():
    vocab = Vocabulary(["alpha"])
    assert vocab.index_of(app("stranger", 2, 0)) == vocab.unknown_base + 4  # tz 2, day 0
    assert "alpha" in vocab.apps and "stranger" not in vocab.apps


def test_vocabulary_attribute_tables_agree_with_index_of():
    vocab = Vocabulary(["maps", "chat", "mail"])
    expected = {vocab.index_of(PSI): ("psi", -1, -1), vocab.index_of(DELTA): ("delta", -1, -1)}
    for tz in range(3):
        for day in range(2):
            for rank, app_id in enumerate(vocab.apps):
                expected[vocab.index_of(app(app_id, tz, day))] = (rank, tz, day)
            expected[vocab.index_of(unk(tz, day))] = ("unk", tz, day)
            assert vocab.index_of(app("stranger", tz, day)) == vocab.index_of(unk(tz, day))
    assert sorted(expected) == list(range(vocab.size))  # every index decoded once
    tables = (vocab.symbol_app, vocab.symbol_tz, vocab.symbol_day)
    assert all(t.shape == (vocab.size,) and t.dtype == np.int64 for t in tables)
    family_values: dict[str, set[int]] = {}
    for index, (family, tz, day) in expected.items():
        assert (vocab.symbol_tz[index], vocab.symbol_day[index]) == (tz, day)
        if isinstance(family, int):
            assert vocab.symbol_app[index] == family
        else:
            assert vocab.symbol_app[index] < 0
            family_values.setdefault(family, set()).add(int(vocab.symbol_app[index]))
    # one negative value per non-app family, and a different one for each
    assert all(len(v) == 1 for v in family_values.values())
    assert len(set().union(*family_values.values())) == 3
    with pytest.raises(ValueError):
        vocab.symbol_tz[0] = 1  # shared by every model on this vocabulary


def test_vocabulary_project_and_json_round_trip():
    vocab = Vocabulary(["a", "b"])
    stream = [PSI, app("a", 1, 1), app("nope", 0, 0), DELTA]
    projected = vocab.project(stream)
    assert projected.dtype == np.int64
    assert projected.tolist() == [
        vocab.session_start_index,
        3,
        vocab.unknown_base,
        vocab.day_change_index,
    ]
    clone = Vocabulary.from_json(vocab.to_json())
    assert clone == vocab


def test_vocabulary_from_observations_keeps_app_ids_only():
    stream = [app("b"), PSI, app("a"), DELTA, app("b")]
    vocab = Vocabulary.from_observations(stream)
    assert vocab.apps == ("a", "b")


def assert_round_trip_shares_values(rows, path):
    """The rows read back equal the rows written, and equal owners and
    equal symbols come back as one object each."""
    write_sequence_csv(rows, path)
    back = read_sequence_csv(path)
    assert back == rows
    for column in (0, 2):  # owner, observation
        values = [row[column] for row in back]
        assert len({id(v) for v in values}) == len(set(values)) < len(values)


def test_sequence_csv_round_trip(tmp_path):
    rows = [("u1", 0, PSI), ("u1", 0, app("mail", 0, 0)), ("u1", 30, unk(2, 1))]
    rows += [("u2", 60, PSI), ("u2", 60, app("mail", 0, 0)), ("u1", 90, unk(2, 1))]
    assert_round_trip_shares_values(rows, tmp_path / "seq.csv")


def test_sequence_csv_round_trips_app_ids_with_commas(tmp_path):
    rows = [("u,1", 0, PSI), ("u,1", 0, app("com.a,b", 0, 0)), ("u,1", 30, app('say "hi"', 2, 1))]
    rows += [("u,1", 60, app("com.a,b", 0, 0)), ("v", 90, app('say "hi"', 2, 1))]
    assert_round_trip_shares_values(rows, tmp_path / "seq.csv")


def test_sequence_csv_reader_is_strict(tmp_path):
    path = tmp_path / "seq.csv"
    for text, error in [
        ("owner,timestamp\nu,0\n", FormatError),
        ("owner,timestamp,symbol\nu,xx,psi\n", FormatError),
        ("owner,timestamp,symbol\nu,0,app:only\n", ValueError),
    ]:
        path.write_text(text, encoding="utf-8")
        with pytest.raises(error):
            read_sequence_csv(path)
    # a bad row after rows whose symbol and owner are shared names its line
    path.write_text("owner,timestamp,symbol\nu,0,psi\nu,1,psi\nu,2,app:only\n", encoding="utf-8")
    with pytest.raises(FormatError, match="^line 4: unparseable symbol 'app:only'"):
        read_sequence_csv(path)
