"""Event-log parsing, sessionization, resampling, and splitting."""

from __future__ import annotations

import logging
import math
import tracemalloc
from itertools import chain

import pytest

from appauth.ingest import (
    MAX_USER_ID_BYTES,
    FormatError,
    RawEvent,
    Session,
    group_by_user,
    parse_event_log,
    resample_sessions,
    sessionize,
    split_sessions,
    write_event_log,
)
from appauth.models import METHOD_TAGS
from appauth.simulate import CohortSpec, make_cohort


def ev(ts: int, kind: str, app_id: str = "", user: str = "u1") -> RawEvent:
    return RawEvent(user, ts, kind, app_id)


def test_raw_event_validation():
    with pytest.raises(ValueError):
        RawEvent("u", -1, "app", "a")
    with pytest.raises(ValueError):
        RawEvent("u", 0, "swipe")
    with pytest.raises(ValueError):
        RawEvent("u", 0, "app", "")
    # timestamps go into int64 arrays
    with pytest.raises(ValueError, match=r"outside \[0, 2\*\*63\)"):
        RawEvent("u", 2**63, "lock")
    assert RawEvent("u", 2**63 - 1, "lock").local_timestamp == 2**63 - 1


def test_raw_event_is_the_event_rule():
    with pytest.raises(ValueError, match="empty user_id"):
        RawEvent("", 1, "app", "mail")
    with pytest.raises(ValueError, match="carries app_id"):
        RawEvent("u", 1, "lock", "x")
    with pytest.raises(ValueError, match="carries app_id"):
        RawEvent("u", 1, "unlock", "x")
    assert RawEvent("u", 1, "lock").app_id == ""
    # the reader strips fields: ids with outer whitespace could not round-trip
    for user_id, app_id in ((" u", "mail"), ("u", "mail "), (" ", "mail"), ("u\t", "mail")):
        with pytest.raises(ValueError, match="whitespace"):
            RawEvent(user_id, 1, "app", app_id)
    assert RawEvent("u 1", 1, "app", "my mail").app_id == "my mail"
    # model files are named after the user id; app ids may hold these
    for user_id in ("../u", "a/b", "a\\b", "u\x00"):
        with pytest.raises(ValueError, match="user_id"):
            RawEvent(user_id, 1, "lock")
    assert RawEvent("..", 1, "app", "a/b\\c").user_id == ".."
    # and short enough for `<user_id>.<method>.npz` to fit a 255-byte NAME_MAX
    assert MAX_USER_ID_BYTES + max(len(f".{m}.npz") for m in METHOD_TAGS) <= 255
    for user_id in ("u" * 240, "\u00e9" * 120):  # 240 bytes each
        assert RawEvent(user_id, 1, "lock").user_id == user_id
    for user_id in ("u" * 241, "\u00e9" * 121, "\U0001f600" * 61):  # 241, 242 and 244 bytes
        with pytest.raises(ValueError, match="over 240 UTF-8 bytes"):
            RawEvent(user_id, 1, "lock")


def test_session_validation():
    with pytest.raises(ValueError):
        Session(10, 5)


def test_event_log_round_trip(tmp_path):
    events = [
        ev(10, "unlock"),
        ev(12, "app", "mail"),
        ev(40, "app", "chat"),
        ev(90, "lock"),
        RawEvent("u2", 5, "app", "maps"),
    ]
    path = tmp_path / "events.csv"
    write_event_log(events, path)
    parsed, report = parse_event_log(path)
    assert parsed == events
    assert report.rows_total == len(events)
    assert report.errors == []


def test_event_log_round_trips_commas_and_quotes(tmp_path):
    events = [
        RawEvent("u,2", 1, "unlock"),
        RawEvent("u,2", 2, "app", "com.a,b"),
        RawEvent("u,2", 3, "app", 'say "hi"'),
        RawEvent("u,2", 4, "lock"),
    ]
    path = tmp_path / "events.csv"
    write_event_log(events, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[2:4] == ['"u,2",2,app,"com.a,b"', '"u,2",3,app,"say ""hi"""']
    parsed, report = parse_event_log(path)
    assert parsed == events
    assert report.errors == []


def test_parse_holds_each_field_value_once(tmp_path):
    """Parsed events share one string per distinct user id, kind and app
    id, so an event holds about 100 traced bytes: itself, its timestamp
    and its list slot. Three new strings per row took 256."""
    events = list(chain.from_iterable(make_cohort(CohortSpec(n_users=3, days=30, seed=5)).values()))
    path = tmp_path / "events.csv"
    write_event_log(events, path)
    tracemalloc.start()
    try:
        parsed, report = parse_event_log(path)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert parsed == events and report.errors == []
    assert held < 120 * len(parsed), f"{held / len(parsed):.0f} traced bytes per event"
    for name in ("user_id", "kind", "app_id"):
        values = [getattr(event, name) for event in parsed]
        assert len({id(v) for v in values}) == len(set(values)) > 1, name


def parse_text(tmp_path, text: str):
    """`parse_event_log` of a file holding `text`."""
    path = tmp_path / "events.csv"
    path.write_text(text, encoding="utf-8")
    return parse_event_log(path)


def test_parse_reports_the_raw_event_error(tmp_path):
    text = "user_id,local_timestamp,kind,app_id\nu1,13,lock,mail\n,14,app,mail\n"
    _, report = parse_text(tmp_path, text)
    assert [(e.line, e.message) for e in report.errors] == [
        (2, "lock event carries app_id 'mail'"),
        (3, "empty user_id"),
    ]


def test_parse_numbers_rows_by_file_line(tmp_path):
    text = 'user_id,local_timestamp,kind,app_id\nu1,10,app,"two\nlines"\n\nu1,oops,app,mail\n'
    events, report = parse_text(tmp_path, text)
    assert [e.app_id for e in events] == ["two\nlines"]
    assert [e.line for e in report.errors] == [5]


def test_parse_rejects_bad_header(tmp_path):
    with pytest.raises(FormatError):
        parse_text(tmp_path, "time,user,kind,app\n")
    with pytest.raises(FormatError):
        parse_text(tmp_path, "")


def test_parse_reads_a_byte_order_mark(tmp_path):
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    write_event_log([ev(1, "unlock"), ev(2, "app", "mail"), ev(3, "lock")], plain)
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    events, report = parse_event_log(marked)
    assert [e.kind for e in events] == ["unlock", "app", "lock"]
    assert (events, report) == parse_event_log(plain)


def test_parse_collects_malformed_rows(tmp_path):
    text = (
        "user_id,local_timestamp,kind,app_id\n"
        "u1,10,app,mail\n"
        "u1,oops,app,mail\n"
        "u1,11,swipe,\n"
        "u1,12,app,\n"
        "u1,13,lock,mail\n"
        ",14,app,mail\n"
        "u1,15,unlock,\n"
        "u1,16\n"
        "u1,-3,app,mail\n"
    )
    events, report = parse_text(tmp_path, text)
    assert [e.local_timestamp for e in events] == [10, 15]
    assert report.rows_total == 9
    assert sorted(err.line for err in report.errors) == [3, 4, 5, 6, 7, 9, 10]


def test_group_by_user_preserves_order():
    events = [ev(3, "app", "a", "x"), ev(1, "app", "b", "y"), ev(5, "app", "c", "x")]
    groups = group_by_user(events)
    assert [e.local_timestamp for e in groups["x"]] == [3, 5]
    assert [e.local_timestamp for e in groups["y"]] == [1]


def test_sessionize_explicit_session():
    events = [ev(10, "unlock"), ev(12, "app", "mail"), ev(40, "app", "chat"), ev(90, "lock")]
    sessions = sessionize(events)
    assert len(sessions) == 1
    s = sessions[0]
    assert (s.start, s.end) == (10, 90)
    assert s.samples == [(12, "mail"), (40, "chat")]


def test_sessionize_implicit_sessions_split_on_idle_gap():
    events = [ev(0, "app", "a"), ev(100, "app", "b"), ev(1000, "app", "c")]
    # a lock past the idle gap does not stretch the implicit session to it
    for tail in ([], [ev(1400, "lock")]):
        sessions = sessionize(events + tail, idle_gap=300)
        assert [(s.start, s.end) for s in sessions] == [(0, 100), (1000, 1000)]
        assert sessions[0].samples == [(0, "a"), (100, "b")]
        assert sessions[1].samples == [(1000, "c")]


def test_sessionize_explicit_session_ignores_idle_gap():
    events = [ev(0, "unlock"), ev(1, "app", "a"), ev(5000, "app", "b"), ev(5001, "lock")]
    sessions = sessionize(events, idle_gap=300)
    assert len(sessions) == 1
    assert sessions[0].samples == [(1, "a"), (5000, "b")]


def test_sessionize_drops_empty_sessions_and_warns_on_stray_lock(caplog):
    events = [ev(0, "unlock"), ev(5, "lock"), ev(20, "lock"), ev(30, "app", "a")]
    with caplog.at_level(logging.WARNING):
        sessions = sessionize(events)
    assert len(sessions) == 1
    assert sessions[0].samples == [(30, "a")]
    assert any("no open session" in rec.message for rec in caplog.records)


def test_sessionize_rejects_mixed_users():
    with pytest.raises(ValueError):
        sessionize([ev(0, "app", "a", "x"), ev(1, "app", "b", "y")])


def test_sessionize_orders_events_by_timestamp():
    events = [ev(0, "unlock"), ev(10, "app", "a"), ev(50, "app", "b"), ev(40, "lock")]
    sessions = sessionize(events)
    assert [(s.start, s.end) for s in sessions] == [(0, 40), (50, 50)]
    assert sessions[0].samples == [(10, "a")]
    assert sessions[1].samples == [(50, "b")]


def test_resample_anchors_at_first_app_and_carries_forward():
    sess = Session(0, 100, [(7, "a"), (45, "b")])
    out = resample_sessions([sess], period=30)
    assert out[0].samples == [(7, "a"), (37, "a"), (67, "b"), (97, "b")]


def test_resample_stops_at_session_end():
    sess = Session(0, 59, [(0, "a")])
    out = resample_sessions([sess], period=30)
    assert out[0].samples == [(0, "a"), (30, "a")]


def test_resample_rejects_bad_period():
    with pytest.raises(ValueError):
        resample_sessions([], period=0)


def test_sample_foreground_flattens_in_time_order():
    sessions = [
        Session(0, 30, [(0, "a")]),
        Session(100, 130, [(100, "b")]),
    ]
    flat = [s for sess in resample_sessions(sessions, period=30) for s in sess.samples]
    assert flat == [(0, "a"), (30, "a"), (100, "b"), (130, "b")]


def test_chronological_split_floor_and_clamp():
    sessions = [Session(t, t, [(t, "a")]) for t in range(10)]

    def sizes(split):
        return sum(len(s.samples) for s in split.train), sum(len(s.samples) for s in split.test)

    assert sizes(split_sessions(sessions, 0.7)) == (7, 3)
    assert sizes(split_sessions(sessions[:2], 0.01)) == (1, 1)
    assert sizes(split_sessions(sessions[:2], 0.99)) == (1, 1)
    # fewer than two samples cannot give each side one: they all go to test
    assert sizes(split_sessions(sessions[:1], 0.5)) == (0, 1)
    assert sizes(split_sessions([], 0.5)) == (0, 0)
    with pytest.raises(ValueError):
        split_sessions(sessions, 1.0)


def test_split_sessions_divides_straddling_session():
    sessions = [
        Session(0, 90, [(0, "a"), (30, "a"), (60, "b"), (90, "b")]),
        Session(200, 230, [(200, "c"), (230, "c")]),
    ]
    split = split_sessions(sessions, 0.5)  # cut after sample 3 of 6
    assert sum(len(s.samples) for s in split.train) == 3
    assert sum(len(s.samples) for s in split.test) == 3
    assert split.train[0].samples == [(0, "a"), (30, "a"), (60, "b")]
    assert split.test[0].samples == [(90, "b")]
    assert split.test[1].samples == [(200, "c"), (230, "c")]
    # fragments stay within the original session bounds
    assert split.train[0].end == 60 and split.test[0].start == 90


def test_split_sessions_matches_flat_split_index():
    sessions = [Session(i * 100, i * 100 + 60, [(i * 100, "a"), (i * 100 + 30, "b")]) for i in range(5)]
    flat = [s for sess in sessions for s in sess.samples]
    for fraction in (0.3, 0.5, 0.7, 0.9):
        cut = math.floor(fraction * len(flat))
        sess_split = split_sessions(sessions, fraction)
        assert [x for s in sess_split.train for x in s.samples] == flat[:cut]
        assert [x for s in sess_split.test for x in s.samples] == flat[cut:]
