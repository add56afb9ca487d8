"""Observation alphabet: contextualized app symbols, session and day markers.

Each foreground sample becomes an (app, time-zone-of-day, weekday/weekend)
symbol. Two structural markers are interleaved: a session-start marker at
every session boundary and a day-change marker whenever the calendar day
advances. Apps outside a model's vocabulary fold into per-context unknown
symbols, keeping the alphabet closed.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable, Sequence, TextIO

import numpy as np

from .ingest import FormatError, Session, read_csv_rows, write_csv

SECONDS_PER_DAY = 86400

# Thirds of the day, in seconds-of-day: (0, 8h], (8h, 16h], (16h, 24h].
TZ_EDGES = (28800, 57600)
TZ_NAMES = ("TZ1", "TZ2", "TZ3")
DAY_NAMES = ("WD", "WE")

N_TZ = 3
N_DAY = 2
CONTEXTS_PER_APP = N_TZ * N_DAY  # 6

SEQUENCE_HEADER = ["owner", "timestamp", "symbol"]

KIND_APP = "app"
KIND_UNKNOWN = "unk"
KIND_SESSION_START = "psi"
KIND_DAY_CHANGE = "delta"


def day_ordinal(timestamp: int) -> int:
    """Calendar day of a timestamp. Second 0 of a day, midnight itself,
    belongs to the previous day, so each day is the half-open (0, 24h]."""
    return (timestamp - 1) // SECONDS_PER_DAY


def timezone_of(timestamp: int) -> int:
    """Index of the 8-hour block the timestamp falls in: 0, 1 or 2, for
    (0, 8h], (8h, 16h] or (16h, 24h] of the day `day_ordinal` assigns it."""
    return bisect_left(TZ_EDGES, timestamp - SECONDS_PER_DAY * day_ordinal(timestamp))


def day_flag_of(timestamp: int) -> int:
    """0 on Monday..Friday, 1 on Saturday/Sunday (device-local time)."""
    # epoch day 0 is a Thursday: weekday 3 with Monday == 0
    weekday = (day_ordinal(timestamp) + 3) % 7
    return 1 if weekday >= 5 else 0


@dataclass(frozen=True, slots=True)
class Observation:
    """One symbol of the usage alphabet.

    kind is one of 'app', 'unk', 'psi', 'delta'. app_id is set only for
    'app'; tz/day only for 'app' and 'unk'.
    """

    kind: str
    app_id: str = ""
    tz: int = -1
    day: int = -1

    def __post_init__(self) -> None:
        if self.kind in (KIND_APP, KIND_UNKNOWN):
            if not 0 <= self.tz < N_TZ or not 0 <= self.day < N_DAY:
                raise ValueError(f"bad context tz={self.tz} day={self.day}")
            if self.kind == KIND_APP and not self.app_id:
                raise ValueError("app observation without app_id")
        elif self.kind in (KIND_SESSION_START, KIND_DAY_CHANGE):
            if self.app_id or self.tz != -1 or self.day != -1:
                raise ValueError(f"{self.kind} observation carries context fields")
        else:
            raise ValueError(f"unknown observation kind {self.kind!r}")

    def to_text(self) -> str:
        if self.kind == KIND_APP:  # from_text splits off the last two fields only
            return f"app:{self.app_id}:{TZ_NAMES[self.tz]}:{DAY_NAMES[self.day]}"
        if self.kind == KIND_UNKNOWN:
            return f"unk:{TZ_NAMES[self.tz]}:{DAY_NAMES[self.day]}"
        return self.kind  # psi / delta

    @classmethod
    def from_text(cls, text: str) -> "Observation":
        if text == KIND_SESSION_START or text == KIND_DAY_CHANGE:
            return cls(text)
        if text.startswith("app:"):
            body, tz_name, day_name = _split_context(text[4:], text)
            if not body:
                raise FormatError(f"empty app_id in symbol {text!r}")
            return cls(KIND_APP, body, TZ_NAMES.index(tz_name), DAY_NAMES.index(day_name))
        if text.startswith("unk:"):
            body, tz_name, day_name = _split_context("x:" + text[4:], text)
            if body != "x":
                raise FormatError(f"malformed unknown symbol {text!r}")
            return cls(KIND_UNKNOWN, "", TZ_NAMES.index(tz_name), DAY_NAMES.index(day_name))
        raise FormatError(f"unparseable symbol {text!r}")


def _split_context(body: str, original: str) -> tuple[str, str, str]:
    parts = body.rsplit(":", 2)
    if len(parts) != 3 or parts[1] not in TZ_NAMES or parts[2] not in DAY_NAMES:
        raise FormatError(f"unparseable symbol {original!r}")
    return parts[0], parts[1], parts[2]


def app_observation(app_id: str, timestamp: int) -> Observation:
    return Observation(KIND_APP, app_id, timezone_of(timestamp), day_flag_of(timestamp))


SESSION_START = Observation(KIND_SESSION_START)
DAY_CHANGE = Observation(KIND_DAY_CHANGE)


def encode_sessions(sessions: Sequence[Session]) -> list[tuple[int, Observation]]:
    """Turn resampled sessions into a timestamped symbol stream.

    Per session a session-start marker precedes its samples. A single
    day-change marker is emitted whenever the calendar day of the next
    sample differs from the previous sample's day, and at a session boundary
    it lands before the session-start marker.
    """
    out: list[tuple[int, Observation]] = []
    prev_day: int | None = None
    for sess in sessions:
        if not sess.samples:
            continue
        first_ts = sess.samples[0][0]
        if prev_day is not None and day_ordinal(first_ts) != prev_day:
            out.append((first_ts, DAY_CHANGE))
        out.append((first_ts, SESSION_START))
        prev_day = day_ordinal(first_ts)
        for ts, app_id in sess.samples:
            if day_ordinal(ts) != prev_day:
                out.append((ts, DAY_CHANGE))
                prev_day = day_ordinal(ts)
            out.append((ts, app_observation(app_id, ts)))
    return out


def write_sequence_csv(
    rows: Iterable[tuple[str, int, Observation]], dest: str | Path | TextIO
) -> None:
    """Write an encoded stream as ``owner,timestamp,symbol`` CSV rows."""
    body = ((owner, ts, obs.to_text()) for owner, ts, obs in rows)
    write_csv(dest, chain([SEQUENCE_HEADER], body))


def read_sequence_csv(source: str | Path | TextIO) -> list[tuple[str, int, Observation]]:
    """Read a symbol-stream CSV written by write_sequence_csv.

    Unlike the raw event-log parser this is strict: any malformed row raises
    FormatError, since these files are produced by the pipeline itself.
    """
    out: list[tuple[str, int, Observation]] = []
    for lineno, fields in read_csv_rows(source, SEQUENCE_HEADER):
        try:
            owner, ts, symbol = fields
            out.append((owner, int(ts), Observation.from_text(symbol)))
        except ValueError as exc:
            raise FormatError(f"line {lineno}: {exc}") from None
    return out


class Vocabulary:
    """Closed symbol alphabet for a fixed set of known apps.

    Layout, for N apps sorted lexicographically: six contextual symbols per
    app (time-zone major, then weekday/weekend), then the six unknown-app
    context symbols, then the session-start and day-change markers — a total
    of 6N + 8 indices.

    The layout is decoded here only, into three read-only int64 arrays
    indexed by symbol: `symbol_app` holds the app rank, or -1 for the
    unknown app, -2 for session start and -3 for day change; `symbol_tz`
    and `symbol_day` hold the time block and the day flag, -1 on markers.
    """

    __slots__ = ("apps", "_app_rank", "symbol_app", "symbol_tz", "symbol_day")

    def __init__(self, apps: Iterable[str]):
        self.apps: tuple[str, ...] = tuple(sorted(set(apps)))
        if not self.apps:
            raise ValueError("vocabulary needs at least one app")
        self._app_rank = {a: i for i, a in enumerate(self.apps)}
        families = np.append(np.arange(self.n_apps), [-1, -2, -3])
        self.symbol_app = np.repeat(families, [CONTEXTS_PER_APP] * (self.n_apps + 1) + [1, 1])
        context = np.arange(self.session_start_index) % CONTEXTS_PER_APP
        self.symbol_tz = np.append(context // N_DAY, [-1, -1])
        self.symbol_day = np.append(context % N_DAY, [-1, -1])
        for table in (self.symbol_app, self.symbol_tz, self.symbol_day):
            table.flags.writeable = False

    @classmethod
    def from_observations(cls, observations: Iterable[Observation]) -> "Vocabulary":
        return cls(o.app_id for o in observations if o.kind == KIND_APP)

    @property
    def n_apps(self) -> int:
        return len(self.apps)

    @property
    def size(self) -> int:
        return CONTEXTS_PER_APP * self.n_apps + CONTEXTS_PER_APP + 2

    @property
    def unknown_base(self) -> int:
        return CONTEXTS_PER_APP * self.n_apps

    @property
    def session_start_index(self) -> int:
        return self.unknown_base + CONTEXTS_PER_APP

    @property
    def day_change_index(self) -> int:
        return self.session_start_index + 1

    def __contains__(self, app_id: str) -> bool:
        return app_id in self._app_rank

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Vocabulary) and self.apps == other.apps

    def __repr__(self) -> str:
        return f"Vocabulary({self.n_apps} apps, size={self.size})"

    def unknown_index(self, tz: int, day: int) -> int:
        return self.unknown_base + tz * N_DAY + day

    def index_of(self, obs: Observation) -> int:
        """Index of an observation, folding out-of-vocabulary apps into the
        unknown symbol with the same context."""
        if obs.kind == KIND_APP:
            rank = self._app_rank.get(obs.app_id)
            if rank is None:
                return self.unknown_index(obs.tz, obs.day)
            return rank * CONTEXTS_PER_APP + obs.tz * N_DAY + obs.day
        if obs.kind == KIND_UNKNOWN:
            return self.unknown_index(obs.tz, obs.day)
        if obs.kind == KIND_SESSION_START:
            return self.session_start_index
        return self.day_change_index

    def project(self, observations: Iterable[Observation]) -> np.ndarray:
        """Encode observations as an int64 index array."""
        return np.fromiter(
            (self.index_of(o) for o in observations), dtype=np.int64, count=-1
        )

    def to_json(self) -> dict:
        return {"apps": list(self.apps)}

    @classmethod
    def from_json(cls, payload: dict) -> "Vocabulary":
        return cls(payload["apps"])


def sliding_windows(indices: np.ndarray, n: int) -> np.ndarray:
    """All length-n windows of an index array as a (W, n) view."""
    if n < 1:
        raise ValueError("window length must be >= 1")
    arr = np.asarray(indices, dtype=np.int64)
    if arr.size < n:
        return np.empty((0, n), dtype=np.int64)
    return np.lib.stride_tricks.sliding_window_view(arr, n)
