"""Event-log parsing, session reconstruction, resampling and chronological splits.

The raw material is a stream of time-stamped foreground-app / screen-lock
events per user. Everything downstream (alphabet encoding, model training)
works on usage sessions resampled at a fixed period.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

log = logging.getLogger(__name__)

EVENT_LOG_HEADER = ["user_id", "local_timestamp", "kind", "app_id"]
EVENT_KINDS = ("app", "unlock", "lock")

DEFAULT_IDLE_GAP = 300.0

# A model file is named `<user_id>.<method>.npz`; with the longest suffix,
# ".bin-unfore.npz" (15 bytes), the name fits the usual 255-byte NAME_MAX.
MAX_USER_ID_BYTES = 240


class FormatError(ValueError):
    """Input file does not match the documented schema."""


def read_csv_rows(source: str | Path | TextIO, header: list[str]) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(line number, stripped fields)`` for each non-empty data row.

    The line number is the file line on which the row ends (the header is
    line 1), so a quoted field spanning lines does not shift later rows.
    Raises FormatError if the header row is missing or differs from
    ``header``.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8", newline="") as fh:
            yield from read_csv_rows(fh, header)
        return
    reader = csv.reader(source)
    first = next(reader, None)
    if first is None:
        raise FormatError("empty file: missing header row")
    if [h.strip() for h in first] != header:
        raise FormatError(f"bad header {first!r}, expected {header}")
    for row in reader:
        if row:
            yield reader.line_num, [f.strip() for f in row]


def write_csv(dest: str | Path | TextIO, rows: Iterable[Sequence]) -> None:
    """Write CSV rows with "\\n" line ends to a path or an open text stream.

    Fields holding a comma, a quote or a line break are quoted.
    """
    if isinstance(dest, (str, Path)):
        with open(dest, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
    else:
        csv.writer(dest, lineterminator="\n").writerows(rows)


@dataclass(frozen=True, slots=True)
class RawEvent:
    """One log record: a foreground-app change or a screen lock/unlock.

    ``local_timestamp`` is integer seconds since epoch in device-local time,
    in [0, 2**63) so that it fits the int64 arrays downstream; clock-of-day
    and weekday are derived from it directly, without timezone conversion.
    """

    user_id: str
    local_timestamp: int
    kind: str  # one of EVENT_KINDS
    app_id: str = ""

    def __post_init__(self) -> None:
        if not self.user_id:
            raise ValueError("empty user_id")
        # the CSV reader strips fields, so such ids could not round-trip
        for name, value in (("user_id", self.user_id), ("app_id", self.app_id)):
            if value != value.strip():
                raise ValueError(f"{name} {value!r} has leading or trailing whitespace")
        # model files are named after the user id, so it must be a plain file name
        if "/" in self.user_id or "\\" in self.user_id or "\x00" in self.user_id:
            raise ValueError(f"user_id {self.user_id!r} holds '/', '\\' or NUL")
        if len(self.user_id.encode()) > MAX_USER_ID_BYTES:
            raise ValueError(
                f"user_id {self.user_id[:20]!r}... is over {MAX_USER_ID_BYTES} UTF-8 bytes"
            )
        if not 0 <= self.local_timestamp < 2**63:
            raise ValueError(f"timestamp {self.local_timestamp} outside [0, 2**63)")
        if self.kind == "app":
            if not self.app_id:
                raise ValueError("app event without app_id")
        elif self.kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {self.kind!r}")
        elif self.app_id:
            raise ValueError(f"{self.kind} event carries app_id {self.app_id!r}")


@dataclass(slots=True)
class Session:
    """One unlock-to-lock usage session with its app samples.

    ``samples`` are ordered ``(timestamp, app_id)`` pairs, all within
    ``[start, end]``.
    """

    start: int
    end: int
    samples: list[tuple[int, str]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError("session end precedes start")


@dataclass(slots=True)
class RowError:
    line: int
    message: str


@dataclass(slots=True)
class ParseReport:
    """Outcome of parsing one event-log file; malformed rows are dropped but
    never silently: each one lands here."""

    rows_total: int = 0
    errors: list[RowError] = field(default_factory=list)


@dataclass(slots=True)
class SplitDataset:
    """Chronological train/test division of one user's sessions."""

    train: list[Session]
    test: list[Session]


def parse_event_log(source: str | Path | TextIO) -> tuple[list[RawEvent], ParseReport]:
    """Parse an event-log CSV into events, in file order.

    The schema is ``user_id,local_timestamp,kind,app_id`` with kind in
    {app, unlock, lock} and an empty app_id on unlock/lock rows. A row that
    does not make a valid RawEvent is dropped and recorded in the returned
    report.

    Raises FormatError if the header row is missing or wrong.
    """
    events: list[RawEvent] = []
    report = ParseReport()
    for lineno, fields in read_csv_rows(source, EVENT_LOG_HEADER):
        report.rows_total += 1
        try:
            user_id, ts, kind, app_id = fields
            events.append(RawEvent(user_id, int(ts), kind, app_id))
        except ValueError as exc:
            report.errors.append(RowError(lineno, str(exc)))
    return events, report


def write_event_log(events: Iterable[RawEvent], dest: str | Path | TextIO) -> None:
    """Write events as an event-log CSV (inverse of parse_event_log)."""
    body = ((ev.user_id, ev.local_timestamp, ev.kind, ev.app_id) for ev in events)
    write_csv(dest, chain([EVENT_LOG_HEADER], body))


def group_by_user(events: Iterable[RawEvent]) -> dict[str, list[RawEvent]]:
    """Split a mixed event stream into per-user streams, preserving order."""
    out: dict[str, list[RawEvent]] = {}
    for ev in events:
        out.setdefault(ev.user_id, []).append(ev)
    return out


def sessionize(events: Sequence[RawEvent], idle_gap: float = DEFAULT_IDLE_GAP) -> list[Session]:
    """Reconstruct usage sessions for a single user's event stream.

    Sessions are bounded by unlock/lock pairs where those events exist.
    App events outside any unlock/lock bracket open an implicit session,
    which ends at its last app event when the next app event or lock comes
    more than ``idle_gap`` seconds later. Sessions containing no app
    samples are dropped, so the app events partition exactly over the
    returned sessions.
    """
    users = {ev.user_id for ev in events}
    if len(users) > 1:
        raise ValueError(f"sessionize expects one user, got {sorted(users)}")
    ordered = sorted(events, key=lambda ev: ev.local_timestamp)  # stable tie-break

    sessions: list[Session] = []
    cur: Session | None = None
    explicit = False  # cur was opened by an unlock event

    def close(end: int | None = None) -> None:
        nonlocal cur
        if cur is not None and cur.samples:
            last = cur.samples[-1][0]
            cur.end = last if end is None else max(last, end)
            sessions.append(cur)
        cur = None

    for ev in ordered:
        if cur is not None and not explicit and ev.local_timestamp - cur.samples[-1][0] > idle_gap:
            close()  # the implicit session went idle before this event
        if ev.kind == "unlock":
            close()
            cur = Session(ev.local_timestamp, ev.local_timestamp)
            explicit = True
        elif ev.kind == "lock":
            if cur is None:
                log.warning("lock at t=%d with no open session; ignored", ev.local_timestamp)
                continue
            close(end=ev.local_timestamp)
        else:  # app
            if cur is None:
                cur = Session(ev.local_timestamp, ev.local_timestamp)
                explicit = False
            cur.samples.append((ev.local_timestamp, ev.app_id))
    close()
    return sessions


def resample_sessions(sessions: Sequence[Session], period: int) -> list[Session]:
    """Resample each session's foreground app on a fixed grid.

    Within a session, samples are emitted at the first app event and then
    every ``period`` seconds up to the session end; each sample carries the
    app of the most recent app event at or before that instant. For sessions
    derived from app activity the anchor coincides with the session start.
    """
    if period <= 0:
        raise ValueError("period must be positive")
    out: list[Session] = []
    for sess in sessions:
        if not sess.samples:
            continue
        anchor = sess.samples[0][0]
        resampled: list[tuple[int, str]] = []
        i = 0
        t = anchor
        while t <= sess.end:
            while i + 1 < len(sess.samples) and sess.samples[i + 1][0] <= t:
                i += 1
            resampled.append((t, sess.samples[i][1]))
            t += period
        out.append(Session(sess.start, sess.end, resampled))
    return out


def split_sessions(sessions: Sequence[Session], train_fraction: float) -> SplitDataset:
    """Session-aware chronological split at the sample level.

    The earliest floor(train_fraction * total) samples, clamped so each side
    keeps at least one, go to train; a session straddling the boundary is
    divided into a train fragment and a test fragment so no sample is lost.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    total = sum(len(s.samples) for s in sessions)
    if total < 2:
        raise ValueError(f"need at least 2 samples to split, got {total}")
    n_train = math.floor(train_fraction * total)
    n_train = min(max(n_train, 1), total - 1)

    train: list[Session] = []
    test: list[Session] = []
    remaining = n_train
    for sess in sessions:
        if not sess.samples:
            continue
        k = len(sess.samples)
        if remaining >= k:
            train.append(sess)
            remaining -= k
        elif remaining <= 0:
            test.append(sess)
        else:
            head = sess.samples[:remaining]
            tail = sess.samples[remaining:]
            train.append(Session(sess.start, head[-1][0], head))
            test.append(Session(tail[0][0], sess.end, tail))
            remaining = 0
    return SplitDataset(train, test)
