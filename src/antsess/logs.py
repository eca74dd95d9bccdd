"""Access-log ingestion: line parsing, page filtering, page catalog.

All timestamps are converted to UTC unix epoch seconds at parse time so
downstream gap arithmetic never sees mixed offsets.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from enum import Enum
from posixpath import splitext
from typing import Iterable, Iterator, Sequence
from urllib.parse import urlsplit


class UnreadableSource(Exception):
    """The underlying stream failed mid-read; parsing cannot continue."""


class LogFormat(str, Enum):
    CLF = "clf"
    COMBINED = "combined"
    CSV = "csv"


@dataclass(frozen=True)
class LogRecord:
    """One page request: who asked for what, when, with what outcome."""

    client_id: str
    timestamp: int  # unix epoch seconds, UTC
    resource: str
    status: int
    referrer: str | None = None
    user_agent: str | None = None


@dataclass(frozen=True)
class MalformedLine:
    """A skipped input line, reported with its 1-based line number."""

    line_number: int
    reason: str


@dataclass
class ParseResult:
    records: list[LogRecord]
    malformed: list[MalformedLine]


_CLF_RE = re.compile(
    r'^(\S+) (\S+) (\S+) \[([^\]]+)\] "([^"]*)" (\d{3}) (-|\d+)\s*$'
)
_COMBINED_RE = re.compile(
    r'^(\S+) (\S+) (\S+) \[([^\]]+)\] "([^"]*)" (\d{3}) (-|\d+)'
    r' "([^"]*)" "([^"]*)"\s*$'
)
_TS_RE = re.compile(
    r"^(\d{1,2})/([A-Za-z]{3})/(\d{4}):(\d{2}):(\d{2}):(\d{2}) ([+-])(\d{2})(\d{2})$"
)

_MONTHS = {
    "Jan": 1, "Feb": 2, "Mar": 3, "Apr": 4, "May": 5, "Jun": 6,
    "Jul": 7, "Aug": 8, "Sep": 9, "Oct": 10, "Nov": 11, "Dec": 12,
}
_MONTH_ABBR = {v: k for k, v in _MONTHS.items()}

_DAYS_BEFORE_MONTH = (0, 0, 31, 59, 90, 120, 151, 181, 212, 243, 273, 304, 334)
_DAYS_IN_MONTH = (0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)


def _naive_seconds(
    year: int, month: int, day: int, hour: int, minute: int, second: int
) -> int:
    """Epoch seconds of a calendar instant; rejects instants that do not exist
    rather than wrapping them (31 Feb is not 3 Mar)."""
    if year < 1 or not 1 <= month <= 12:
        raise ValueError(f"bad date: year {year}, month {month}")
    leap = year % 4 == 0 and (year % 100 != 0 or year % 400 == 0)
    if not 1 <= day <= _DAYS_IN_MONTH[month] + (month == 2 and leap):
        raise ValueError(f"bad date: day {day} of month {month} in {year}")
    if hour > 23 or minute > 59 or second > 59:
        raise ValueError(f"bad time of day: {hour:02d}:{minute:02d}:{second:02d}")
    y = year - 1
    days = y * 365 + y // 4 - y // 100 + y // 400 + _DAYS_BEFORE_MONTH[month]
    if month > 2 and leap:
        days += 1
    days += day - 1 - 719162  # 719162 days from year 1 to 1970-01-01
    return days * 86400 + hour * 3600 + minute * 60 + second


def _zone_offset(sign: str, hh: str, mm: str) -> int:
    """Seconds east of UTC of a ``+hhmm`` zone; an offset past 23:59 is
    rejected rather than shifting the record."""
    hours, minutes = int(hh), int(mm)
    if hours > 23 or minutes > 59:
        raise ValueError(f"bad zone offset: {sign}{hh}{mm}")
    offset = hours * 3600 + minutes * 60
    return offset if sign == "+" else -offset


def parse_clf_timestamp(text: str) -> int:
    """Parse ``10/Mar/2014:13:55:36 +0000`` into UTC epoch seconds."""
    m = _TS_RE.match(text)
    if not m:
        raise ValueError(f"bad timestamp: {text!r}")
    day, mon, year, hh, mm, ss, sign, oh, om = m.groups()
    month = _MONTHS.get(mon.title())
    if month is None:
        raise ValueError(f"bad month: {mon!r}")
    naive = _naive_seconds(int(year), month, int(day), int(hh), int(mm), int(ss))
    return naive - _zone_offset(sign, oh, om)


def format_clf_timestamp(epoch: int) -> str:
    """Inverse of :func:`parse_clf_timestamp`, always rendered as +0000."""
    days, rem = divmod(epoch, 86400)
    hh, rem = divmod(rem, 3600)
    mm, ss = divmod(rem, 60)
    # walk years forward; log timestamps are modern so the loop is short
    year, d = 1970, days
    while True:
        leap = year % 4 == 0 and (year % 100 != 0 or year % 400 == 0)
        ydays = 366 if leap else 365
        if d < ydays:
            break
        d -= ydays
        year += 1
    month = 1
    while month < 12:
        mdays = _DAYS_BEFORE_MONTH[month + 1] - _DAYS_BEFORE_MONTH[month]
        if month == 2 and leap:
            mdays += 1
        if d < mdays:
            break
        d -= mdays
        month += 1
    return (
        f"{d + 1:02d}/{_MONTH_ABBR[month]}/{year}:{hh:02d}:{mm:02d}:{ss:02d} +0000"
    )


def normalize_resource(raw: str) -> str:
    """Reduce a request target to a page identity.

    Query strings and fragments are dropped, the path is lowercased and a
    trailing slash is stripped (the site root stays ``/``).
    """
    path = urlsplit(raw).path.lower()
    if len(path) > 1:
        path = path.rstrip("/") or "/"
    return path or "/"


def _parse_clf_fields(groups: Sequence[str], with_tail: bool) -> LogRecord:
    host, _ident, authuser, ts, request, status, _nbytes = groups[:7]
    parts = request.split(" ")
    if len(parts) != 3 or not parts[1]:
        raise ValueError(f"bad request field: {request!r}")
    resource = normalize_resource(parts[1])
    if not resource:
        raise ValueError("empty resource after normalization")
    referrer = user_agent = None
    if with_tail:
        referrer = groups[7] if groups[7] not in ("", "-") else None
        user_agent = groups[8] if groups[8] not in ("", "-") else None
    # a resolved user identity is a stronger client key than the raw host
    client = authuser if authuser not in ("", "-") else host
    return LogRecord(
        client_id=client,
        timestamp=parse_clf_timestamp(ts),
        resource=resource,
        status=int(status),
        referrer=referrer,
        user_agent=user_agent,
    )


def _parse_csv_line(line: str) -> LogRecord:
    parts = line.rstrip("\r\n").split(",")
    if len(parts) != 3:
        raise ValueError(f"expected client_id,timestamp,resource: {line!r}")
    client, ts_text, raw = (p.strip() for p in parts)
    if not client or not raw:
        raise ValueError("empty client or resource")
    ts_text = ts_text.replace("Z", "+0000")
    if re.fullmatch(r"-?\d+", ts_text):
        ts = int(ts_text)
    else:
        m = re.fullmatch(
            r"(\d{4})-(\d{2})-(\d{2})[T ](\d{2}):(\d{2}):(\d{2})(?:([+-])(\d{2}):?(\d{2}))?",
            ts_text,
        )
        if not m:
            raise ValueError(f"bad timestamp: {ts_text!r}")
        y, mo, d, hh, mm, ss, sign, oh, om = m.groups()
        ts = _naive_seconds(int(y), int(mo), int(d), int(hh), int(mm), int(ss))
        if sign:
            ts -= _zone_offset(sign, oh, om)
    return LogRecord(client_id=client, timestamp=ts, resource=normalize_resource(raw), status=200)


def parse_log(source: Iterable[str], fmt: LogFormat = LogFormat.CLF) -> ParseResult:
    """Parse a line-oriented stream in the declared format.

    Well-formed lines yield one record each, in input order.  Malformed
    lines are collected (never raised) so a single bad line cannot abort a
    multi-gigabyte ingest.  I/O failures raise :class:`UnreadableSource`.
    """
    records: list[LogRecord] = []
    malformed: list[MalformedLine] = []
    lineno = 0
    try:
        for line in source:
            lineno += 1
            stripped = line.strip()
            if not stripped:
                malformed.append(MalformedLine(lineno, "blank line"))
                continue
            try:
                if fmt is LogFormat.CSV:
                    records.append(_parse_csv_line(stripped))
                else:
                    regex = _COMBINED_RE if fmt is LogFormat.COMBINED else _CLF_RE
                    m = regex.match(stripped)
                    if not m:
                        raise ValueError("line does not match format grammar")
                    records.append(
                        _parse_clf_fields(m.groups(), with_tail=fmt is LogFormat.COMBINED)
                    )
            except ValueError as exc:
                malformed.append(MalformedLine(lineno, str(exc)))
    except OSError as exc:
        raise UnreadableSource(str(exc)) from exc
    return ParseResult(records=records, malformed=malformed)


def format_clf(record: LogRecord, nbytes: int = 1024) -> str:
    """Render a record back into a Common Log Format line."""
    return (
        f"{record.client_id} - - [{format_clf_timestamp(record.timestamp)}] "
        f'"GET {record.resource} HTTP/1.1" {record.status} {nbytes}'
    )


DEFAULT_EXCLUDED_EXTENSIONS = frozenset(
    {".gif", ".jpg", ".jpeg", ".png", ".css", ".js", ".ico"}
)
DEFAULT_ACCEPTED_STATUSES = frozenset(range(200, 300)) | {304}


@dataclass(frozen=True)
class FilterPolicy:
    """Which requests count as page views."""

    excluded_extensions: frozenset[str] = DEFAULT_EXCLUDED_EXTENSIONS
    accepted_statuses: frozenset[int] = DEFAULT_ACCEPTED_STATUSES

    def keeps(self, record: LogRecord) -> bool:
        if record.status not in self.accepted_statuses:
            return False
        return splitext(record.resource)[1] not in self.excluded_extensions


def filter_page_requests(
    records: Iterable[LogRecord], policy: FilterPolicy | None = None
) -> list[LogRecord]:
    """Drop asset requests and non-successful responses, preserving order."""
    policy = policy or FilterPolicy()
    return [r for r in records if policy.keeps(r)]


@dataclass(frozen=True)
class PageCatalog:
    """Distinct page paths in order of first appearance; fixes the page
    coordinate used by every session vector."""

    pages: tuple[str, ...]
    index: dict[str, int] = field(compare=False)

    @property
    def size(self) -> int:
        return len(self.pages)


def build_catalog(records: Iterable[LogRecord]) -> PageCatalog:
    index: dict[str, int] = {}
    for record in records:
        if record.resource not in index:
            index[record.resource] = len(index)
    return PageCatalog(pages=tuple(index), index=index)


def record_to_dict(record: LogRecord) -> dict:
    return {
        "client_id": record.client_id,
        "timestamp": record.timestamp,
        "resource": record.resource,
        "status": record.status,
        "referrer": record.referrer,
        "user_agent": record.user_agent,
    }


def dump_records_jsonl(records: Iterable[LogRecord]) -> str:
    """One JSON object per record, stable key order."""
    return "".join(
        json.dumps(record_to_dict(r), sort_keys=True, separators=(",", ":")) + "\n"
        for r in records
    )


def iter_lines(path: str) -> Iterator[str]:
    with open(path, "r", encoding="utf-8", errors="replace") as fp:
        yield from fp
