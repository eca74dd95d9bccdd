"""Access-log ingestion: line parsing, page filtering, page catalog.

All timestamps are converted to UTC unix epoch seconds at parse time so
downstream gap arithmetic never sees mixed offsets.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from enum import Enum
from posixpath import splitext
from typing import Callable, Iterable, Iterator, NamedTuple
from urllib.parse import urlsplit


class UnreadableSource(Exception):
    """The underlying stream failed mid-read; parsing cannot continue."""


class LogFormat(str, Enum):
    CLF = "clf"
    COMBINED = "combined"
    CSV = "csv"


class LogRecord(NamedTuple):
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
# a CLF stamp, captured as the date, hh, mm, ss and the zone
_STAMP = r"(\d{1,2}/[A-Za-z]{3}/\d{4}):(\d{2}):(\d{2}):(\d{2}) ([+-]\d{4})"
_TS_RE = re.compile(f"^{_STAMP}$")
# The common line in one match: the grammar above with the stamp and a
# three-word request folded in; it captures host, authuser, the stamp whole
# and in parts, the request target and the status (and the Combined tail).
_CLF_LINE = r'^(\S+) \S+ (\S+) \[(' + _STAMP + r')\] "[^" ]* ([^" ]+) [^" ]*" (\d{3}) (?:-|\d+)'
_CLF_LINE_RE = re.compile(_CLF_LINE + r"\s*$")
_COMBINED_LINE_RE = re.compile(_CLF_LINE + r' "([^"]*)" "([^"]*)"\s*$')
_CSV_EPOCH_RE = re.compile(r"-?\d+")
_CSV_ISO_RE = re.compile(
    r"(\d{4})-(\d{2})-(\d{2})[T ](\d{2}):(\d{2}):(\d{2})(?:([+-])(\d{2}):?(\d{2}))?"
)

_MONTHS = {
    "Jan": 1, "Feb": 2, "Mar": 3, "Apr": 4, "May": 5, "Jun": 6,
    "Jul": 7, "Aug": 8, "Sep": 9, "Oct": 10, "Nov": 11, "Dec": 12,
}
_MONTH_ABBR = {v: k for k, v in _MONTHS.items()}

_EPOCH = datetime(1970, 1, 1)
_SECOND = timedelta(seconds=1)


def _zone_offset(sign: str, hh: str, mm: str) -> int:
    """Seconds east of UTC of a ``+hhmm`` zone; an offset past 23:59 is
    rejected rather than shifting the record."""
    hours, minutes = int(hh), int(mm)
    if hours > 23 or minutes > 59:
        raise ValueError(f"bad zone offset: {sign}{hh}{mm}")
    offset = hours * 3600 + minutes * 60
    return offset if sign == "+" else -offset


def _utc_midnight(day_key: tuple, hour: int, minute: int, second: int) -> int:
    """UTC epoch of local midnight on the day ``(day, month, year, sign, hh,
    mm)``, with the month a number or an English abbreviation and no sign
    meaning UTC.  An instant that does not exist is rejected rather than
    wrapped (31 Feb is not 3 Mar): the month name, then the year, month,
    day, hour, minute and second (in that order, by :class:`datetime`),
    then the zone."""
    day, month, year, sign, oh, om = day_key
    number = int(month) if month.isdigit() else _MONTHS.get(month.title())
    if number is None:
        raise ValueError(f"bad month: {month!r}")
    naive = (datetime(int(year), number, int(day), hour, minute, second) - _EPOCH) // _SECOND
    if sign:
        naive -= _zone_offset(sign, oh, om)
    return naive - (hour * 3600 + minute * 60 + second)


def _utc_epoch(midnights: dict[tuple, int], day_key: tuple, hh: str, mm: str, ss: str) -> int:
    """UTC epoch of a stamp; ``midnights`` memoizes :func:`_utc_midnight` by
    day and zone, so the calendar is worked out once per distinct pair."""
    hour, minute, second = int(hh), int(mm), int(ss)
    midnight = midnights.get(day_key)
    # an out-of-range time of day takes the checked path, which rejects it
    if midnight is None or hour > 23 or minute > 59 or second > 59:
        midnight = midnights[day_key] = _utc_midnight(day_key, hour, minute, second)
    return midnight + hour * 3600 + minute * 60 + second


def _clf_epoch(text: str, dates: dict[str, int]) -> int:
    """UTC epoch of a CLF stamp, checked in full; only then is the UTC
    midnight of its date and zone stored in ``dates`` under ``date + zone``,
    the memo a line's one-pattern path reads."""
    m = _TS_RE.match(text)
    if not m:
        raise ValueError(f"bad timestamp: {text!r}")
    date, hh, mm, ss, zone = m.groups()
    hour, minute, second = int(hh), int(mm), int(ss)
    day_key = (*date.split("/"), zone[0], zone[1:3], zone[3:])
    midnight = dates[date + zone] = _utc_midnight(day_key, hour, minute, second)
    return midnight + hour * 3600 + minute * 60 + second


def parse_clf_timestamp(text: str) -> int:
    """Parse ``10/Mar/2014:13:55:36 +0000`` into UTC epoch seconds."""
    return _clf_epoch(text, {})


def render_clf_timestamp(epoch: int, dates: dict[int, str]) -> str:
    """CLF stamp of a UTC epoch, always rendered as +0000; ``dates``
    memoizes its date part by day number, so the calendar is worked out
    once per distinct day."""
    day, second = divmod(epoch, 86400)
    date = dates.get(day)
    if date is None:
        t = _EPOCH + timedelta(days=day)
        date = dates[day] = f"{t.day:02d}/{_MONTH_ABBR[t.month]}/{t.year}"
    return "%s:%02d:%02d:%02d +0000" % (date, second // 3600, second // 60 % 60, second % 60)


def format_clf_timestamp(epoch: int) -> str:
    """Inverse of :func:`parse_clf_timestamp`, always rendered as +0000;
    epochs before 1970 too, back to year 1."""
    return render_clf_timestamp(epoch, {})


def normalize_resource(raw: str) -> str:
    """Reduce a request target to a page identity.

    Query strings and fragments are dropped, the path is lowercased and a
    trailing slash is stripped (the site root stays ``/``).
    """
    path = urlsplit(raw).path.lower()
    if len(path) > 1:
        path = path.rstrip("/") or "/"
    return path or "/"


def _line_parser(
    fmt: LogFormat, pages: dict[str, str], clients: dict[str, str], dates: dict
) -> Callable[[str], LogRecord]:
    """The checked parser of one stripped line, which takes it apart step by
    step and names the first fault.  It fills the memos of one
    :func:`iter_records` call, which that call's one-pattern path reads:
    ``pages`` maps each distinct request target, keyed with the query cut
    off (which :func:`normalize_resource` drops anyway), to its page;
    ``clients`` holds one shared string per client; ``dates`` maps each
    distinct day and zone to its UTC midnight (for CLF and Combined keyed by
    the date and zone strings, and filled only once this path has validated
    them).  Records therefore share one string per page and per client."""

    def page(target: str) -> str:
        key = target.partition("?")[0]
        resource = pages.get(key)
        if resource is None:
            resource = pages[key] = normalize_resource(key)
        return resource

    if fmt is LogFormat.CSV:

        def parse_csv(line: str) -> LogRecord:
            parts = line.rstrip("\r\n").split(",")
            if len(parts) != 3:
                raise ValueError(f"expected client_id,timestamp,resource: {line!r}")
            client, ts_text, raw = (p.strip() for p in parts)
            if not client or not raw:
                raise ValueError("empty client or resource")
            ts_text = ts_text.replace("Z", "+0000")
            if _CSV_EPOCH_RE.fullmatch(ts_text):
                ts = int(ts_text)
            else:
                m = _CSV_ISO_RE.fullmatch(ts_text)
                if not m:
                    raise ValueError(f"bad timestamp: {ts_text!r}")
                ts = _utc_epoch(dates, m.group(3, 2, 1, 7, 8, 9), *m.group(4, 5, 6))
            return LogRecord(clients.setdefault(client, client), ts, page(raw), 200)

        return parse_csv

    with_tail = fmt is LogFormat.COMBINED
    match = (_COMBINED_RE if with_tail else _CLF_RE).match

    def checked(line: str) -> LogRecord:
        m = match(line)
        if not m:
            raise ValueError("line does not match format grammar")
        host, authuser, ts, request, status = m.group(1, 3, 4, 5, 6)
        parts = request.split(" ")
        if len(parts) != 3 or not parts[1]:
            raise ValueError(f"bad request field: {request!r}")
        resource = page(parts[1])
        referrer = user_agent = None
        if with_tail:
            referrer, user_agent = m.group(8, 9)
            referrer = referrer if referrer not in ("", "-") else None
            user_agent = user_agent if user_agent not in ("", "-") else None
        # a resolved user identity is a stronger client key than the raw host
        client = authuser if authuser not in ("", "-") else host
        return LogRecord(
            clients.setdefault(client, client),
            _clf_epoch(ts, dates),
            resource,
            int(status),
            referrer,
            user_agent,
        )

    return checked


_DROPPED = -1  # the verdict on a dropped page and status; no status code is negative


def _verdict(
    codes: dict[tuple[str, str], int], policy: FilterPolicy | None, resource: str, status: str
) -> int:
    """The status code a kept record of ``resource`` answered with the
    status text ``status`` carries, or :data:`_DROPPED` when ``policy``
    drops such a record.  The policy's verdict depends only on the page and
    the status, so it is asked once per distinct pair and kept in
    ``codes``."""
    key = resource, status
    code = codes.get(key)
    if code is None:
        code = int(status)
        if policy is not None and not policy.keeps(LogRecord("", 0, resource, code)):
            code = _DROPPED
        codes[key] = code
    return code


def iter_records(
    source: Iterable[str],
    fmt: LogFormat,
    malformed: list[MalformedLine],
    policy: FilterPolicy | None = None,
) -> Iterator[LogRecord]:
    """Parse a line-oriented stream in the declared format, yielding one
    record per well-formed line that ``policy`` keeps (every one when it is
    ``None``), in input order, so that a caller holds only the records it
    keeps.  Each malformed line is appended to ``malformed`` (never raised),
    so a single bad line cannot abort a multi-gigabyte ingest; a line is
    checked in full before the policy sees it, so a dropped line can still
    be malformed.  I/O failures raise :class:`UnreadableSource`."""
    pages: dict[str, str] = {}
    clients: dict[str, str] = {}
    dates: dict = {}
    codes: dict[tuple[str, str], int] = {}
    checked = _line_parser(fmt, pages, clients, dates)
    with_tail = fmt is LogFormat.COMBINED
    match_line = None
    if fmt is not LogFormat.CSV:
        match_line = (_COMBINED_LINE_RE if with_tail else _CLF_LINE_RE).match
    new_record = tuple.__new__  # the record without NamedTuple's Python-level __new__
    # the last stamp the one-pattern path validated, and its epoch
    last_stamp, epoch = None, 0
    lineno = 0
    try:
        for line in source:
            lineno += 1
            # A CLF or Combined line in one match of the line as read (the
            # pattern's `\s*$` takes its end) and memo reads: the previous
            # line's stamp, else the date and zone with the time of day
            # checked; the page; and the verdict on the page and status.  A
            # line the pattern rejects, or whose stamp or page the memos
            # cannot vouch for, takes the checked path, which parses it or
            # names the fault.
            if match_line is not None and (m := match_line(line)) is not None:
                if with_tail:
                    (host, authuser, stamp, date, hh, mm, ss, zone, target, status,
                     referrer, user_agent) = m.groups()
                else:
                    host, authuser, stamp, date, hh, mm, ss, zone, target, status = m.groups()
                resource = pages.get(target.partition("?")[0])
                if stamp != last_stamp:
                    midnight = dates.get(date + zone)
                    hour, minute, second = int(hh), int(mm), int(ss)
                    if midnight is not None and hour < 24 and minute < 60 and second < 60:
                        last_stamp = stamp
                        epoch = midnight + hour * 3600 + minute * 60 + second
                if resource is not None and stamp == last_stamp:
                    code = codes.get((resource, status))
                    if code is None:
                        code = _verdict(codes, policy, resource, status)
                    if code == _DROPPED:
                        continue
                    if with_tail:
                        referrer = referrer if referrer not in ("", "-") else None
                        user_agent = user_agent if user_agent not in ("", "-") else None
                    else:
                        referrer = user_agent = None
                    client = host if authuser == "-" else authuser
                    yield new_record(
                        LogRecord,
                        (
                            clients.setdefault(client, client),
                            epoch,
                            resource,
                            code,
                            referrer,
                            user_agent,
                        ),
                    )
                    continue
            stripped = line.strip()
            if not stripped:
                malformed.append(MalformedLine(lineno, "blank line"))
                continue
            try:
                record = checked(stripped)
            except ValueError as exc:
                malformed.append(MalformedLine(lineno, str(exc)))
                continue
            if policy is not None:
                if _verdict(codes, policy, record.resource, str(record.status)) == _DROPPED:
                    continue
            yield record
    except OSError as exc:
        raise UnreadableSource(str(exc)) from exc


def parse_log(source: Iterable[str], fmt: LogFormat = LogFormat.CLF) -> ParseResult:
    """Parse a line-oriented stream in the declared format: every record of
    :func:`iter_records`, in input order, and every malformed line.  I/O
    failures raise :class:`UnreadableSource`."""
    malformed: list[MalformedLine] = []
    return ParseResult(records=list(iter_records(source, fmt, malformed)), malformed=malformed)


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
    """Drop asset requests and non-successful responses, preserving order.

    The policy's verdict depends only on a record's resource and status,
    so it is decided once per distinct pair of them.
    """
    policy = policy or FilterPolicy()
    verdicts: dict[tuple[str, int], bool] = {}
    kept = []
    for record in records:
        key = record.resource, record.status
        keep = verdicts.get(key)
        if keep is None:
            keep = verdicts[key] = policy.keeps(record)
        if keep:
            kept.append(record)
    return kept


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


def dump_records_jsonl(records: Iterable[LogRecord]) -> Iterator[str]:
    """One JSON object per record, stable key order, yielded line by line so
    a large dump is never held whole in memory."""
    for record in records:
        yield json.dumps(record._asdict(), sort_keys=True, separators=(",", ":")) + "\n"


def iter_lines(path: str) -> Iterator[str]:
    with open(path, "r", encoding="utf-8", errors="replace") as fp:
        yield from fp
