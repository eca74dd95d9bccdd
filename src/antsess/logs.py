"""Access-log ingestion: line parsing, page filtering, page catalog.

All timestamps are converted to UTC unix epoch seconds at parse time so
downstream gap arithmetic never sees mixed offsets.
"""

from __future__ import annotations

import re
from datetime import datetime, timedelta
from enum import Enum
from functools import partial
from itertools import islice
from json.encoder import encode_basestring_ascii as _quote
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


class MalformedLine(NamedTuple):
    """A skipped input line, reported with its 1-based line number."""

    line_number: int
    reason: str


class ParseResult(NamedTuple):
    records: list[LogRecord]
    malformed: list[MalformedLine]


# the seven fields of a Common Log Format line, which Combined extends
_CLF_FIELDS = r'^(\S+) (\S+) (\S+) \[([^\]]+)\] "([^"]*)" (\d{3}) (-|\d+)'
_CLF_RE = re.compile(_CLF_FIELDS + r"\s*$")
_COMBINED_RE = re.compile(_CLF_FIELDS + r' "([^"]*)" "([^"]*)"\s*$')
# a CLF stamp, captured as the date, hh, mm, ss and the zone
_STAMP = r"(\d{1,2}/[A-Za-z]{3}/\d{4}):(\d{2}):(\d{2}):(\d{2}) ([+-]\d{4})"
_TS_RE = re.compile(f"^{_STAMP}$")
# The common line in one match: the grammar above with the stamp and a
# three-word request folded in; it captures host, authuser, the whole stamp
# (``dd/Mon/yyyy:hh:mm:ss +zzzz``), the request from its target to its status
# (``/a.html HTTP/1.1" 200``) and the Combined tail.  Its digits are ASCII
# (``[0-9]``), so a line with any other digit ``\d`` matches in its stamp,
# status or byte count is no row and takes the checked path.
# No class crosses a "\n", so under re.M a match is one whole line of a
# block of lines joined, and a line ends in any whitespace but "\n".  Any
# other line is a row of empty groups, so every line is one row.
# Each fixed count is spelled out (``[0-9][0-9]`` for ``[0-9]{2}``,
# ``[0-9][0-9]?`` for ``[0-9]{1,2}``): the language and the groups are those
# of the counted repeats, and ``re`` matches a run of single classes faster.
_LINE_STAMP = (
    r"([0-9][0-9]?/[A-Za-z][A-Za-z][A-Za-z]/[0-9][0-9][0-9][0-9]"
    r":[0-9][0-9]:[0-9][0-9]:[0-9][0-9] [+-][0-9][0-9][0-9][0-9])"
)
_REQUEST = r'"[^" \n]* ([^" \n]+ [^" \n]*" [0-9][0-9][0-9])'
_CLF_LINE = r"(\S+) \S+ (\S+) \[" + _LINE_STAMP + r"\] " + _REQUEST + r" (?:-|[0-9]+)"
_CLF_LINES_RE = re.compile(rf"^(?:{_CLF_LINE}[^\S\n]*|[^\n]*)$", re.M)
_COMBINED_LINES_RE = re.compile(rf'^(?:{_CLF_LINE} "([^"\n]*)" "([^"\n]*)"[^\S\n]*|[^\n]*)$', re.M)
_NO_ROW = ("",)  # the row of a line that no pattern takes
_ABSENT = ("", "-")  # a field's text where the line gives no value
BLOCK = 1 << 16  # characters of lines read, and matched, at a time
PROBE = 4  # a block's first lines, of which the pattern must take one
_CSV_EPOCH_RE = re.compile(r"-?\d+")
_CSV_ISO_RE = re.compile(
    r"(\d{4})-(\d{2})-(\d{2})[T ](\d{2}):(\d{2}):(\d{2})(?:([+-])(\d{2}):?(\d{2}))?"
)

_MONTHS = {
    "Jan": 1, "Feb": 2, "Mar": 3, "Apr": 4, "May": 5, "Jun": 6,
    "Jul": 7, "Aug": 8, "Sep": 9, "Oct": 10, "Nov": 11, "Dec": 12,
}
_MONTH_ABBR = {v: k for k, v in _MONTHS.items()}
# The seconds since midnight of each ``hh:mm`` from 00:00 to 23:59, and the
# value of each ``ss`` from 00 to 59; the pattern's digits are ASCII.  Any
# other text (``24:00`` or ``60``) is a miss, and a row with one takes the
# checked path.
_CLOCK = {f"{h:02d}:{m:02d}": h * 3600 + m * 60 for h in range(24) for m in range(60)}
_SECONDS = {f"{s:02d}": s for s in range(60)}

_EPOCH = datetime(1970, 1, 1)
_SECOND = timedelta(seconds=1)
# the calendar's first and last second, in UTC: the years a stamp can name
FIRST_EPOCH = -62135596800  # 0001-01-01 00:00:00 UTC
LAST_EPOCH = 253402300799  # 9999-12-31 23:59:59 UTC


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


def _on_calendar(epoch: int, text: str) -> int:
    """``epoch``, read from the stamp ``text``, once it lies in years 1-9999."""
    if not FIRST_EPOCH <= epoch <= LAST_EPOCH:
        raise ValueError(f"timestamp outside years 1-9999: {text!r}")
    return epoch


def _utc_epoch(midnights: dict, key, day_key: tuple, hh: str, mm: str, ss: str, text: str) -> int:
    """UTC epoch of the stamp ``text``, ``hh:mm:ss`` on the day and zone
    ``day_key``, whose midnight ``midnights`` memoizes under ``key``.  Only a
    day that lies whole in years 1-9999 is stored, so a row of a block that
    reads the memo alone needs no bounds check."""
    hour, minute, second = int(hh), int(mm), int(ss)
    midnight = midnights.get(key)
    # an out-of-range time of day is worked out again, which rejects it
    if midnight is None or hour > 23 or minute > 59 or second > 59:
        midnight = _utc_midnight(day_key, hour, minute, second)
        if FIRST_EPOCH <= midnight <= LAST_EPOCH - 86399:
            midnights[key] = midnight
    return _on_calendar(midnight + hour * 3600 + minute * 60 + second, text)


def _clf_epoch(text: str, dates: dict[str, int]) -> int:
    """UTC epoch of a CLF stamp, checked in full; ``dates`` is the memo of
    :func:`_utc_epoch`, keyed ``date + zone`` as a row of a block reads it."""
    m = _TS_RE.match(text)
    if not m:
        raise ValueError(f"bad timestamp: {text!r}")
    date, hh, mm, ss, zone = m.groups()
    day_key = (*date.split("/"), zone[0], zone[1:3], zone[3:])
    return _utc_epoch(dates, date + zone, day_key, hh, mm, ss, text)


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
        date = dates[day] = f"{t.day:02d}/{_MONTH_ABBR[t.month]}/{t.year:04d}"
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
    :func:`read_log` call, which that call's rows of a block's pattern read:
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
                ts = _on_calendar(int(ts_text), ts_text)
            else:
                m = _CSV_ISO_RE.fullmatch(ts_text)
                if not m:
                    raise ValueError(f"bad timestamp: {ts_text!r}")
                day_key = m.group(3, 2, 1, 7, 8, 9)
                ts = _utc_epoch(dates, day_key, day_key, *m.group(4, 5, 6), ts_text)
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
            referrer, user_agent = (v if v not in _ABSENT else None for v in m.group(8, 9))
        # a resolved user identity is a stronger client key than the raw host
        client = authuser if authuser not in _ABSENT else host
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
        if policy is not None and not policy.keeps(resource, code):
            code = _DROPPED
        codes[key] = code
    return code


def _blocks(source: Iterable[str], pattern: re.Pattern | None) -> Iterator[tuple[list, list]]:
    """Blocks of lines of ``source``, each line with its row of ``pattern``,
    whose first group is empty where the pattern rejects the line.  Every
    line without a "\\n" is a row, so one ``findall`` over a block of a text
    file, whose lines end at their one "\\n", gives row *k* to line *k*; any
    other block is matched line by line.  No line has a row when there is no
    pattern (CSV) or it rejects each of the block's first :data:`PROBE`
    lines (a log read in the wrong format)."""
    is_file = hasattr(source, "readlines")
    take = partial(islice, iter(source), BLOCK // 80 + 1)
    blocks = iter(partial(source.readlines, BLOCK) if is_file else lambda: list(take()), [])
    for lines in blocks:
        rows = [_NO_ROW] * len(lines)
        if pattern and any(
            m and m[1] for m in (pattern.fullmatch(line.rstrip("\n")) for line in lines[:PROBE])
        ):
            rows = pattern.findall("".join(lines)) if is_file else []
            if len(rows) != len(lines) + lines[-1].endswith("\n"):
                matches = map(pattern.fullmatch, [line.rstrip("\n") for line in lines])
                rows = [m.groups() if m else _NO_ROW for m in matches]
        yield lines, rows


def read_log(
    source: Iterable[str],
    fmt: LogFormat | str,
    malformed: list[MalformedLine],
    policy: FilterPolicy | None,
    views: PageViews,
    records: Callable[[LogRecord], object] | None = None,
) -> None:
    """Parse a line-oriented stream in the declared format, adding each
    well-formed line that ``policy`` keeps (all when it is ``None``), in
    input order, as a page view to the columns of ``views``; ``records``,
    if given, is called with each well-formed line's record as it is read.
    A malformed line is appended to ``malformed``, never raised, so one bad
    line cannot abort a large ingest; it is checked in full before the
    policy sees it, so a dropped line can be malformed.  I/O failures, the
    sink's too, raise :class:`UnreadableSource`, and a ``fmt`` that names
    no :class:`LogFormat` :class:`ValueError`."""
    fmt = LogFormat(fmt)
    pages: dict[str, str] = {}
    clients: dict[str, str] = {}
    dates: dict = {}
    codes: dict[tuple[str, str], int] = {}
    statuses: dict[str, int] = {}  # one shared int per status text, for a record
    checked = _line_parser(fmt, pages, clients, dates)
    with_tail = fmt is LogFormat.COMBINED
    pattern = {LogFormat.CLF: _CLF_LINES_RE, LogFormat.COMBINED: _COMBINED_LINES_RE}.get(fmt)
    index, columns = views.index, views.clients
    # a request group with its query cut off, to its page's index or _DROPPED
    requests: dict[str, int] = {}
    as_record = partial(tuple.__new__, LogRecord)  # without NamedTuple's Python-level __new__
    # the stamp last vouched for and its epoch, and the minute and zone last
    # read and the epoch of that minute (None where the memos could not vouch
    # for them)
    last_stamp = epoch = last_minute = last_zone = base = None
    referrer = user_agent = None  # a CLF row's, which has no Combined tail
    lineno = 1  # the number of a block's first line
    try:
        for lines, rows in _blocks(source, pattern):
            del rows[len(lines):]  # the empty row after a final "\n"
            for k, row in enumerate(rows):
                # A row and memo reads (a new stamp's minute, else its date,
                # zone and time of day, and its second; the request, else its
                # page and verdict).  A line that is no row or that the memos
                # cannot vouch for takes the checked path.
                if row[0]:
                    if with_tail:
                        host, authuser, stamp, request, referrer, user_agent = row
                    else:
                        host, authuser, stamp, request = row
                    if stamp != last_stamp:
                        minute, zone = stamp[:-9], stamp[-5:]
                        if minute != last_minute or zone != last_zone:
                            midnight = dates.get(minute[:-6] + zone)
                            clock = _CLOCK.get(minute[-5:])
                            last_zone = zone
                            if midnight is None or clock is None:
                                last_minute = base = None
                            else:
                                last_minute, base = minute, midnight + clock
                        sec = _SECONDS.get(stamp[-8:-6])
                        # one epoch object for all consecutive lines of one stamp
                        epoch = base + sec if base is not None and sec is not None else None
                        # an unvouched stamp is asked again, as the checked
                        # path may learn its date
                        last_stamp = stamp if epoch is not None else None
                    if "?" in request:
                        target, _, rest = request.partition(" ")
                        request = f"{target.partition('?')[0]} {rest}"
                    slot = requests.get(request)
                    # a page is numbered only at a line whose time is vouched for
                    if slot is None and epoch is not None:
                        resource = pages.get(request.partition(" ")[0])
                        if resource is not None:
                            slot = _verdict(codes, policy, resource, request[-3:])
                            if slot != _DROPPED:  # a kept page: its index
                                slot = index.setdefault(resource, len(index))
                            requests[request] = slot
                    if slot is not None and epoch is not None:
                        client = host if authuser == "-" else authuser
                        if records is not None:
                            status = request[-3:]
                            records(as_record((
                                clients.setdefault(client, client), epoch,
                                pages[request.partition(" ")[0]],
                                statuses.setdefault(status, int(status)),
                                referrer if referrer not in _ABSENT else None,
                                user_agent if user_agent not in _ABSENT else None,
                            )))
                        if slot == _DROPPED:
                            continue
                        column = columns.get(client) or columns.setdefault(client, ([], []))
                        column[0].append(epoch)
                        column[1].append(slot)
                        continue
                stripped = lines[k].strip()
                if not stripped:
                    malformed.append(MalformedLine(lineno + k, "blank line"))
                    continue
                try:
                    record = checked(stripped)
                except ValueError as exc:
                    malformed.append(MalformedLine(lineno + k, str(exc)))
                    continue
                if records is not None:
                    records(record)
                if _verdict(codes, policy, record.resource, str(record.status)) == _DROPPED:
                    continue
                client, when, resource = record[:3]
                column = columns.get(client) or columns.setdefault(client, ([], []))
                column[0].append(when)
                column[1].append(index.setdefault(resource, len(index)))
            lineno += len(lines)
    except OSError as exc:
        raise UnreadableSource(str(exc)) from exc


def parse_log(source: Iterable[str], fmt: LogFormat | str = LogFormat.CLF) -> ParseResult:
    """Parse a line-oriented stream in the declared format: every record of
    :func:`read_log`, in input order, and every malformed line.  I/O
    failures raise :class:`UnreadableSource`."""
    result = ParseResult(records=[], malformed=[])
    read_log(source, fmt, result.malformed, None, PageViews(), result.records.append)
    return result


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


class FilterPolicy(NamedTuple):
    """Which requests count as page views."""

    excluded_extensions: frozenset[str] = DEFAULT_EXCLUDED_EXTENSIONS
    accepted_statuses: frozenset[int] = DEFAULT_ACCEPTED_STATUSES

    def keeps(self, resource: str, status: int) -> bool:
        """Whether a request of ``resource`` answered with ``status`` is a page view."""
        if status not in self.accepted_statuses:
            return False
        return splitext(resource)[1] not in self.excluded_extensions


def filter_page_requests(
    records: Iterable[LogRecord], policy: FilterPolicy | None = None
) -> list[LogRecord]:
    """Drop asset requests and non-successful responses, preserving order."""
    policy = policy or FilterPolicy()
    return [record for record in records if policy.keeps(record.resource, record.status)]


class PageViews:
    """Kept page views in per-client columns, all that a session reads:
    ``index`` maps each page to its number, in order of its first kept
    view, and is the one page catalog every session vector is indexed by;
    ``clients`` maps each client, in order of its first view, to the epochs
    of its views and their pages' numbers.  :func:`read_log` numbers each
    page at its first kept view, as :func:`build_catalog` does."""

    def __init__(
        self,
        index: dict[str, int] | None = None,
        clients: dict[str, tuple[list[int], list[int]]] | None = None,
    ) -> None:
        self.index = {} if index is None else index
        self.clients = {} if clients is None else clients

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.index, self.clients) == (other.index, other.clients)

    @classmethod
    def from_records(cls, records: Iterable[LogRecord], index: dict[str, int]) -> PageViews:
        """The views of ``records``, numbered as in ``index``, which must
        hold every record's page (else :class:`KeyError`)."""
        columns = {}
        for client, epoch, resource, _, _, _ in records:
            column = columns.get(client) or columns.setdefault(client, ([], []))
            column[0].append(epoch)
            column[1].append(index[resource])
        return cls(index, columns)

    def __len__(self) -> int:
        return sum(len(epochs) for epochs, _ in self.clients.values())


def build_catalog(records: Iterable[LogRecord]) -> dict[str, int]:
    """Each distinct page of ``records`` to its number, in order of first
    appearance: the ``index`` of their :class:`PageViews`."""
    index: dict[str, int] = {}
    for record in records:
        index.setdefault(record.resource, len(index))
    return index


_RECORD_LINE = (
    '{"client_id":%s,"referrer":%s,"resource":%s,"status":%d,"timestamp":%d,"user_agent":%s}\n'
)


def record_json(record: LogRecord) -> str:
    """One record as a line of JSON, its keys in sorted order, as
    ``json.dumps(record._asdict(), sort_keys=True, separators=(",", ":"))``
    writes it."""
    client, timestamp, resource, status, referrer, user_agent = record
    return _RECORD_LINE % (
        _quote(client),
        "null" if referrer is None else _quote(referrer),
        _quote(resource),
        status,
        timestamp,
        "null" if user_agent is None else _quote(user_agent),
    )
