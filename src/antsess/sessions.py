"""Session reconstruction from page-request streams.

A session is one client's maximal run of requests whose consecutive gaps
stay within the timeout.  Each session carries the full per-page view of
the visit: which pages were touched, when first, how often, and for how
long, plus the raw visit order.
"""

from __future__ import annotations

import json
from itertools import islice
from json.encoder import encode_basestring_ascii as _quote
from math import isfinite
from operator import le, lt
from typing import IO, Iterable, Iterator, NamedTuple, Sequence

DEFAULT_TIMEOUT = 1800  # seconds

# value types, compared with ``set(map(type, values))``: a bool is not an int
_INT, _NUMBER = {int}, {int, float}
_VECTOR_KEYS = ("transaction_vector", "time_vector", "date_vector", "hits_vector")


class MalformedDump(Exception):
    """A sessions dump line is not a session object."""


class _SessionFields(NamedTuple):
    client_id: str
    identity: str | None
    start_time: int
    history: tuple[int, ...]
    transaction_vector: dict[int, int]
    time_vector: dict[int, int]
    date_vector: dict[int, int]
    hits_vector: dict[int, int]
    total_time: int
    catalog_size: int


class Session(_SessionFields):
    """One reconstructed visit.

    The four vectors are stored sparsely (page index -> value) but are
    defined over the whole catalog: a missing key means the page was not
    visited.  ``catalog_size`` records the catalog length the indices
    refer to, so sessions from different catalogs cannot be compared by
    accident.  :func:`sessionize` keys each vector in ascending page order,
    and a dump keeps each vector's order: a similarity sums products in
    that order, which fixes the last bits of a float sum.

    A session is its ten fields and nothing more: nothing can be assigned,
    added or deleted, and the vectors make a session unhashable.  The
    vectors must not be mutated once they are read.
    """

    __slots__ = ()


def _client_sessions(
    client_id: str, stamps: Sequence[int], history: Sequence[int], timeout: int, size: int
) -> Iterator[Session]:
    """The sessions of one client's non-empty, non-decreasing views, in one
    pass: each gap over ``timeout`` closes a session, and every other gap
    adds its dwell to the earlier view's page as the pass counts hits and
    first visits.

    The dwell of a view is the gap to the next view of its session; a zero
    gap (a page loaded too quickly) counts as 1 second.  The last view has
    no successor, so its dwell is the mean of the session's other dwells,
    rounded half-up to whole seconds (1 second for a one-view session)."""
    start, page, earlier = 0, history[0], stamps[0]
    dwells, hits, first_seen = {page: 0}, {page: 1}, {page: earlier}
    for later, later_page in zip(islice(stamps, 1, None), islice(history, 1, None)):
        gap = later - earlier
        if gap > timeout:
            session = _closed(
                client_id, stamps, history, start, page, dwells, hits, first_seen, size
            )
            yield session
            start += len(session.history)
            dwells, hits, first_seen = {later_page: 0}, {later_page: 1}, {later_page: later}
        else:
            dwells[page] += gap or 1
            if later_page in hits:
                hits[later_page] += 1
            else:
                dwells[later_page], hits[later_page], first_seen[later_page] = 0, 1, later
        page, earlier = later_page, later
    yield _closed(client_id, stamps, history, start, page, dwells, hits, first_seen, size)


def _closed(
    client_id: str,
    stamps: Sequence[int],
    history: Sequence[int],
    start: int,
    page: int,
    dwells: dict[int, int],
    hits: dict[int, int],
    first_seen: dict[int, int],
    size: int,
) -> Session:
    """The session that starts at view ``start`` and ends on ``page``, its
    last dwell the round-half-up integer mean of the others (1 when there
    are none)."""
    end = start + sum(hits.values())
    total = sum(dwells.values())
    gaps = end - start - 1
    last = (2 * total + gaps) // (2 * gaps) if gaps else 1
    dwells[page] += last
    pages = sorted(hits)
    return Session(
        client_id,
        None,
        stamps[start],
        tuple(history[start:end]),
        dict.fromkeys(pages, 1),
        {p: dwells[p] for p in pages},
        {p: first_seen[p] for p in pages},
        {p: hits[p] for p in pages},
        total + last,
        size,
    )


def sessionize(views, timeout: int = DEFAULT_TIMEOUT) -> list[Session]:
    """Split each client's page views at gaps exceeding the timeout.

    ``views`` is a :class:`antsess.logs.PageViews`, of which only ``index``
    and ``clients`` are read.  Clients are emitted in order of first
    appearance, each client's sessions chronologically, and every vector is
    indexed by ``index``.  Single-request sessions are kept.
    """
    if timeout <= 0:
        raise ValueError("timeout must be positive")
    # A view's key, epoch * size + its page name's rank, orders a client's
    # views by time, then page name, so its sessions are invariant under
    # input shuffles; floor division takes an epoch before 1970 back too.
    # Strictly increasing epochs are already in key order.
    size = len(views.index)
    by_name = sorted(range(size), key=list(views.index).__getitem__)
    rank = sorted(range(size), key=by_name.__getitem__)  # the inverse permutation
    sessions: list[Session] = []
    for client_id, (stamps, history) in views.clients.items():
        if not all(map(lt, stamps, islice(stamps, 1, None))):
            keys = [stamp * size + rank[page] for stamp, page in zip(stamps, history)]
            if not all(map(le, keys, islice(keys, 1, None))):
                keys.sort()
                stamps = [key // size for key in keys]
                history = [by_name[key % size] for key in keys]
        sessions.extend(_client_sessions(client_id, stamps, history, timeout, size))
    return sessions


_SESSION_LINE = (
    '{"catalog_size":%d,"client_id":%s,"date_vector":{%s},"history":[%s],"hits_vector":{%s},'
    '"identity":%s,"start_time":%d,"time_vector":{%s},"total_time":%d,"transaction_vector":{%s}}\n'
)


class _Spelled(dict):
    """Page index -> its text in a dump, spelled by ``spell`` at its first
    use: the write side's counterpart of :class:`_PageNames`."""

    __slots__ = ("spell",)

    def __init__(self, spell) -> None:
        self.spell = spell

    def __missing__(self, page: int) -> str:
        text = self[page] = self.spell(page)
        return text


def dump_sessions_jsonl(sessions: Iterable[Session]) -> str:
    """The interchange format between pipeline stages: one object per line.

    For sessions whose pages are ints and whose vector values are ints or
    finite floats, each line is byte for byte what
    ``json.JSONEncoder(sort_keys=True, separators=(",", ":"))`` writes of the
    session as a dict, with the history as a list and each vector keyed by
    ``str`` of its pages, and a "\\n" after it: keys in text order (page
    ``"10"`` before ``"2"``), strings escaped to ASCII, and numbers as
    ``repr`` writes them.  Each line fills one template.  The transaction
    vector's pages are sorted once, and each vector with the same page set
    reuses that order; any other vector is sorted alone."""
    names = _Spelled(str)
    heads = _Spelled('"{}":%s'.format)  # "%s" of an int or float is its repr
    lines = []
    for client_id, identity, start_time, history, *vectors, total_time, catalog_size in sessions:
        keys = vectors[0].keys()
        order = sorted(keys, key=names.__getitem__)
        template = ",".join(map(heads.__getitem__, order))
        texts = []
        for vector in vectors:
            if vector.keys() == keys:
                texts.append(template % tuple(map(vector.__getitem__, order)))
            else:
                alone = sorted(vector, key=names.__getitem__)
                texts.append(
                    ",".join(map(heads.__getitem__, alone))
                    % tuple(map(vector.__getitem__, alone))
                )
        transactions, times, dates, hits = texts
        lines.append(_SESSION_LINE % (
            catalog_size,
            _quote(client_id),
            dates,
            ",".join(map(names.__getitem__, history)),
            hits,
            "null" if identity is None else _quote(identity),
            start_time,
            times,
            total_time,
            transactions,
        ))
    return "".join(lines)


def _finite(text: str) -> float:
    """A JSON number as a float; ``NaN``, ``Infinity`` and a number past a
    float's range, which Python's ``json`` reads, are rejected."""
    value = float(text)
    if not isfinite(value):
        raise ValueError(f"{text} is not a finite number")
    return value


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict; an object that names one key twice, whose
    last value ``json`` would silently keep, raises :class:`MalformedDump`."""
    data = dict(pairs)
    if len(data) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise MalformedDump(f"key {key!r} named twice")
            seen.add(key)
    return data


class _PageNames(dict):
    """Page name -> page index for the canonical names read so far, those
    that ``str`` of their index spells; any other name raises
    :class:`LookupError` or :class:`ValueError`."""

    __slots__ = ()

    def __missing__(self, name: str) -> int:
        index = int(name)
        if str(index) != name:
            raise KeyError(name)
        self[name] = index
        return index


def _wrong_type(key: str, value, expected: str) -> TypeError:
    return TypeError(f"{key}: expected {expected}, got {type(value).__name__}")


def _outside(key: str, page: int, catalog_size: int) -> ValueError:
    return ValueError(f"{key}: page {page} outside a catalog of {catalog_size} pages")


def _session(data: dict, names: _PageNames) -> Session:
    """The session of one decoded dump object; the first fault, in the
    field order :func:`load_sessions_jsonl` gives, raises.

    A history or vector is checked as a whole, its value types as one set
    and its pages by ``min`` and ``max``, and only one that fails is walked
    item by item to name its first fault.  ``names`` converts a vector's
    canonical page names; a vector with any other name, such as ``"01"``
    or ``"+1"``, is walked too, each name converted by ``int``."""
    catalog_size = data["catalog_size"]
    if type(catalog_size) is not int:
        raise _wrong_type("catalog_size", catalog_size, "int")
    client_id = data["client_id"]
    if type(client_id) is not str:
        raise _wrong_type("client_id", client_id, "str")
    identity = data.get("identity")
    if identity is not None and type(identity) is not str:
        raise _wrong_type("identity", identity, "str or NoneType")
    start_time = data["start_time"]
    if type(start_time) is not int:
        raise _wrong_type("start_time", start_time, "int")
    history = data["history"]
    if type(history) is not list:
        raise _wrong_type("history", history, "list")
    if not set(map(type, history)) <= _INT or (
        history and not (0 <= min(history) and max(history) < catalog_size)
    ):
        for page in history:
            if type(page) is not int:
                raise _wrong_type("history", page, "int")
            if not 0 <= page < catalog_size:
                raise _outside("history", page, catalog_size)
    vectors = []
    for key in _VECTOR_KEYS:
        raw = data[key]
        try:
            if type(raw) is dict and set(map(type, raw.values())) <= _NUMBER:
                vector = dict(zip(map(names.__getitem__, raw), raw.values()))
                if not vector or 0 <= min(vector) and max(vector) < catalog_size:
                    vectors.append(vector)
                    continue
        except (LookupError, ValueError):  # a name that is not ``str`` of its index
            pass
        vector = {}
        for name, value in raw.items():  # a non-object raises AttributeError here
            page = int(name)
            if not 0 <= page < catalog_size:
                raise _outside(key, page, catalog_size)
            if type(value) not in _NUMBER:
                raise _wrong_type(key, value, "int or float")
            vector[page] = value
        if len(vector) != len(raw):  # two spellings of one page, such as "1" and "01"
            first: dict[int, str] = {}
            for name in raw:
                page = int(name)
                if first.setdefault(page, name) != name:
                    raise ValueError(f"{key}: page {page} named twice ({first[page]!r}, {name!r})")
        vectors.append(vector)
    total_time = data["total_time"]
    if type(total_time) is not int:
        raise _wrong_type("total_time", total_time, "int")
    return Session(
        client_id, identity, start_time, tuple(history), *vectors, total_time, catalog_size
    )


def load_sessions_jsonl(source: Iterable[str] | IO[str]) -> list[Session]:
    """Read a dump; any line that is not a session raises
    :class:`MalformedDump` naming its 1-based line number.

    Each object is read once, its fields in the order ``catalog_size``,
    ``client_id``, ``identity``, ``start_time``, ``history``, the four
    vectors, ``total_time``, and the first fault is named: a missing key, a
    value of the wrong JSON type (a bool is not an int), a vector that is
    not an object, or a page index outside ``[0, catalog_size)`` or named
    twice in one vector.  A history may repeat pages."""
    sessions = []
    names = _PageNames()
    decode = json.JSONDecoder(
        parse_float=_finite, parse_constant=_finite, object_pairs_hook=_unique_keys
    ).decode
    for number, line in enumerate(source, 1):
        if not line.strip():
            continue
        try:
            if line.startswith("\ufeff"):  # json.loads' message; decode alone has another
                raise json.JSONDecodeError(
                    "Unexpected UTF-8 BOM (decode using utf-8-sig)", line, 0
                )
            data = decode(line)
        except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
            raise MalformedDump(f"line {number}: not JSON ({exc})") from exc
        except MalformedDump as exc:
            raise MalformedDump(f"line {number}: {exc}") from exc
        if not isinstance(data, dict):
            raise MalformedDump(f"line {number}: not a JSON object")
        try:
            sessions.append(_session(data, names))
        except KeyError as exc:
            raise MalformedDump(f"line {number}: missing key {exc}") from exc
        except (AttributeError, TypeError, ValueError) as exc:
            raise MalformedDump(f"line {number}: {exc}") from exc
    return sessions
