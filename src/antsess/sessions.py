"""Session reconstruction from page-request streams.

A session is one client's maximal run of requests whose consecutive gaps
stay within the timeout.  Each session carries the full per-page view of
the visit: which pages were touched, when first, how often, and for how
long, plus the raw visit order.
"""

from __future__ import annotations

import json
from itertools import islice
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


def session_to_dict(session: Session) -> dict:
    data = session._asdict()
    data["history"] = list(session.history)
    for key in _VECTOR_KEYS:
        data[key] = {str(k): v for k, v in data[key].items()}
    return data


def _checked(value, key: str, types: tuple[type, ...]):
    """``value`` if its type is one of ``types`` (a bool is not an int)."""
    if type(value) not in types:
        expected = " or ".join(t.__name__ for t in types)
        raise TypeError(f"{key}: expected {expected}, got {type(value).__name__}")
    return value


def session_from_dict(data: dict) -> Session:
    """The session of one dump object; a value of the wrong JSON type
    raises :class:`TypeError`, and a page index outside ``[0, catalog_size)``
    or named twice in one vector raises :class:`ValueError`, each naming its
    key.  A history may repeat pages."""

    def integer(key: str) -> int:
        return _checked(data[key], key, (int,))

    catalog_size = integer("catalog_size")

    def page(index: int, key: str) -> int:
        if not 0 <= index < catalog_size:
            raise ValueError(f"{key}: page {index} outside a catalog of {catalog_size} pages")
        return index

    def pages(key: str) -> tuple[int, ...]:
        return tuple(
            page(_checked(p, key, (int,)), key) for p in _checked(data[key], key, (list,))
        )

    def vector(key: str) -> dict[int, int]:
        raw = data[key]
        built = {page(int(k), key): _checked(v, key, (int, float)) for k, v in raw.items()}
        if len(built) != len(raw):  # two spellings of one page, such as "1" and "01"
            first: dict[int, str] = {}
            for k in raw:
                index = int(k)
                if first.setdefault(index, k) != k:
                    raise ValueError(f"{key}: page {index} named twice ({first[index]!r}, {k!r})")
        return built

    return Session(
        client_id=_checked(data["client_id"], "client_id", (str,)),
        identity=_checked(data.get("identity"), "identity", (str, type(None))),
        start_time=integer("start_time"),
        history=pages("history"),
        transaction_vector=vector("transaction_vector"),
        time_vector=vector("time_vector"),
        date_vector=vector("date_vector"),
        hits_vector=vector("hits_vector"),
        total_time=integer("total_time"),
        catalog_size=catalog_size,
    )


def dump_sessions_jsonl(sessions: Iterable[Session]) -> str:
    """The interchange format between pipeline stages: one object per line."""
    encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    return "".join(encode(session_to_dict(s)) + "\n" for s in sessions)


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


def _vouched_session(data: dict, names: _PageNames) -> Session | None:
    """The session of one dump object whose every value has the JSON type
    and range :func:`session_from_dict` wants and whose vectors name pages
    only canonically, equal to that function's session; ``None`` for any
    other object, which that function then reads or rejects."""
    try:
        catalog_size, history = data["catalog_size"], data["history"]
        client_id, identity = data["client_id"], data.get("identity")
        start_time, total_time = data["start_time"], data["total_time"]
        raws = [data[key] for key in _VECTOR_KEYS]
        if not (
            type(catalog_size) is type(start_time) is type(total_time) is int
            and type(client_id) is str
            and (identity is None or type(identity) is str)
            and type(history) is list
            and set(map(type, history)) <= _INT
            and (not history or 0 <= min(history) and max(history) < catalog_size)
        ):
            return None
        vectors = []
        for raw in raws:
            if type(raw) is not dict or not set(map(type, raw.values())) <= _NUMBER:
                return None
            vector = dict(zip(map(names.__getitem__, raw), raw.values()))
            if vector and not (0 <= min(vector) and max(vector) < catalog_size):
                return None
            vectors.append(vector)
    except (LookupError, ValueError):
        return None
    return Session(
        client_id, identity, start_time, tuple(history), *vectors, total_time, catalog_size
    )


def load_sessions_jsonl(source: Iterable[str] | IO[str]) -> list[Session]:
    """Read a dump; any line that is not a session raises
    :class:`MalformedDump` naming its 1-based line number.

    Each object is first read by :func:`_vouched_session`, which converts
    each distinct page name once per call; an object it cannot vouch for
    goes through :func:`session_from_dict`, which names the fault."""
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
        session = _vouched_session(data, names)
        if session is not None:
            sessions.append(session)
            continue
        try:
            sessions.append(session_from_dict(data))
        except KeyError as exc:
            raise MalformedDump(f"line {number}: missing key {exc}") from exc
        except (AttributeError, TypeError, ValueError) as exc:
            raise MalformedDump(f"line {number}: {exc}") from exc
    return sessions
