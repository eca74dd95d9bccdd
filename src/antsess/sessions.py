"""Session reconstruction from page-request streams.

A session is one client's maximal run of requests whose consecutive gaps
stay within the timeout.  Each session carries the full per-page view of
the visit: which pages were touched, when first, how often, and for how
long, plus the raw visit order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from math import isfinite
from typing import IO, Iterable, Sequence

from .logs import LogRecord, PageCatalog

DEFAULT_TIMEOUT = 1800  # seconds


class EmptyCatalog(Exception):
    """Records were supplied but the page catalog has no pages."""


class LengthMismatch(Exception):
    """History and timestamp sequences differ in length."""


class MalformedDump(Exception):
    """A sessions dump line is not a session object."""


@dataclass(frozen=True)
class Session:
    """One reconstructed visit.

    The four vectors are stored sparsely (page index -> value) but are
    defined over the whole catalog: a missing key means the page was not
    visited.  ``catalog_size`` records the catalog length the indices
    refer to, so sessions from different catalogs cannot be compared by
    accident.

    The derived features below are computed on first use and cached on
    the instance; they are not fields, so equality and the dump format
    ignore them.  The vectors must not be mutated once they are read.
    """

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

    @cached_property
    def visited_pages(self) -> frozenset[int]:
        return frozenset(self.transaction_vector)

    @cached_property
    def transaction_norm2(self) -> int:
        return sum(v * v for v in self.transaction_vector.values())

    @cached_property
    def time_norm2(self) -> int:
        return sum(v * v for v in self.time_vector.values())

    @cached_property
    def hits_norm2(self) -> int:
        return sum(v * v for v in self.hits_vector.values())

    @cached_property
    def vectors_within_pages(self) -> bool:
        """Whether the time and hits vectors only carry visited pages, as
        :func:`sessionize` guarantees (a hand-made dump may not)."""
        pages = self.visited_pages
        return self.time_vector.keys() <= pages and self.hits_vector.keys() <= pages


def estimate_times(
    history: Sequence[int], timestamps: Sequence[int]
) -> tuple[dict[int, int], int]:
    """Per-page dwell seconds and session total from one visit sequence.

    The dwell time of a visit is the gap to the next request.  The final
    visit has no successor, so its dwell is the mean of the other visits'
    dwells, rounded half-up to whole seconds (1 second for a single-visit
    session).  A zero gap (page loaded too quickly) is bumped to 1 second
    before the mean is taken.
    """
    if len(history) != len(timestamps):
        raise LengthMismatch(
            f"{len(history)} visits but {len(timestamps)} timestamps"
        )
    if not history:
        raise ValueError("a session has at least one visit")
    dwells: list[int] = []
    for earlier, later in zip(timestamps, timestamps[1:]):
        if later < earlier:
            raise ValueError("timestamps must be non-decreasing")
        dwells.append(max(1, later - earlier))
    if dwells:
        total, n = sum(dwells), len(dwells)
        last = (2 * total + n) // (2 * n)  # round-half-up integer mean
    else:
        last = 1
    dwells.append(last)
    time_vector: dict[int, int] = {}
    for page, dwell in zip(history, dwells):
        time_vector[page] = time_vector.get(page, 0) + dwell
    return time_vector, sum(dwells)


def _build_session(run: Sequence[LogRecord], catalog: PageCatalog) -> Session:
    history = tuple(catalog.index[r.resource] for r in run)
    timestamps = [r.timestamp for r in run]
    time_vector, total_time = estimate_times(history, timestamps)
    hits: dict[int, int] = {}
    first_seen: dict[int, int] = {}
    for page, ts in zip(history, timestamps):
        hits[page] = hits.get(page, 0) + 1
        first_seen.setdefault(page, ts)
    pages = sorted(hits)
    return Session(
        client_id=run[0].client_id,
        identity=None,
        start_time=timestamps[0],
        history=history,
        transaction_vector={p: 1 for p in pages},
        time_vector={p: time_vector[p] for p in pages},
        date_vector={p: first_seen[p] for p in pages},
        hits_vector={p: hits[p] for p in pages},
        total_time=total_time,
        catalog_size=catalog.size,
    )


def _sort_key(record: LogRecord) -> tuple:
    # total order => one client's sessions are invariant under input shuffles
    return (
        record.timestamp,
        record.resource,
        record.status,
        record.referrer or "",
        record.user_agent or "",
    )


def sessionize(
    records: Iterable[LogRecord],
    catalog: PageCatalog,
    timeout: int = DEFAULT_TIMEOUT,
) -> list[Session]:
    """Split each client's request stream at gaps exceeding the timeout.

    Clients are emitted in order of first appearance, each client's
    sessions chronologically.  Single-request sessions are kept.
    """
    if timeout <= 0:
        raise ValueError("timeout must be positive")
    by_client: dict[str, list[LogRecord]] = {}
    for record in records:
        by_client.setdefault(record.client_id, []).append(record)
    if by_client and catalog.size == 0:
        raise EmptyCatalog("cannot sessionize against an empty catalog")
    sessions: list[Session] = []
    for rows in by_client.values():
        rows.sort(key=_sort_key)
        run_start = 0
        for i in range(1, len(rows)):
            if rows[i].timestamp - rows[i - 1].timestamp > timeout:
                sessions.append(_build_session(rows[run_start:i], catalog))
                run_start = i
        sessions.append(_build_session(rows[run_start:], catalog))
    return sessions


def session_to_dict(session: Session) -> dict:
    return {
        "client_id": session.client_id,
        "identity": session.identity,
        "start_time": session.start_time,
        "history": list(session.history),
        "transaction_vector": {str(k): v for k, v in session.transaction_vector.items()},
        "time_vector": {str(k): v for k, v in session.time_vector.items()},
        "date_vector": {str(k): v for k, v in session.date_vector.items()},
        "hits_vector": {str(k): v for k, v in session.hits_vector.items()},
        "total_time": session.total_time,
        "catalog_size": session.catalog_size,
    }


def _checked(value, key: str, types: tuple[type, ...]):
    """``value`` if its type is one of ``types`` (a bool is not an int)."""
    if type(value) not in types:
        expected = " or ".join(t.__name__ for t in types)
        raise TypeError(f"{key}: expected {expected}, got {type(value).__name__}")
    return value


def session_from_dict(data: dict) -> Session:
    """The session of one dump object; a value of the wrong JSON type
    raises :class:`TypeError` and a page index outside ``[0, catalog_size)``
    raises :class:`ValueError`, each naming its key."""

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
        return {page(int(k), key): _checked(v, key, (int, float)) for k, v in data[key].items()}

    return Session(
        client_id=data["client_id"],
        identity=data.get("identity"),
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
    return "".join(
        json.dumps(session_to_dict(s), sort_keys=True, separators=(",", ":")) + "\n"
        for s in sessions
    )


def _finite(text: str) -> float:
    """A JSON number as a float; ``NaN``, ``Infinity`` and a number past a
    float's range, which Python's ``json`` reads, are rejected."""
    value = float(text)
    if not isfinite(value):
        raise ValueError(f"{text} is not a finite number")
    return value


def load_sessions_jsonl(source: Iterable[str] | IO[str]) -> list[Session]:
    """Read a dump; any line that is not a session raises
    :class:`MalformedDump` naming its 1-based line number."""
    sessions = []
    for number, line in enumerate(source, 1):
        if not line.strip():
            continue
        try:
            data = json.loads(line, parse_float=_finite, parse_constant=_finite)
        except ValueError as exc:
            raise MalformedDump(f"line {number}: not JSON ({exc})") from exc
        if not isinstance(data, dict):
            raise MalformedDump(f"line {number}: not a JSON object")
        try:
            sessions.append(session_from_dict(data))
        except KeyError as exc:
            raise MalformedDump(f"line {number}: missing key {exc}") from exc
        except (AttributeError, TypeError, ValueError) as exc:
            raise MalformedDump(f"line {number}: {exc}") from exc
    return sessions
