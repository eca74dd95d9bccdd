"""Shared builders for the test suite."""

from __future__ import annotations

import json
import random
from typing import Iterable

from antsess.logs import LogRecord, PageViews, build_catalog, render_clf_timestamp
from antsess.sessions import DEFAULT_TIMEOUT, Session, sessionize
from antsess.similarity import DEFAULT_MEASURE, SimilarityMeasure, similarity_matrix
from antsess.synth import (
    ASSET_PATHS,
    BASE_EPOCH,
    DWELL_RANGE,
    USERS_PER_PROFILE,
    GroundTruth,
    TrafficModel,
    _spread_lengths,
    page_path,
    planned_sessions,
)


class MatrixOracle:
    """Dense reference oracle for ``antclust.run``: every pair precomputed by
    ``similarity_matrix``, and one shared key per session, so no meeting is
    settled as page-disjoint and every one goes through ``meet``."""

    def __init__(self, sessions, measure: SimilarityMeasure = DEFAULT_MEASURE):
        self.sessions, self.measure = sessions, measure
        matrix = self.matrix = similarity_matrix(sessions, measure)
        self.keys = [frozenset((0,))] * len(sessions)
        self.pair = lambda a, b: matrix[a][b]


def reference_generate(model: TrafficModel, target_transactions: int) -> tuple[str, GroundTruth]:
    """Reference for ``synth.generate``: the log text and ground truth built
    from one 7-tuple per row, sorted on (epoch, emission order), with every
    stamp rendered in full."""
    rng = random.Random(model.seed)
    asset_total = round(target_transactions * model.asset_ratio)
    page_total = target_transactions - asset_total
    n_sessions = min(planned_sessions(target_transactions), page_total)

    session_profiles = [s % model.profiles for s in range(n_sessions)]
    session_users = [rng.randrange(USERS_PER_PROFILE) for _ in range(n_sessions)]
    lengths = _spread_lengths(rng, n_sessions, page_total)
    gap_low, gap_high = model.inter_session_gap

    by_user: dict[tuple[int, int], list[int]] = {}
    for s in range(n_sessions):
        by_user.setdefault((session_profiles[s], session_users[s]), []).append(s)

    # (epoch, emission seq = row index, ip, path, nbytes, session id, kind)
    rows: list[tuple[int, int, str, str, int, int, str]] = []
    session_keys: list[tuple[str, int]] = [("", 0)] * n_sessions
    paths: set[str] = set()
    for (profile_idx, user_idx) in sorted(by_user):
        first_page = profile_idx * model.pages_per_profile
        ip = f"10.{profile_idx % 256}.{profile_idx // 256}.{user_idx + 1}"
        clock = BASE_EPOCH + rng.randrange(30 * 86400)
        for s in by_user[(profile_idx, user_idx)]:
            session_keys[s] = (ip, clock)
            for visit in range(lengths[s]):
                path = page_path(first_page + rng.randrange(model.pages_per_profile))
                paths.add(path)
                rows.append((clock, len(rows), ip, path, rng.randint(256, 9999), s, "page"))
                if visit < lengths[s] - 1:
                    clock += rng.randint(*DWELL_RANGE)
            clock += rng.randint(gap_low, gap_high)

    page_rows = list(rows)
    for _ in range(asset_total):
        parent = page_rows[rng.randrange(len(page_rows))]
        path = ASSET_PATHS[rng.randrange(len(ASSET_PATHS))]
        rows.append((parent[0], len(rows), parent[2], path, rng.randint(128, 4096), parent[5], "asset"))

    rows.sort()
    dates: dict[int, str] = {}
    text = "".join(
        f'{ip} - - [{render_clf_timestamp(epoch, dates)}] "GET {path} HTTP/1.1" 200 {nbytes}\n'
        for epoch, _, ip, path, nbytes, _, _ in rows
    )
    truth = GroundTruth(
        session_count=n_sessions,
        record_sessions=[row[5] for row in rows],
        record_kinds=[row[6] for row in rows],
        session_profiles=session_profiles,
        session_keys=session_keys,
        page_paths=sorted(paths),
    )
    return text, truth


def _checked(value, key: str, types: tuple[type, ...]):
    """``value`` if its type is one of ``types`` (a bool is not an int)."""
    if type(value) not in types:
        expected = " or ".join(t.__name__ for t in types)
        raise TypeError(f"{key}: expected {expected}, got {type(value).__name__}")
    return value


def reference_session_from_dict(data: dict) -> Session:
    """The session of one dump object, read field by field with one check
    per value: the reference that :func:`~antsess.sessions.load_sessions_jsonl`
    must match, session for session and message for message.  A value of
    the wrong JSON type raises :class:`TypeError`, and a page index outside
    ``[0, catalog_size)`` or named twice in one vector raises
    :class:`ValueError`, each naming its key.  A history may repeat pages."""

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


def session_to_dict(session: Session) -> dict:
    """The session as the JSON object a dump line holds: the history as a
    list and each vector keyed by ``str`` of its pages."""
    data = session._asdict()
    data["history"] = list(session.history)
    for key, value in data.items():
        if type(value) is dict:
            data[key] = {str(k): v for k, v in value.items()}
    return data


def reference_dump_sessions_jsonl(sessions: Iterable[Session]) -> str:
    """The byte reference for :func:`~antsess.sessions.dump_sessions_jsonl`:
    each session's dict through one JSON encoder with sorted keys and no
    spaces, one object per line."""
    encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    return "".join(encode(session_to_dict(s)) + "\n" for s in sessions)


def make_record(
    client: str = "10.0.0.1",
    ts: int = 1_700_000_000,
    resource: str = "/index.html",
    status: int = 200,
    referrer: str | None = None,
    user_agent: str | None = None,
) -> LogRecord:
    return LogRecord(
        client_id=client,
        timestamp=ts,
        resource=resource,
        status=status,
        referrer=referrer,
        user_agent=user_agent,
    )


def sessionize_records(
    records: Iterable[LogRecord], timeout: int = DEFAULT_TIMEOUT, index: dict[str, int] | None = None
) -> list[Session]:
    """The sessions of ``records``' views, numbered as in ``index`` (by
    default in order of first appearance, as ``build_catalog`` numbers them)."""
    records = list(records)
    index = build_catalog(records) if index is None else index
    return sessionize(PageViews.from_records(records, index), timeout)


def make_session(
    pages: dict[int, int] | set[int] | list[int],
    client: str = "u0",
    start: int = 0,
    catalog_size: int = 64,
    hits: dict[int, int] | None = None,
) -> Session:
    """Internally consistent session over the given visited pages.

    ``pages`` maps page index -> dwell seconds (or is a bare collection,
    giving every page 1 second).
    """
    if not isinstance(pages, dict):
        pages = {p: 1 for p in pages}
    page_list = sorted(pages)
    hits = hits or {p: 1 for p in page_list}
    history: list[int] = []
    for p in page_list:
        history.extend([p] * hits[p])
    return Session(
        client_id=client,
        identity=None,
        start_time=start,
        history=tuple(history),
        transaction_vector={p: 1 for p in page_list},
        time_vector={p: pages[p] for p in page_list},
        date_vector={p: start for p in page_list},
        hits_vector={p: hits[p] for p in page_list},
        total_time=sum(pages.values()),
        catalog_size=catalog_size,
    )


def random_sessions(
    n: int,
    seed: int,
    pool: int = 30,
    k_min: int = 4,
    k_max: int = 18,
) -> list[Session]:
    """Sessions over random page subsets of one shared pool: every pair
    overlaps enough to keep meetings interesting."""
    rng = random.Random(seed)
    sessions = []
    for i in range(n):
        k = rng.randint(k_min, min(k_max, pool))
        chosen = rng.sample(range(pool), k)
        pages = {p: rng.randint(1, 90) for p in chosen}
        hits = {p: rng.randint(1, 4) for p in chosen}
        sessions.append(
            make_session(pages, client=f"u{i}", start=i * 10_000, catalog_size=pool, hits=hits)
        )
    return sessions


def ring_sessions(n: int, seed: int, pool: int = 40, window: int = 12, step: int = 3) -> list[Session]:
    """Sessions on overlapping page windows around a ring: neighbouring
    windows stay similar, so nests keep competing for the whole run."""
    rng = random.Random(seed)
    sessions = []
    for i in range(n):
        start = (i * step) % pool
        base = [(start + k) % pool for k in range(window)]
        chosen = rng.sample(base, rng.randint(window - 4, window))
        pages = {p: rng.randint(1, 90) for p in chosen}
        sessions.append(
            make_session(pages, client=f"u{i}", start=i * 10_000, catalog_size=pool)
        )
    return sessions


def profile_sessions(
    n: int,
    profiles: int,
    seed: int,
    pages_per_profile: int = 5,
    min_visited: int = 4,
) -> tuple[list[Session], list[int]]:
    """Sessions drawn from disjoint page-set profiles, plus planted labels.

    Each session visits at least ``min_visited`` of its profile's pages, so
    same-profile pairs stay similar while cross-profile pairs share nothing.
    """
    rng = random.Random(seed)
    catalog_size = profiles * pages_per_profile
    sessions, labels = [], []
    for i in range(n):
        profile = i % profiles
        base = range(profile * pages_per_profile, (profile + 1) * pages_per_profile)
        k = rng.randint(min_visited, pages_per_profile)
        chosen = rng.sample(list(base), k)
        pages = {p: rng.randint(1, 90) for p in chosen}
        sessions.append(
            make_session(pages, client=f"u{i}", start=i * 10_000, catalog_size=catalog_size)
        )
        labels.append(profile)
    return sessions, labels


def assert_session_invariants(session: Session) -> None:
    """The five structural guarantees every produced session must satisfy."""
    visited = set(session.transaction_vector)
    assert all(v == 1 for v in session.transaction_vector.values())
    assert set(session.hits_vector) == visited
    assert set(session.date_vector) == visited
    assert set(session.time_vector) == visited
    assert all(h >= 1 for h in session.hits_vector.values())
    assert all(t >= 1 for t in session.time_vector.values())
    assert sum(session.hits_vector.values()) == len(session.history)
    assert visited == set(session.history)
    assert session.total_time == sum(session.time_vector.values())
    assert session.start_time <= min(session.date_vector.values(), default=session.start_time)
