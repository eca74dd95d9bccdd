from __future__ import annotations

import json
import re
from itertools import accumulate

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from antsess.logs import PageViews, build_catalog, filter_page_requests, parse_log
from antsess.sessions import (
    EmptyCatalog,
    LengthMismatch,
    MalformedDump,
    Session,
    dump_sessions_jsonl,
    estimate_times,
    load_sessions_jsonl,
    session_from_dict,
    sessionize,
)
from antsess.synth import TrafficModel, generate

from conftest import assert_session_invariants, make_record


class TestEstimateTimes:
    def test_last_visit_gets_mean_of_others(self):
        time_vector, total = estimate_times([0, 1, 2], [0, 30, 50])
        assert time_vector == {0: 30, 1: 20, 2: 25}
        assert total == 75

    def test_zero_dwell_floored_to_one_second(self):
        time_vector, total = estimate_times([0, 1], [5, 5])
        assert time_vector == {0: 1, 1: 1}
        assert total == 2

    def test_single_visit_exhaustive(self):
        for ts in range(0, 120, 7):
            for page in (0, 3, 11):
                assert estimate_times([page], [ts]) == ({page: 1}, 1)

    def test_mean_rounds_half_up(self):
        # dwells 10 and 15 -> mean 12.5 -> 13
        time_vector, total = estimate_times([0, 1, 2], [0, 10, 25])
        assert time_vector[2] == 13
        assert total == 38

    def test_repeat_visits_aggregate_per_page(self):
        time_vector, total = estimate_times([0, 1, 0], [0, 30, 50])
        assert time_vector == {0: 55, 1: 20}
        assert total == 75

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            estimate_times([0, 1], [0])

    def test_decreasing_timestamps_rejected(self):
        with pytest.raises(ValueError):
            estimate_times([0, 1], [10, 5])


def records_for(client: str, times: list[int], resource: str = "/a") -> list:
    return [make_record(client=client, ts=t, resource=resource) for t in times]


class TestSessionize:
    def test_gap_split(self):
        records = records_for("c", [0, 10, 2000])
        catalog = build_catalog(records)
        sessions = sessionize(records, catalog, timeout=1800)
        assert [len(s.history) for s in sessions] == [2, 1]
        assert sessions[0].start_time == 0
        assert sessions[1].start_time == 2000

    def test_boundary_gap_equal_to_timeout_stays_joined(self):
        records = records_for("c", [0, 1800])
        sessions = sessionize(records, build_catalog(records), timeout=1800)
        assert len(sessions) == 1

    def test_empty_stream(self):
        assert sessionize([], build_catalog([]), 1800) == []

    def test_empty_catalog_rejected(self):
        records = records_for("c", [0])
        with pytest.raises(EmptyCatalog):
            sessionize(records, build_catalog([]), 1800)

    def test_bad_timeout_rejected(self):
        with pytest.raises(ValueError):
            sessionize([], build_catalog([]), 0)

    def test_single_hit_sessions_retained(self):
        records = records_for("c", [0, 5000, 10000])
        sessions = sessionize(records, build_catalog(records), timeout=1800)
        assert len(sessions) == 3
        assert all(len(s.history) == 1 for s in sessions)

    def test_clients_partitioned(self):
        records = records_for("a", [0, 10]) + records_for("b", [5, 15])
        sessions = sessionize(records, build_catalog(records), 1800)
        assert [s.client_id for s in sessions] == ["a", "b"]

    def test_vectors_populated(self):
        records = [
            make_record(client="c", ts=0, resource="/x"),
            make_record(client="c", ts=30, resource="/y"),
            make_record(client="c", ts=50, resource="/x"),
        ]
        catalog = build_catalog(records)
        (session,) = sessionize(records, catalog, 1800)
        x, y = catalog.index["/x"], catalog.index["/y"]
        assert session.history == (x, y, x)
        assert session.transaction_vector == {x: 1, y: 1}
        assert session.hits_vector == {x: 2, y: 1}
        assert session.date_vector == {x: 0, y: 30}
        assert session.time_vector == {x: 55, y: 20}
        assert session.total_time == 75
        assert session.catalog_size == 2


def test_planted_boundaries_recovered_exactly():
    model = TrafficModel(seed=21)
    lines, truth = generate(model, 5000)
    text = "".join(lines)
    records = filter_page_requests(parse_log(text.splitlines()).records)
    sessions = sessionize(records, build_catalog(records), model.session_timeout)
    assert len(sessions) == truth.session_count
    assert {(s.client_id, s.start_time) for s in sessions} == set(truth.session_keys)


_streams = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", "c"]),          # client
        st.integers(0, 50_000),                    # timestamp
        st.sampled_from(["/p0", "/p1", "/p2", "/p3", "/p4"]),
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=200)
@given(_streams, st.integers(1, 3000))
def test_fuzzed_streams_satisfy_invariants(rows, timeout):
    records = [make_record(client=c, ts=t, resource=r) for c, t, r in rows]
    catalog = build_catalog(records)
    sessions = sessionize(records, catalog, timeout)
    assert sum(len(s.history) for s in sessions) == len(records)
    for session in sessions:
        assert_session_invariants(session)
    # per-client: sessions must not overlap and consecutive gaps exceed timeout
    by_client: dict[str, list] = {}
    for session in sessions:
        by_client.setdefault(session.client_id, []).append(session)
    for client_sessions in by_client.values():
        for earlier, later in zip(client_sessions, client_sessions[1:]):
            last_seen = max(earlier.date_vector.values())
            assert later.start_time - last_seen > timeout

    # date_vector entries are real first-visit timestamps from the input
    for session in sessions:
        stamps = sorted(t for c, t, _ in rows if c == session.client_id)
        for first_visit in session.date_vector.values():
            assert first_visit in stamps


@settings(max_examples=100)
@given(_streams, st.randoms(use_true_random=False))
def test_shuffle_stability(rows, rng):
    records = [make_record(client=c, ts=t, resource=r) for c, t, r in rows]
    catalog = build_catalog(records)
    baseline = sessionize(records, catalog, 600)
    shuffled = list(records)
    rng.shuffle(shuffled)
    reshuffled = sessionize(shuffled, catalog, 600)
    assert sorted(baseline, key=lambda s: (s.client_id, s.start_time)) == sorted(
        reshuffled, key=lambda s: (s.client_id, s.start_time)
    )


def reference_dwells(history, stamps) -> tuple[dict[int, int], int]:
    """The dwell rule written out: each gap bumped to at least 1 second, the
    last visit the round-half-up mean of the gaps (1 when there are none)."""
    dwells = [max(1, b - a) for a, b in zip(stamps, stamps[1:])]
    if dwells:
        mean = sum(dwells) / len(dwells)
        dwells.append(int(mean) + (mean - int(mean) >= 0.5))
    else:
        dwells.append(1)
    time_vector: dict[int, int] = {}
    for page, dwell in zip(history, dwells):
        time_vector[page] = time_vector.get(page, 0) + dwell
    return time_vector, sum(dwells)


def reference_sessionize(records, catalog, timeout) -> list[Session]:
    """Each client's records sorted by the whole record key, split at gaps
    over the timeout, each run's dwells by reference_dwells."""
    by_client: dict[str, list] = {}
    for record in records:
        by_client.setdefault(record.client_id, []).append(record)
    sessions = []
    for rows in by_client.values():
        rows = sorted(rows, key=lambda r: (
            r.timestamp, r.resource, r.status, r.referrer or "", r.user_agent or ""
        ))
        runs = [[rows[0]]]
        for earlier, later in zip(rows, rows[1:]):
            if later.timestamp - earlier.timestamp > timeout:
                runs.append([])
            runs[-1].append(later)
        for run in runs:
            history = tuple(catalog.index[r.resource] for r in run)
            stamps = [r.timestamp for r in run]
            time_vector, total = reference_dwells(history, stamps)
            pages = sorted(set(history))
            sessions.append(Session(
                client_id=run[0].client_id,
                identity=None,
                start_time=stamps[0],
                history=history,
                transaction_vector={p: 1 for p in pages},
                time_vector={p: time_vector[p] for p in pages},
                date_vector={p: stamps[history.index(p)] for p in pages},
                hits_vector={p: history.count(p) for p in pages},
                total_time=total,
                catalog_size=catalog.size,
            ))
    return sessions


def _vectors_in_order(sessions) -> list:
    # similarity sums run in the vectors' key order, so that order is output too
    return [
        (s, [list(v.items()) for v in (s.transaction_vector, s.time_vector,
                                       s.date_vector, s.hits_vector)])
        for s in sessions
    ]


# few stamps, either side of 1970, so one client's records often share a
# timestamp and differ only in resource, status, referrer or user agent (None
# and "" among them)
_tied_streams = st.lists(
    st.builds(
        make_record,
        client=st.sampled_from(["a", "b"]),
        ts=st.integers(-12, 12).map(lambda t: t * abs(t) * 5),
        resource=st.sampled_from(["/p0", "/p1", "/p2"]),
        status=st.sampled_from([200, 304]),
        referrer=st.sampled_from([None, "", "http://r/"]),
        user_agent=st.sampled_from([None, "", "UA"]),
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=300)
@given(_tied_streams, st.integers(1, 200))
def test_sessionize_equals_full_key_reference(records, timeout):
    catalog = build_catalog(records)
    assert _vectors_in_order(sessionize(records, catalog, timeout)) == _vectors_in_order(
        reference_sessionize(records, catalog, timeout)
    )


@st.composite
def _page_views(draw) -> tuple[PageViews, int]:
    """Per-client columns and a timeout: each client's epochs strictly
    increasing, tied or shuffled, their gaps at the timeout, one second
    either side of it, well within or well past it; a client with no gap
    has a single view.  Pages are numbered in a drawn order, often not
    their names' order, so ties must be broken by name, not by index."""
    timeout = draw(st.integers(1, 100))
    names = draw(st.permutations(["/a", "/b", "/c", "/d"]))[: draw(st.integers(1, 4))]
    step = st.sampled_from([0, 1, 2, timeout - 1, timeout, timeout + 1, 3 * timeout])
    clients = {}
    for client in draw(st.lists(st.sampled_from("wxyz"), min_size=1, max_size=4, unique=True)):
        order = draw(st.sampled_from(["increasing", "tied", "shuffled"]))
        gaps = draw(st.lists(step, max_size=12))
        if order == "increasing":
            gaps = [max(gap, 1) for gap in gaps]
        stamps = list(accumulate(gaps, initial=draw(st.integers(-(10**6), 10**6))))
        if order == "shuffled":
            stamps = draw(st.permutations(stamps))
        page = st.integers(0, len(names) - 1)
        clients[client] = (stamps, draw(st.lists(page, min_size=len(stamps), max_size=len(stamps))))
    return PageViews({name: i for i, name in enumerate(names)}, clients), timeout


@settings(max_examples=300)
@given(_page_views())
def test_sessionize_of_columns_equals_the_reference(drawn):
    views, timeout = drawn
    catalog = views.catalog
    records = [
        make_record(client=client, ts=stamp, resource=catalog.pages[page])
        for client, (stamps, history) in views.clients.items()
        for stamp, page in zip(stamps, history)
    ]
    assert _vectors_in_order(sessionize(views, catalog, timeout)) == _vectors_in_order(
        reference_sessionize(records, catalog, timeout)
    )


@settings(max_examples=200)
@given(st.lists(st.tuples(st.integers(-50, 50), st.integers(0, 4)), min_size=1, max_size=30))
def test_estimate_times_is_the_dwell_of_the_one_session_sessionize_builds(visits):
    visits.sort()  # by time, then page: an order sessionize keeps
    timestamps, history = (list(column) for column in zip(*visits))
    views = PageViews({f"/p{i}": i for i in range(5)}, {"c": (timestamps, history)})
    (session,) = sessionize(views, views.catalog, timeout=101)
    assert session.history == tuple(history)
    assert estimate_times(history, timestamps) == (session.time_vector, session.total_time)


def test_jsonl_roundtrip():
    model = TrafficModel(seed=2)
    lines, _ = generate(model, 2000)
    text = "".join(lines)
    records = filter_page_requests(parse_log(text.splitlines()).records)
    sessions = sessionize(records, build_catalog(records), model.session_timeout)
    dumped = dump_sessions_jsonl(sessions)
    assert load_sessions_jsonl(dumped.splitlines()) == sessions
    # a second dump of the reloaded sessions is byte-identical
    assert dump_sessions_jsonl(load_sessions_jsonl(dumped.splitlines())) == dumped


_DUMP_LINE = {
    "client_id": "c", "identity": None, "start_time": 0, "history": [1, 2, 1],
    "transaction_vector": {"1": 1, "2": 1}, "time_vector": {"1": 5, "2": 3},
    "date_vector": {"1": 0, "2": 4}, "hits_vector": {"1": 2, "2": 1},
    "total_time": 8, "catalog_size": 4,
}


@pytest.mark.parametrize(
    "key", ["transaction_vector", "time_vector", "date_vector", "hits_vector"]
)
@pytest.mark.parametrize("spelling", ["01", " 1", "+1", "1_0"])
def test_vector_naming_a_page_twice_is_rejected(key, spelling):
    record = json.loads(json.dumps(_DUMP_LINE))
    page = int(spelling)
    record[key][str(page)] = 5
    record[key][spelling] = 7
    record["catalog_size"] = 16
    with pytest.raises(MalformedDump, match=f"line 2: {key}: page {page} named twice"):
        load_sessions_jsonl(["", json.dumps(record)])


@pytest.mark.parametrize(
    "once, twice, key",
    [
        ('"time_vector": {"1": 5', '"time_vector": {"1": 5, "1": 7', "1"),
        ('"hits_vector": {"1": 2', '"hits_vector": {"1": 2, "1": 2', "1"),
        ('"catalog_size": 4', '"catalog_size": 4, "catalog_size": 9', "catalog_size"),
        ('"client_id": "c"', '"client_id": "c", "client_id": "c"', "client_id"),
    ],
    ids=["vector", "vector-same-value", "catalog-size", "client-id"],
)
def test_object_naming_a_key_twice_is_rejected(once, twice, key):
    line = json.dumps(_DUMP_LINE)
    assert once in line
    with pytest.raises(MalformedDump, match=f"^line 2: key '{key}' named twice$"):
        load_sessions_jsonl(["", line.replace(once, twice)])


@pytest.mark.parametrize("before", [[], [json.dumps(_DUMP_LINE)]], ids=["first", "second"])
def test_line_starting_with_a_byte_order_mark_is_named(before):
    line = "\ufeff" + json.dumps(_DUMP_LINE)
    message = (
        f"line {len(before) + 1}: not JSON (Unexpected UTF-8 BOM (decode using utf-8-sig): "
        "line 1 column 1 (char 0))"
    )
    with pytest.raises(MalformedDump, match=f"^{re.escape(message)}$"):
        load_sessions_jsonl([*before, line])


def test_history_may_repeat_pages():
    (session,) = load_sessions_jsonl([json.dumps(_DUMP_LINE)])
    assert session.history == (1, 2, 1)
    assert session.time_vector == {1: 5, 2: 3}


@st.composite
def _dumpable_sessions(draw) -> list[Session]:
    """0-4 sessions of one catalog whose vectors hold ints, finite floats or
    a mix, keyed by random pages."""
    catalog_size = draw(st.integers(1, 40))
    page = st.integers(0, catalog_size - 1)
    ints, floats = st.integers(-(10**15), 10**15), st.floats(allow_nan=False, allow_infinity=False)
    sessions = []
    for _ in range(draw(st.integers(0, 4))):
        values = draw(st.sampled_from([ints, floats, ints | floats]))

        def vector() -> dict:
            return draw(st.dictionaries(page, values, max_size=6))

        sessions.append(Session(
            client_id=draw(st.text(max_size=4)), identity=draw(st.none() | st.text(max_size=3)),
            start_time=draw(ints), history=tuple(draw(st.lists(page, max_size=8))),
            transaction_vector=vector(), time_vector=vector(), date_vector=vector(),
            hits_vector=vector(), total_time=draw(ints), catalog_size=catalog_size,
        ))
    return sessions


@settings(max_examples=200)
@given(_dumpable_sessions())
def test_dump_of_int_and_float_sessions_loads_back(sessions):
    lines = dump_sessions_jsonl(sessions).splitlines()
    loaded = load_sessions_jsonl(lines)
    assert loaded == sessions
    checked = [session_from_dict(json.loads(line)) for line in lines]
    assert _vectors_in_order(loaded) == _vectors_in_order(checked)


def _checked_read(line: str):
    """What the checked path makes of one dump line: its session, or the
    message :func:`load_sessions_jsonl` gives for the fault it names."""
    try:
        return session_from_dict(json.loads(line))
    except KeyError as exc:
        return f"line 1: missing key {exc}"
    except (AttributeError, TypeError, ValueError) as exc:
        return f"line 1: {exc}"


_PAGE_NAMES = ["1", "01", "+1", " 1", "1 ", "1_0", "\u0661", "-1", "-0", "00", "15", "16",
               "999999999999", "1000000000000", "x", ""]
_DROP = object()  # the key or item is removed
_ODD_VALUES = [True, False, 1.0, 1.5, -1, 15, 16, 10**12, "1", None, [1], {"1": 1}, _DROP]
_VECTOR_KEYS = ["transaction_vector", "time_vector", "date_vector", "hits_vector"]


@settings(max_examples=300)
@given(
    mutation=st.one_of(
        st.tuples(st.just("field"), st.sampled_from(sorted(_DUMP_LINE)), st.sampled_from(_ODD_VALUES)),
        st.tuples(st.just("history"), st.integers(0, 2), st.sampled_from(_ODD_VALUES)),
        st.tuples(st.just("value"), st.sampled_from(_VECTOR_KEYS), st.sampled_from(_ODD_VALUES)),
        st.tuples(st.just("rename"), st.sampled_from(_VECTOR_KEYS), st.sampled_from(_PAGE_NAMES)),
        st.tuples(st.just("add"), st.sampled_from(_VECTOR_KEYS), st.sampled_from(_PAGE_NAMES)),
    ),
    catalog_size=st.sampled_from([16, 10**12]),
)
@example(mutation=("history", 1, 16), catalog_size=16)
@example(mutation=("history", 1, -1), catalog_size=16)
@example(mutation=("add", "time_vector", "1000000000000"), catalog_size=10**12)
@example(mutation=("add", "hits_vector", "999999999999"), catalog_size=10**12)
def test_reader_matches_the_checked_path_on_mutated_lines(mutation, catalog_size):
    """A line with a bool, a float or a string in an int field, a page
    outside the catalog or a page name that is not ``str`` of its index
    reads as the checked path reads it: the same session or the same
    message."""
    record = json.loads(json.dumps(_DUMP_LINE))
    record["catalog_size"] = catalog_size
    family, key, value = mutation
    if family == "field":
        container, slot = record, key
    elif family == "history":
        container, slot = record["history"], key
    elif family == "value":
        container, slot = record[key], "2"
    elif family == "rename":  # page 1 under another name
        container, slot = record, key
        value = {value if k == "1" else k: v for k, v in record[key].items()}
    else:
        container, slot, value = record[key], value, 3
    if value is _DROP:
        del container[slot]
    else:
        container[slot] = value
    line = json.dumps(record)
    try:
        (got,) = load_sessions_jsonl([line])
    except MalformedDump as exc:
        got = str(exc)
    expected = _checked_read(line)
    assert got == expected
    if isinstance(expected, Session):
        assert _vectors_in_order([got]) == _vectors_in_order([expected])
