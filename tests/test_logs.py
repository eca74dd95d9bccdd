from __future__ import annotations

import re
from datetime import datetime, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antsess.logs import (
    FilterPolicy,
    LogFormat,
    LogRecord,
    UnreadableSource,
    build_catalog,
    filter_page_requests,
    format_clf,
    normalize_resource,
    parse_clf_timestamp,
    parse_log,
)
from antsess.synth import default_model, generate

from conftest import make_record

CANONICAL = '10.0.0.1 - - [10/Mar/2014:13:55:36 +0000] "GET /index.html HTTP/1.1" 200 2326'


def utc_epoch(*args) -> int:
    return int(datetime(*args, tzinfo=timezone.utc).timestamp())


class TestParseClf:
    def test_canonical_line(self):
        result = parse_log([CANONICAL])
        assert len(result.records) == 1
        assert not result.malformed
        record = result.records[0]
        assert record.client_id == "10.0.0.1"
        assert record.resource == "/index.html"
        assert record.status == 200
        assert record.timestamp == utc_epoch(2014, 3, 10, 13, 55, 36)
        assert record.referrer is None
        assert record.user_agent is None

    def test_empty_stream(self):
        result = parse_log([])
        assert result.records == []
        assert result.malformed == []

    def test_timezone_offsets_converge_to_utc(self):
        # same instant written with two different offsets
        assert parse_clf_timestamp("10/Mar/2014:13:55:36 +0000") == parse_clf_timestamp(
            "10/Mar/2014:19:25:36 +0530"
        )
        assert parse_clf_timestamp("10/Mar/2014:08:55:36 -0500") == utc_epoch(
            2014, 3, 10, 13, 55, 36
        )

    def test_authuser_becomes_client_id(self):
        line = '10.0.0.1 - alice [10/Mar/2014:13:55:36 +0000] "GET /a.html HTTP/1.1" 200 17'
        assert parse_log([line]).records[0].client_id == "alice"

    def test_malformed_lines_skipped_with_numbers(self):
        lines = [CANONICAL, "utter garbage", CANONICAL, ""]
        result = parse_log(lines)
        assert len(result.records) == 2
        assert [w.line_number for w in result.malformed] == [2, 4]

    def test_missing_bytes_field_is_malformed(self):
        line = '10.0.0.1 - - [10/Mar/2014:13:55:36 +0000] "GET /a HTTP/1.1" 200'
        assert len(parse_log([line]).malformed) == 1

    def test_unreadable_source_aborts(self):
        def reader():
            yield CANONICAL
            raise OSError("disk gone")

        with pytest.raises(UnreadableSource):
            parse_log(reader())


class TestParseCombined:
    def test_referrer_and_user_agent(self):
        line = (
            '10.0.0.1 - - [10/Mar/2014:13:55:36 +0000] "GET /a.html HTTP/1.1" 200 17 '
            '"http://example.com/start" "Mozilla/5.0"'
        )
        record = parse_log([line], LogFormat.COMBINED).records[0]
        assert record.referrer == "http://example.com/start"
        assert record.user_agent == "Mozilla/5.0"

    def test_dash_fields_become_none(self):
        line = (
            '10.0.0.1 - - [10/Mar/2014:13:55:36 +0000] "GET /a.html HTTP/1.1" 200 17 "-" "-"'
        )
        record = parse_log([line], LogFormat.COMBINED).records[0]
        assert record.referrer is None
        assert record.user_agent is None


class TestParseCsv:
    def test_epoch_timestamp(self):
        record = parse_log(["alice,1394459736,/Index.html"], LogFormat.CSV).records[0]
        assert record == LogRecord("alice", 1394459736, "/index.html", 200)

    def test_iso_timestamp(self):
        record = parse_log(["bob,2014-03-10T13:55:36Z,/a"], LogFormat.CSV).records[0]
        assert record.timestamp == utc_epoch(2014, 3, 10, 13, 55, 36)

    def test_wrong_arity_is_malformed(self):
        assert len(parse_log(["a,b"], LogFormat.CSV).malformed) == 1


class TestNormalize:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("/A/B.Html", "/a/b.html"),
            ("/a/b/?q=1", "/a/b"),
            ("/a#frag", "/a"),
            ("/", "/"),
            ("//", "/"),
            ("http://example.com/Path/", "/path"),
        ],
    )
    def test_cases(self, raw, expected):
        assert normalize_resource(raw) == expected


# independent grammar oracle: month-validated strict CLF shape
_ORACLE = re.compile(
    r"^\S+ \S+ \S+ "
    r"\[\d{1,2}/(Jan|Feb|Mar|Apr|May|Jun|Jul|Aug|Sep|Oct|Nov|Dec)/\d{4}"
    r":\d{2}:\d{2}:\d{2} [+-]\d{4}\] "
    r'"\S+ \S+ \S+" \d{3} (\d+|-)$'
)


def test_corrupted_synthetic_log_counts_match_oracle():
    text, _ = generate(default_model(seed=3), 5000)
    lines = text.splitlines()
    corrupt_at = [17 + 401 * k for k in range(12)]
    for idx in corrupt_at:
        lines[idx] = f"## corrupted line {idx} ##"
    oracle_ok = sum(1 for line in lines if _ORACLE.match(line))
    assert oracle_ok == 4988
    result = parse_log(lines)
    assert len(result.records) == 4988
    assert len(result.malformed) == 12
    assert [w.line_number for w in result.malformed] == [i + 1 for i in corrupt_at]


class TestFilter:
    def test_extension_rule(self):
        records = [
            make_record(resource="/index.html"),
            make_record(resource="/logo.png"),
            make_record(resource="/about.html"),
        ]
        kept = filter_page_requests(records)
        assert [r.resource for r in kept] == ["/index.html", "/about.html"]

    def test_status_rule(self):
        assert filter_page_requests([make_record(resource="/a.html", status=404)]) == []
        assert len(filter_page_requests([make_record(status=304)])) == 1

    def test_custom_policy(self):
        policy = FilterPolicy(
            excluded_extensions=frozenset({".html"}),
            accepted_statuses=frozenset({200}),
        )
        records = [make_record(resource="/a.html"), make_record(resource="/a.pdf")]
        assert [r.resource for r in filter_page_requests(records, policy)] == ["/a.pdf"]

    def test_idempotent(self):
        records = [
            make_record(resource=r, status=s)
            for r in ("/a.html", "/b.css", "/c.gif", "/d")
            for s in (200, 301, 404, 304)
        ]
        once = filter_page_requests(records)
        assert filter_page_requests(once) == once

    def test_planted_assets_removed_exactly(self):
        # generator tags every record; the tag count is the oracle
        text, truth = generate(default_model(seed=5, asset_ratio=0.4), 5000)
        lines = text.splitlines()
        assert len(lines) == 5000
        expected_pages = truth.record_kinds.count("page")
        assert expected_pages == 3000
        records = parse_log(lines).records
        assert len(filter_page_requests(records)) == expected_pages


class TestCatalog:
    def test_first_appearance_order(self):
        records = [make_record(resource=r) for r in ("/a", "/b", "/a")]
        catalog = build_catalog(records)
        assert catalog.pages == ("/a", "/b")
        assert catalog.index == {"/a": 0, "/b": 1}

    def test_empty(self):
        assert build_catalog([]).pages == ()

    def test_matches_generator_page_set(self):
        text, truth = generate(default_model(seed=9), 5000)
        records = filter_page_requests(parse_log(text.splitlines()).records)
        catalog = build_catalog(records)
        assert set(catalog.pages) == set(truth.page_paths)
        assert len(catalog.pages) == len(set(truth.page_paths))

    @given(st.lists(st.sampled_from(["/a", "/b", "/c", "/d/e", "/f"]), max_size=40))
    def test_size_equals_distinct_count(self, resources):
        records = [make_record(resource=r) for r in resources]
        catalog = build_catalog(records)
        assert len(catalog.pages) == len(set(resources))
        assert all(catalog.index[p] == k for k, p in enumerate(catalog.pages))


_path_segment = st.text(alphabet="abcdefghij0123456789-_", min_size=1, max_size=8)


@st.composite
def clf_records(draw):
    host = ".".join(str(draw(st.integers(1, 254))) for _ in range(4))
    path = "/" + "/".join(draw(st.lists(_path_segment, min_size=1, max_size=3)))
    return LogRecord(
        client_id=host,
        timestamp=draw(
            st.integers(utc_epoch(1000, 1, 1), utc_epoch(9999, 12, 31, 23, 59, 59))
        ),
        resource=path,
        status=draw(st.integers(100, 599)),
    )


@settings(max_examples=200)
@given(clf_records())
def test_clf_roundtrip(record):
    parsed = parse_log([format_clf(record)]).records
    assert parsed == [record]


class TestCalendarValidation:
    """Instants that do not exist are malformed lines, never raised or wrapped."""

    @pytest.mark.parametrize(
        "stamp",
        [
            "31/Feb/2014:00:00:00 +0000",
            "29/Feb/2014:00:00:00 +0000",
            "29/Feb/1900:00:00:00 +0000",
            "00/Jan/2014:00:00:00 +0000",
            "32/Jan/2014:00:00:00 +0000",
            "31/Apr/2014:00:00:00 +0000",
            "10/Mar/2014:24:00:00 +0000",
            "10/Mar/2014:23:60:00 +0000",
            "10/Mar/2014:23:59:60 +0000",
            "99/Jan/2014:25:61:61 +0000",
            "10/Mar/2014:13:55:36 +0099",
        ],
    )
    def test_clf_out_of_range_is_malformed(self, stamp):
        line = CANONICAL.replace("10/Mar/2014:13:55:36 +0000", stamp)
        result = parse_log([line])
        assert result.records == []
        assert len(result.malformed) == 1
        with pytest.raises(ValueError):
            parse_clf_timestamp(stamp)

    @pytest.mark.parametrize(
        "stamp",
        [
            "2014-13-01T00:00:00",
            "2014-00-10T00:00:00",
            "2014-02-31T00:00:00",
            "2014-02-29T00:00:00",
            "2014-06-31T00:00:00",
            "2014-03-00T00:00:00",
            "2014-03-10T24:00:00",
            "2014-03-10T12:60:00",
            "2014-03-10T12:00:60Z",
            "0000-01-01T00:00:00",
            "2014-03-10T12:00:00+00:99",
            "2014-03-10T12:00:00+25:00",
        ],
    )
    def test_csv_out_of_range_is_malformed(self, stamp):
        result = parse_log([f"c1,{stamp},/a", "c1,2014-01-01T00:00:00,/b"], LogFormat.CSV)
        assert [m.line_number for m in result.malformed] == [1]
        assert [r.resource for r in result.records] == ["/b"]

    @pytest.mark.parametrize(
        "stamp, part, later",
        [
            ("32/Jan/0000:00:00:00 +0000", "year", "day"),
            ("32/Xyz/2014:00:00:00 +0000", "month", "day"),
            ("29/Feb/2014:24:00:00 +0000", "day", "hour"),
            ("10/Mar/2014:24:60:00 +0000", "hour", "minute"),
            ("10/Mar/2014:23:60:60 +0000", "minute", "second"),
            ("10/Mar/2014:23:59:60 +0099", "second", "zone"),
            ("10/Mar/2014:24:00:00 +0099", "hour", "zone"),
        ],
    )
    def test_clf_earlier_bad_part_is_named(self, stamp, part, later):
        line = CANONICAL.replace("10/Mar/2014:13:55:36 +0000", stamp)
        (reason,) = [m.reason for m in parse_log([line]).malformed]
        assert part in reason and later not in reason
        assert "\n" not in reason

    @pytest.mark.parametrize(
        "stamp, part, later",
        [
            ("0000-13-01T00:00:00", "year", "month"),
            ("2014-13-32T00:00:00", "month", "day"),
            ("2014-04-31T24:00:00", "day", "hour"),
            ("2014-03-10T12:60:60", "minute", "second"),
            ("2014-03-10T24:00:00+00:99", "hour", "zone"),
        ],
    )
    def test_csv_earlier_bad_part_is_named(self, stamp, part, later):
        (reason,) = [m.reason for m in parse_log([f"c1,{stamp},/a"], LogFormat.CSV).malformed]
        assert part in reason and later not in reason
        assert "\n" not in reason

    def test_leap_days_and_bounds_are_accepted(self):
        assert parse_clf_timestamp("29/Feb/2016:23:59:59 +0000") == utc_epoch(
            2016, 2, 29, 23, 59, 59
        )
        assert parse_clf_timestamp("29/Feb/2000:00:00:00 +0000") == utc_epoch(2000, 2, 29)
        assert parse_clf_timestamp("31/Dec/2014:00:00:00 +0000") == utc_epoch(2014, 12, 31)
        record = parse_log(["c1,2016-02-29T00:00:00,/a"], LogFormat.CSV).records[0]
        assert record.timestamp == utc_epoch(2016, 2, 29)


def datetime_error(*args) -> str:
    with pytest.raises(ValueError) as exc:
        datetime(*args)
    return str(exc.value)


# Edge lines and what the checked path alone (line grammar, request split,
# stamp grammar, calendar) makes of each: the page of its record, or its
# reason.  The plain line comes before the out-of-range stamps on its date
# and zone, so the calendar memo already holds that date and zone when the
# one-pattern path reads them.
_EDGE_BASE = '10.0.0.1 - - [01/Jan/2024:01:54:06 +0000] "GET /a.html HTTP/1.1" 200 17'
_EDGE_LINES = [
    # the stamp grammar's `$` accepts a newline at the stamp's end
    ("+0000]", "+0000\n]", "/a.html"),
    ("GET /a.html", "GET  /a.html", "bad request field: 'GET  /a.html HTTP/1.1'"),
    ("GET /a.html", "GET ?", "/"),
    ("/a.html", "/a\tb.html", "/ab.html"),
    ("/Jan/", "/jan/", "/a.html"),
    ("", "", "/a.html"),
    ("01:54:06", "24:00:00", datetime_error(2024, 1, 1, 24, 0, 0)),
    ("01:54:06", "23:60:00", datetime_error(2024, 1, 1, 23, 60, 0)),
    ("01:54:06", "23:59:60", datetime_error(2024, 1, 1, 23, 59, 60)),
    ("+0000", "+0099", "bad zone offset: +0099"),
    ("01/Jan", "31/Feb", datetime_error(2024, 2, 31, 1, 54, 6)),
]


@pytest.mark.parametrize(
    "fmt, tail, extra",
    [
        (LogFormat.CLF, "", (None, None)),
        (LogFormat.COMBINED, ' "http://r/" "-"', ("http://r/", None)),
    ],
    ids=["clf", "combined"],
)
def test_edge_lines_keep_their_records_and_reasons(fmt, tail, extra):
    lines = [_EDGE_BASE.replace(old, new) + tail for old, new, _ in _EDGE_LINES]
    result = parse_log(lines, fmt)
    records = iter(result.records)
    reasons = {m.line_number: m.reason for m in result.malformed}
    outcomes = [reasons.get(number) or next(records) for number in range(1, len(lines) + 1)]
    assert outcomes == [
        LogRecord("10.0.0.1", 1_704_074_046, want, 200, *extra) if want.startswith("/") else want
        for _, _, want in _EDGE_LINES
    ]
    assert all(type(record) is LogRecord for record in result.records)


class TestRecordShape:
    def test_record_is_a_plain_immutable_tuple(self):
        record = LogRecord("alice", 1394459736, "/a", 200)
        assert not hasattr(record, "__dict__")
        assert record == ("alice", 1394459736, "/a", 200, None, None)
        assert hash(record) == hash(LogRecord("alice", 1394459736, "/a", 200))
        with pytest.raises(AttributeError):
            record.status = 404

    def test_records_share_page_and_client_strings(self):
        targets = ("/Index.html?x=1", "/Index.html?y=2", "/INDEX.HTML")
        lines = [CANONICAL.replace("/index.html", target) for target in targets]
        first, second, third = parse_log(lines).records
        assert first.resource == second.resource == third.resource == "/index.html"
        # the page memo is keyed with the query cut off: one entry, one string
        assert first.resource is second.resource
        assert first.client_id is second.client_id is third.client_id


# Ingest properties.  The memos of one parse_log call must never change what a
# line parses to, so a batch equals its lines parsed one call each (every
# stamp then takes the unmemoized calendar path).  Stamps come from small
# pools of valid parts with at most one part swapped for a bad one, so valid
# and invalid stamps share a day prefix and the memo sees hits and misses.

_CLF_PARTS = {
    "day": (["01", "1"], ["00", "29", "30", "31", "32"]),
    "month": (["Jan", "feb"], ["Xyz", "Apr"]),
    "year": (["2016"], ["1900", "0000"]),
    "clock": (["00:00:00", "13:55:36", "23:59:59"], ["24:00:00", "12:60:00", "12:00:60"]),
    "zone": (["+0000", "-0500", "-0530"], ["+0099", "+2400", "-0060"]),
}
_CSV_PARTS = {
    "day": (["01", "28"], ["00", "29", "30", "31", "32"]),
    "month": (["02"], ["00", "04", "13"]),
    "year": (["2016"], ["1900", "0000"]),
    "clock": (["T00:00:00", " 13:55:36", "T23:59:59"], ["T24:00:00", "T12:60:00", " 12:00:60"]),
    "zone": (["", "Z", "+0530", "+05:00", "-05:00"], ["+00:99", "+25:00", "+0060"]),
}
_TARGETS = ["/", "/a", "/A/", "/a?x=1", "/a?y", "/b.css?v=2", "/c.png", "/d#f?g",
            "http://h/P?q", "//[::1]/z?w", "//[bad?x", "a?b:c"]
_CLIENTS = ["10.0.0.1", "10.0.0.2", "h"]


def _stamp_parts(draw, pools: dict) -> dict:
    bad = draw(st.sampled_from([None] * len(pools) + [*pools]))
    return {
        name: draw(st.sampled_from(invalid if name == bad else valid))
        for name, (valid, invalid) in pools.items()
    }


@st.composite
def _clf_lines(draw, combined: bool):
    p = _stamp_parts(draw, _CLF_PARTS)
    stamp = f"{p['day']}/{p['month']}/{p['year']}:{p['clock']} {p['zone']}"
    user = draw(st.sampled_from(["-", "alice"]))
    request = draw(st.sampled_from(["GET {} HTTP/1.1"] * 4 + ["GET {}"]))
    line = (
        f"{draw(st.sampled_from(_CLIENTS))} - {user} [{stamp}] "
        f'"{request.format(draw(st.sampled_from(_TARGETS)))}" '
        f"{draw(st.sampled_from(['200', '304', '404']))} 17"
    )
    if combined:
        referrer = draw(st.sampled_from(["-", "http://r/"]))
        line += f' "{referrer}" "{draw(st.sampled_from(["-", "", "UA"]))}"'
    return draw(st.sampled_from([line] * 8 + ["", "garbage"]))


@st.composite
def _csv_lines(draw):
    p = _stamp_parts(draw, _CSV_PARTS)
    iso = f"{p['year']}-{p['month']}-{p['day']}{p['clock']}{p['zone']}"
    stamp = draw(st.sampled_from([iso] * 8 + ["1394459736", "-5", "not-a-time"]))
    return f"{draw(st.sampled_from(_CLIENTS))},{stamp},{draw(st.sampled_from(_TARGETS))}"


def _line_strategy(fmt: LogFormat):
    if fmt is LogFormat.CSV:
        return _csv_lines()
    return _clf_lines(combined=fmt is LogFormat.COMBINED)


@pytest.mark.parametrize("fmt", list(LogFormat))
def test_batch_parse_equals_line_by_line(fmt):
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_line_strategy(fmt), min_size=2, max_size=40))
    def check(lines):
        batch = parse_log(lines, fmt)
        alone = [parse_log([line], fmt) for line in lines]
        assert batch.records == [r for one in alone for r in one.records]
        assert [(m.line_number, m.reason) for m in batch.malformed] == [
            (number, m.reason) for number, one in enumerate(alone, 1) for m in one.malformed
        ]

    check()


# text built from pieces of targets and lines, so the parsers get past
# their first checks more often than on uniformly random text
_PIECES = ["/", "?", "#", ":", "//", "[", "]", "[::1]", "a", "A", "http:", "@", "\t", " "]
_text_of_pieces = st.lists(st.one_of(st.sampled_from(_PIECES), st.text(max_size=3))).map("".join)


@pytest.mark.parametrize("fmt", list(LogFormat))
def test_parse_never_raises_on_arbitrary_text(fmt):
    pieces = st.sampled_from(
        ['"', "-", ",", "+", "GET", "HTTP/1.1", "200", "10/Mar/2014:13:55:36 +0000",
         "2014-03-10T13:55:36Z"]
    )
    line_pieces = st.lists(st.one_of(pieces, _text_of_pieces)).map("".join)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.one_of(st.text(), line_pieces), max_size=10))
    def check(lines):
        result = parse_log(lines, fmt)
        assert len(result.records) + len(result.malformed) == len(lines)

    check()


@settings(max_examples=300, deadline=None)
@given(_text_of_pieces)
def test_page_memo_key_keeps_the_page(target):
    """Pages are memoized by the target with its query cut off; that key
    normalizes to the same page, or fails alike."""
    def page(raw):
        try:
            return normalize_resource(raw)
        except ValueError:
            return ValueError

    assert page(target.partition("?")[0]) == page(target)
