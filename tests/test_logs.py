from __future__ import annotations

import calendar
import io
import json
import re
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from antsess import logs
from antsess.logs import (
    FilterPolicy,
    LogFormat,
    LogRecord,
    MalformedLine,
    PageViews,
    ParseResult,
    UnreadableSource,
    _line_parser,
    build_catalog,
    filter_page_requests,
    format_clf,
    format_clf_timestamp,
    normalize_resource,
    parse_clf_timestamp,
    parse_log,
    read_log,
    record_json,
    render_clf_timestamp,
)
from antsess.sessions import dump_sessions_jsonl, sessionize
from antsess.synth import TrafficModel, generate

from conftest import make_record, sessionize_records

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


_ONE_GOOD_ONE_BAD = {
    LogFormat.CLF: [CANONICAL, "garbage"],
    LogFormat.COMBINED: [CANONICAL + ' "-" "Mozilla/5.0"', "garbage"],
    LogFormat.CSV: ["alice,1394459736,/Index.html", "a,b"],
}


@pytest.mark.parametrize("fmt", list(LogFormat))
def test_format_named_by_its_value_is_the_member(fmt):
    lines = _ONE_GOOD_ONE_BAD[fmt]
    by_member = parse_log(lines, fmt)
    assert len(by_member.records) == len(by_member.malformed) == 1
    assert parse_log(lines, fmt.value) == by_member


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        parse_log([CANONICAL], "nope")


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
    lines, _ = generate(TrafficModel(seed=3), 5000)
    text = "".join(lines)
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

    def test_keeps_reads_the_resource_and_status(self):
        policy = FilterPolicy()
        assert policy.keeps("/a.html", 200) and policy.keeps("/a", 304)
        assert not policy.keeps("/a.html", 404) and not policy.keeps("/a.html", 301)
        # only the last path part's suffix counts
        assert not policy.keeps("/x.min.js", 200)
        assert policy.keeps("/static.js/index", 200)
        records = [
            make_record(resource=r, status=s)
            for r in ("/a.html", "/b.css", "/static.js/index", "/d")
            for s in (200, 301, 404, 304)
        ]
        assert filter_page_requests(records) == [
            r for r in records if policy.keeps(r.resource, r.status)
        ]

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
        lines, truth = generate(TrafficModel(seed=5, asset_ratio=0.4), 5000)
        text = "".join(lines)
        lines = text.splitlines()
        assert len(lines) == 5000
        expected_pages = truth.record_kinds.count("page")
        assert expected_pages == 3000
        records = parse_log(lines).records
        assert len(filter_page_requests(records)) == expected_pages


class TestCatalog:
    def test_first_appearance_order(self):
        records = [make_record(resource=r) for r in ("/a", "/b", "/a")]
        assert list(build_catalog(records).items()) == [("/a", 0), ("/b", 1)]

    def test_empty(self):
        assert build_catalog([]) == {}

    def test_matches_generator_page_set(self):
        lines, truth = generate(TrafficModel(seed=9), 5000)
        text = "".join(lines)
        records = filter_page_requests(parse_log(text.splitlines()).records)
        index = build_catalog(records)
        assert set(index) == set(truth.page_paths)
        assert len(index) == len(set(truth.page_paths))

    @given(st.lists(st.sampled_from(["/a", "/b", "/c", "/d/e", "/f"]), max_size=40))
    def test_size_equals_distinct_count(self, resources):
        records = [make_record(resource=r) for r in resources]
        index = build_catalog(records)
        assert len(index) == len(set(resources))
        assert all(index[p] == k for k, p in enumerate(index))


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


_FIRST_STAMP, _LAST_STAMP = utc_epoch(1, 1, 1), utc_epoch(9999, 12, 31, 23, 59, 59)
_MONTH_NAMES = "Jan Feb Mar Apr May Jun Jul Aug Sep Oct Nov Dec".split()
_BOUNDARIES = st.one_of(
    st.integers(1, 9999).map(lambda year: utc_epoch(year, 1, 1)),
    st.builds(lambda year, month: utc_epoch(year, month, 1),
              st.integers(1, 9999), st.integers(1, 12)),
    st.sampled_from([y for y in range(1, 10000) if calendar.isleap(y)]).map(
        lambda year: utc_epoch(year, 2, 29)),
    st.integers(_FIRST_STAMP, _LAST_STAMP).map(lambda epoch: epoch - epoch % 86400),
    st.just(0),
)
# runs of instants within a day of a midnight, a month or year start or a
# leap day, on either side of 1970, so that a run reads days its neighbours
# memoized; and single instants from year 1 to 9999
_STAMP_RUNS = st.one_of(
    st.builds(
        lambda at, offsets: [min(max(at + o, _FIRST_STAMP), _LAST_STAMP) for o in offsets],
        _BOUNDARIES, st.lists(st.integers(-86401, 86401), min_size=1, max_size=8),
    ),
    st.integers(_FIRST_STAMP, _LAST_STAMP).map(lambda epoch: [epoch]),
)


def _calendar_stamp(epoch: int) -> str:
    """A CLF stamp worked out from scratch with datetime arithmetic."""
    t = datetime(1970, 1, 1) + timedelta(seconds=epoch)
    return (f"{t.day:02d}/{_MONTH_NAMES[t.month - 1]}/{t.year:04d}:"
            f"{t.hour:02d}:{t.minute:02d}:{t.second:02d} +0000")


@settings(max_examples=300, deadline=None)
@given(st.lists(_STAMP_RUNS, min_size=1, max_size=8))
@example([[-86401, -86400, -1, 0, 86399, 86400], [utc_epoch(2024, 2, 29) - 1,
          utc_epoch(2024, 2, 29), utc_epoch(2024, 3, 1) - 1], [_FIRST_STAMP, _LAST_STAMP]])
def test_memoized_stamps_equal_format_clf_timestamp(runs):
    dates: dict[int, str] = {}  # one memo across every epoch, as a corpus uses it
    for epoch in (epoch for run in runs for epoch in run):
        stamp = render_clf_timestamp(epoch, dates)
        assert stamp == format_clf_timestamp(epoch) == _calendar_stamp(epoch)
        assert parse_clf_timestamp(stamp) == epoch


@settings(max_examples=300, deadline=None)
@given(st.integers(_FIRST_STAMP, _LAST_STAMP))
@example(_FIRST_STAMP)
@example(utc_epoch(999, 12, 31, 23, 59, 59))
def test_format_clf_timestamp_round_trips_from_year_1_to_9999(epoch):
    """A year before 1000 is written with four digits, which the parser reads."""
    assert parse_clf_timestamp(format_clf_timestamp(epoch)) == epoch


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
            "01/Jan/0001:00:00:00 +0100",
            "31/Dec/9999:23:59:59 -0100",
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
            "-62135596801",
            "253402300800",
            str(-(10**23)),
            str(10**23),
            "0001-01-01T00:00:00+01:00",
            "9999-12-31T23:59:59-01:00",
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
        first, last = utc_epoch(1, 1, 1), utc_epoch(9999, 12, 31, 23, 59, 59)
        records = parse_log([f"c1,{first},/a", f"c1,{last},/b"], LogFormat.CSV).records
        assert [r.timestamp for r in records] == [first, last]
        assert parse_clf_timestamp("01/Jan/0001:01:00:00 +0100") == first
        assert parse_clf_timestamp("31/Dec/9999:22:59:59 -0100") == last

    @pytest.mark.parametrize(
        "fmt, first, before, last, after",
        [
            (
                LogFormat.CLF,
                "01/Jan/0001:01:00:00 +0100",
                "01/Jan/0001:00:59:59 +0100",
                "31/Dec/9999:22:59:59 -0100",
                "31/Dec/9999:23:00:00 -0100",
            ),
            (
                LogFormat.CSV,
                "0001-01-01T01:00:00+01:00",
                "0001-01-01T00:59:59+01:00",
                "9999-12-31T22:59:59-01:00",
                "9999-12-31T23:00:00-01:00",
            ),
        ],
    )
    def test_a_day_on_the_calendar_edge_is_never_memoized(self, fmt, first, before, last, after):
        """A day and zone that reach past years 1-9999 leave no midnight in
        the memo, so a stamp outside the years after one inside them on the
        same day is checked in full, and named."""
        if fmt is LogFormat.CSV:
            lines = [f"c1,{stamp},/a" for stamp in (first, before, last, after)]
        else:
            lines = [
                CANONICAL.replace("10/Mar/2014:13:55:36 +0000", stamp)
                for stamp in (first, before, last, after)
            ]
        result = parse_log(lines, fmt)
        assert [r.timestamp for r in result.records] == [
            utc_epoch(1, 1, 1), utc_epoch(9999, 12, 31, 23, 59, 59)
        ]
        assert [(m.line_number, m.reason) for m in result.malformed] == [
            (2, f"timestamp outside years 1-9999: {before!r}"),
            (4, f"timestamp outside years 1-9999: {after!r}"),
        ]

    def test_csv_epoch_outside_the_calendar_is_named(self):
        result = parse_log(["c1,253402300800,/a", "c1,-62135596801,/b"], LogFormat.CSV)
        assert [m.reason for m in result.malformed] == [
            "timestamp outside years 1-9999: '253402300800'",
            "timestamp outside years 1-9999: '-62135596801'",
        ]


def datetime_error(*args) -> str:
    with pytest.raises(ValueError) as exc:
        datetime(*args)
    return str(exc.value)


# Edge lines and what the checked path alone (line grammar, request split,
# stamp grammar, calendar) makes of each: the page of its record, or its
# reason.  The plain line comes before the out-of-range stamps on its date
# and zone, so the calendar memo already holds that date and zone when a
# row of the block pattern reads them.
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

    def test_records_after_the_first_share_one_status_int(self):
        lines = [CANONICAL.replace(" 200 ", " 404 ")] * 3
        first, second, third = parse_log(lines).records
        assert first.status == second.status == 404
        assert second.status is third.status


# text with quotes, backslashes, control characters, non-ASCII and astral
# characters, and lone surrogates, which JSON writes as escapes
_JSON_TEXT = st.one_of(
    st.text(st.one_of(st.characters(), st.integers(0xD800, 0xDFFF).map(chr))),
    st.sampled_from(['"', "\\", '\\"', "\x00\x1f\x7f\n\t", "é日本", "\U0001f41c", "\ud83d", "\udc1c"]),
)
_sorted_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


@settings(max_examples=300, deadline=None)
@given(st.builds(
    LogRecord,
    _JSON_TEXT,
    st.one_of(st.integers(logs.FIRST_EPOCH, logs.LAST_EPOCH), st.integers()),
    _JSON_TEXT,
    st.integers(),
    st.one_of(st.none(), st.just(""), _JSON_TEXT),
    st.one_of(st.none(), st.just(""), _JSON_TEXT),
))
@example(LogRecord('a"b', -1, "/\\", 0, "", None))
@example(LogRecord("\ud83d", 99999999999, "\U0001f41c", 404, None, ""))
@example(LogRecord("é\x00", logs.FIRST_EPOCH, "\x1f", 200, "\udc1c", "日本"))
def test_record_json_is_the_sorted_key_encoding(record):
    """The records dump's template writes what the JSON encoder writes of
    the record's fields with sorted keys: ``null`` for a missing referrer or
    agent, and every string ASCII-escaped."""
    assert record_json(record) == _sorted_json(record._asdict()) + "\n"


# Ingest properties.  The memos of one parse_log call must never change what a
# line parses to, so a batch equals its lines parsed one call each (every
# stamp then takes the unmemoized calendar path).  Stamps come from small
# pools of valid parts with at most one part swapped for a bad one, so valid
# and invalid stamps share a day prefix and the memo sees hits and misses;
# lines come in runs that share one stamp, so the previous line's stamp is
# read again, after a valid stamp and after an invalid one.

_CLF_PARTS = {
    "day": (["01", "1", "０１"], ["00", "29", "30", "31", "32"]),
    "month": (["Jan", "feb"], ["Xyz", "Apr"]),
    "year": (["2016", "٢٠١٦"], ["1900", "0000"]),
    # 13:55:00, 13:55:59 and 13:55:60 share a minute with 13:55:36; the
    # fullwidth and Arabic-Indic digits here and in the day, year and zone,
    # which ``\d`` matches and ``int`` reads, are no row of the block pattern
    "clock": (
        ["00:00:00", "13:55:36", "23:59:59", "13:55:00", "13:55:59", "１３:５５:３６", "13:55:٣٨"],
        ["24:00:00", "12:60:00", "12:00:60", "13:55:60", "13:55:٦٠"],
    ),
    "zone": (["+0000", "-0500", "-0530", "-٠٥٣٠"], ["+0099", "+2400", "-0060"]),
}
_CSV_PARTS = {
    "day": (["01", "28"], ["00", "29", "30", "31", "32"]),
    "month": (["02"], ["00", "04", "13"]),
    "year": (["2016"], ["1900", "0000"]),
    "clock": (["T00:00:00", " 13:55:36", "T23:59:59"], ["T24:00:00", "T12:60:00", " 12:00:60"]),
    "zone": (["", "Z", "+0530", "+05:00", "-05:00"], ["+00:99", "+25:00", "+0060"]),
}
_TARGETS = ["/", "/a", "/A/", "/a?x=1", "/a?y", "/b.css?v=2", "/c.png", "/d#f?g",
            "http://h/P?q", "//[::1]/z?w", "//[bad?x", "a?b:c", "/e.GIF", "/f.js?v=1"]
_CLIENTS = ["10.0.0.1", "10.0.0.2", "h"]


def _stamp_parts(draw, pools: dict) -> dict:
    bad = draw(st.sampled_from([None] * len(pools) + [*pools]))
    return {
        name: draw(st.sampled_from(invalid if name == bad else valid))
        for name, (valid, invalid) in pools.items()
    }


def _clf_line(draw, stamp: str, combined: bool) -> str:
    user = draw(st.sampled_from(["-", "alice"]))
    request = draw(st.sampled_from(["GET {} HTTP/1.1"] * 4 + ["GET {}"]))
    line = (
        f"{draw(st.sampled_from(_CLIENTS))} - {user} [{stamp}] "
        f'"{request.format(draw(st.sampled_from(_TARGETS)))}" '
        f"{draw(st.sampled_from(['200', '304', '404', '000', '２００', '٤٠٤']))} "
        f"{draw(st.sampled_from(['17'] * 4 + ['-', '１７', '١٧']))}"
    )
    if combined:
        referrer = draw(st.sampled_from(["-", "http://r/"]))
        line += f' "{referrer}" "{draw(st.sampled_from(["-", "", "UA"]))}"'
    return draw(st.sampled_from([line] * 8 + ["", "garbage"]))


@st.composite
def _line_run(draw, fmt: LogFormat) -> list[str]:
    """One to three lines that share one stamp."""
    count = draw(st.integers(1, 3))
    if fmt is LogFormat.CSV:
        p = _stamp_parts(draw, _CSV_PARTS)
        iso = f"{p['year']}-{p['month']}-{p['day']}{p['clock']}{p['zone']}"
        stamp = draw(st.sampled_from([iso] * 8 + ["1394459736", "-5", "not-a-time"]))
        return [
            f"{draw(st.sampled_from(_CLIENTS))},{stamp},{draw(st.sampled_from(_TARGETS))}"
            for _ in range(count)
        ]
    p = _stamp_parts(draw, _CLF_PARTS)
    stamp = f"{p['day']}/{p['month']}/{p['year']}:{p['clock']} {p['zone']}"
    return [_clf_line(draw, stamp, fmt is LogFormat.COMBINED) for _ in range(count)]


def _lines(fmt: LogFormat, min_runs: int = 0):
    """Lists of lines made of runs that share a stamp."""
    return st.lists(_line_run(fmt), min_size=min_runs, max_size=20).map(lambda runs: sum(runs, []))


@pytest.mark.parametrize("fmt", list(LogFormat))
def test_batch_parse_equals_line_by_line(fmt):
    @settings(max_examples=200, deadline=None)
    @given(_lines(fmt, min_runs=2))
    def check(lines):
        batch = parse_log(lines, fmt)
        alone = [parse_log([line], fmt) for line in lines]
        assert batch.records == [r for one in alone for r in one.records]
        assert [(m.line_number, m.reason) for m in batch.malformed] == [
            (number, m.reason) for number, one in enumerate(alone, 1) for m in one.malformed
        ]

    check()


_POLICIES = {
    "default": FilterPolicy(),
    # keeps status 000 and drops pages with no extension
    "custom": FilterPolicy(
        excluded_extensions=frozenset({"", ".gif"}), accepted_statuses=frozenset({0, 404})
    ),
    "none": None,
}


@pytest.mark.parametrize("policy", list(_POLICIES.values()), ids=list(_POLICIES))
@pytest.mark.parametrize("fmt", list(LogFormat))
def test_filtered_stream_equals_parse_then_filter(fmt, policy):
    """The policy's verdict, given while a line streams, keeps exactly the
    page views of the records the filter keeps of the parsed log (every
    record with no policy), the record sink gets every record, and a
    dropped line is still checked in full."""

    @settings(max_examples=100, deadline=None)
    @given(_lines(fmt))
    def check(lines):
        views, streamed, malformed = PageViews(), [], []
        read_log(lines, fmt, malformed, policy, views, streamed.append)
        parsed = parse_log(lines, fmt)
        kept = parsed.records if policy is None else filter_page_requests(parsed.records, policy)
        assert streamed == parsed.records
        assert views == PageViews.from_records(kept, build_catalog(kept))
        assert malformed == parsed.malformed

    check()


def _checked_reference(lines: list[str], fmt: LogFormat) -> ParseResult:
    """Every line through the checked parser alone, which no memo, pattern
    or block of lines reaches: the reference the block reader must equal."""
    checked = _line_parser(fmt, {}, {}, {})
    result = ParseResult([], [])
    for number, line in enumerate(lines, 1):
        stripped = line.strip()
        if not stripped:
            result.malformed.append(MalformedLine(number, "blank line"))
            continue
        try:
            result.records.append(checked(stripped))
        except ValueError as exc:
            result.malformed.append(MalformedLine(number, str(exc)))
    return result


# whitespace that str.strip and the patterns' classes may read differently
_ODD_SPACE = ["\r", "\xa0", "\x1c", "\x1d", "\x1e", "\x1f", "\t", " ", "\n"]


@st.composite
def _odd_lines(draw, fmt: LogFormat) -> list[str]:
    """Lines as a file or a caller may hand them over: ending in "\n",
    "\r\n" or nothing (or all bare, as ``splitlines`` leaves them), with odd
    whitespace at either end or in place of a space; some lines are "", and
    some hold two lines with the "\n" between them."""
    ends = draw(st.sampled_from([["\n"] * 4 + ["\r\n", ""], [""]]))
    edge = st.sampled_from([""] * 6 + _ODD_SPACE)
    lines: list[str] = []
    for line in draw(_lines(fmt)):
        if draw(st.integers(0, 9)) == 0:
            line = line.replace(" ", draw(st.sampled_from(_ODD_SPACE)), 1)
        line = draw(edge) + line + draw(edge) + draw(st.sampled_from(ends))
        if lines and draw(st.integers(0, 9)) == 0:
            lines[-1] += line if lines[-1].endswith("\n") else "\n" + line
        else:
            lines.append(line)
        if draw(st.integers(0, 9)) == 0:
            lines.append("")
    return lines


def _assert_columns_equal_records(source, lines, fmt, policy, timeout) -> None:
    """The page views read from ``source`` into columns give the sessions,
    catalog and malformed lines of the records parsed from its ``lines``,
    filtered, and of the checked parser's records."""
    views, malformed = PageViews(), []
    read_log(source, fmt, malformed, policy, views)
    parsed = parse_log(lines, fmt)
    reference = _checked_reference(lines, fmt)
    assert parsed == reference
    kept = parsed.records if policy is None else filter_page_requests(parsed.records, policy)
    index = build_catalog(kept)
    assert views.index == index and list(views.index) == list(index)
    assert len(views) == len(kept)
    assert malformed == parsed.malformed
    assert dump_sessions_jsonl(sessionize(views, timeout)) == dump_sessions_jsonl(
        sessionize_records(kept, timeout, index)
    )


@pytest.mark.parametrize("block", [1, 40, logs.BLOCK], ids=["1", "40", "default"])
@pytest.mark.parametrize("policy", list(_POLICIES.values()), ids=list(_POLICIES))
@pytest.mark.parametrize("fmt", list(LogFormat))
def test_columns_equal_parse_filter_sessionize(fmt, policy, block, monkeypatch):
    """Read as a list and as a text file, in blocks whose edges fall inside
    every input when ``BLOCK`` is a few characters; a file that also ends
    lines at a lone "\r" gives a block fewer rows than lines."""
    monkeypatch.setattr(logs, "BLOCK", block)

    @settings(max_examples=60, deadline=None)
    @given(_odd_lines(fmt), st.sampled_from([1, 600, 1800]))
    def check(lines, timeout):
        _assert_columns_equal_records(lines, lines, fmt, policy, timeout)
        text = "".join(lines)
        for newline in ("\n", ""):
            _assert_columns_equal_records(
                io.StringIO(text, newline=newline),
                io.StringIO(text, newline=newline).readlines(),
                fmt, policy, timeout,
            )

    check()


@pytest.mark.parametrize(
    "lines",
    [
        [f"{CANONICAL}\n{CANONICAL}\n", "", f"{CANONICAL}\n"],
        [CANONICAL, f"{CANONICAL}\n{CANONICAL}", ""],
        [f"{CANONICAL}\n", f"{CANONICAL}\n{CANONICAL}\n", "", f"{CANONICAL}\n"],
    ],
)
def test_rows_of_a_block_are_trusted_only_one_per_line(lines):
    """As many matching lines, or "\n", as elements do not make each element
    one line: an element holding two lines is malformed, and "" is blank."""
    assert parse_log(lines) == _checked_reference(lines, LogFormat.CLF)
    assert len(parse_log(lines).records) == len(lines) - 2


def test_a_malformed_line_takes_the_checked_path_alone():
    """In a block of a text file, the well-formed lines keep their rows
    around malformed ones, at the block's start too; only a block whose
    first ``PROBE`` lines are all rejected (a log read in the wrong format)
    loses every row."""
    good = f"{CANONICAL}\n"
    lines = ["garbage\n", good, "\n", good, f"{CANONICAL} extra\n", good]
    ((block, rows),) = logs._blocks(io.StringIO("".join(lines)), logs._CLF_LINES_RE)
    assert block == lines
    assert [bool(row[0]) for row in rows[: len(lines)]] == [False, True, False, True, False, True]
    assert parse_log(lines) == _checked_reference(lines, LogFormat.CLF)
    wrong = ["garbage\n"] * logs.PROBE + [good] * 3
    ((_, rows),) = logs._blocks(io.StringIO("".join(wrong)), logs._CLF_LINES_RE)
    assert not any(row[0] for row in rows)
    assert parse_log(wrong) == _checked_reference(wrong, LogFormat.CLF)


def _clf(client: str, clock: str, request: str, status: str = "200", tail: str = "") -> str:
    return f'{client} - - [10/Mar/2014:{clock} +0000] "GET {request}" {status} 17{tail}'


def _views_of(lines: list[str], fmt: LogFormat = LogFormat.CLF) -> PageViews:
    """The page views read from ``lines`` under the default policy, after
    checking them, their catalog and the malformed lines against the checked
    parser's records, filtered, and the records against it too."""
    policy = FilterPolicy()
    views, malformed = PageViews(), []
    read_log(lines, fmt, malformed, policy, views)
    reference = _checked_reference(lines, fmt)
    assert parse_log(lines, fmt) == reference
    kept = filter_page_requests(reference.records, policy)
    index = build_catalog(kept)
    assert views.index == index and list(views.index) == list(index)
    assert views.clients == PageViews.from_records(kept, index).clients
    assert malformed == reference.malformed
    return views


def test_a_page_is_numbered_at_its_first_kept_view():
    """A line whose time is not vouched for numbers no page, even one the
    memos already know: ``/a`` comes after ``/b`` in the catalog."""
    lines = [
        _clf("h", "12:00:00", "/a HTTP/1.1", "404"),  # dropped; learns the date and the page
        _clf("h", "12:00:60", "/a HTTP/1.1"),
        _clf("h", "12:00:01", "/b HTTP/1.1"),
        _clf("h", "12:00:02", "/a HTTP/1.1"),
    ]
    assert list(_views_of(lines).index) == ["/b", "/a"]


def test_one_target_with_a_kept_and_a_dropped_status():
    lines = [
        _clf("h", "12:00:00", "/a HTTP/1.1", status)
        for status in ("404", "200", "404", "304", "200", "500")
    ]
    assert _views_of(lines).clients["h"][1] == [0, 0, 0]


def test_queries_of_one_target_give_one_page_index():
    lines = [_clf("h", "12:00:00", f"{target} HTTP/1.1") for target in ("/a?x=1", "/a?y=2", "/a")]
    views = _views_of(lines + lines)
    assert views.index == {"/a": 0}
    assert views.clients["h"][1] == [0] * 6


def test_a_protocol_holding_a_query_mark_keeps_its_status():
    """Only the target's query is cut from the request memo's key, so two
    statuses of one target stay two keys."""
    lines = [
        _clf("h", "12:00:00", "/a HTTP?/1.1", "404"),
        _clf("h", "12:00:01", "/a HTTP?/1.1", "200"),
        _clf("h", "12:00:02", "/a?q HTTP?/1.1", "404"),
        _clf("h", "12:00:03", "/a?q HTTP?x", "200"),
    ]
    assert _views_of(lines).clients["h"][1] == [0, 0]


def test_combined_lines_through_the_memos():
    tails = [' "http://r/" "UA"', ' "-" ""', ' "" "-"']
    lines = [
        _clf(client, clock, f"{target} HTTP/1.1", status, tail)
        for client, clock, target, status, tail in [
            ("h", "12:00:00", "/a?x", "200", tails[0]),
            ("g", "12:00:00", "/b", "404", tails[1]),
            ("h", "12:00:01", "/a", "200", tails[2]),
            ("g", "12:00:01", "/b?y", "200", tails[0]),
            ("h", "12:00:60", "/b", "200", tails[1]),
            ("h", "12:01:00", "/A/?z", "304", tails[2]),
        ]
    ]
    noon = utc_epoch(2014, 3, 10, 12, 0, 0)
    assert _views_of(lines, LogFormat.COMBINED).clients == {
        "h": ([noon, noon + 1, noon + 60], [0, 0, 0]),
        "g": ([noon + 1], [1]),
    }
    assert [r.referrer for r in parse_log(lines, LogFormat.COMBINED).records] == [
        "http://r/", None, None, "http://r/", None
    ]


def test_lines_of_one_stamp_share_one_epoch_object():
    """Consecutive lines with one stamp, of any client and around a dropped
    line, hold one ``int`` object, as the 1M log's peak memory needs."""
    lines = [
        _clf("h", "13:55:35", "/a HTTP/1.1"),
        _clf("h", "13:55:36", "/a HTTP/1.1"),
        _clf("g", "13:55:36", "/a?x HTTP/1.1"),
        _clf("h", "13:55:36", "/c.png HTTP/1.1"),
        _clf("h", "13:55:36", "/a HTTP/1.1", "404"),
        _clf("h", "13:55:36", "/a?y HTTP/1.1"),
    ]
    views = _views_of(lines)
    (_, first, last), (shared,) = views.clients["h"][0], views.clients["g"][0]
    assert first == utc_epoch(2014, 3, 10, 13, 55, 36)
    assert first is shared is last


def test_a_line_kept_by_the_checked_path_leaves_the_stamp_memo():
    """A line between two of one stamp that the pattern rejects (a leading
    space) but the checked parser keeps does not lend its epoch to the next."""
    lines = [
        _clf("h", "13:55:35", "/a HTTP/1.1"),
        _clf("h", "13:55:36", "/a HTTP/1.1"),
        " " + _clf("h", "13:55:40", "/a HTTP/1.1"),
        _clf("h", "13:55:36", "/a HTTP/1.1"),
    ]
    base = utc_epoch(2014, 3, 10, 13, 55, 0)
    assert _views_of(lines).clients["h"][0] == [base + 35, base + 36, base + 40, base + 36]


def test_clocks_in_digits_that_are_not_ascii_read_as_alone():
    """A clock in fullwidth digits or a second in Arabic-Indic ones, after
    ASCII lines of its date, misses the stamp tables, and its line is read
    as it is read alone."""
    lines = [
        f'h - - [10/Oct/2000:{clock} -0700] "GET /a HTTP/1.1" 200 17'
        for clock in ("13:55:36", "13:55:37", "１３:５６:３７", "13:57:٣٨", "13:57:٦٠")
    ]
    views = _views_of(lines)
    batch = parse_log(lines)
    alone = [parse_log([line]) for line in lines]
    assert batch.records == [r for one in alone for r in one.records]
    assert [r.timestamp for r in batch.records[2:]] == [971211397, 971211458]
    assert views.clients["h"][0][2:] == [971211397, 971211458]
    assert batch.malformed == [MalformedLine(5, "second must be in 0..59")]
    assert alone[4].malformed == [MalformedLine(1, "second must be in 0..59")]


@pytest.mark.parametrize("fmt", [LogFormat.CLF, LogFormat.COMBINED])
def test_statuses_and_sizes_in_digits_that_are_not_ascii_read_as_alone(fmt):
    """A status, byte count, day, year or zone in fullwidth or Arabic-Indic
    digits, which ``\\d`` matches and ``int`` reads, is no row of the block
    pattern, whose digits are ASCII: after ASCII lines of its stamp, its line
    takes the checked path and is read as it is read alone."""
    tail = ' "-" "UA"' if fmt is LogFormat.COMBINED else ""
    lines = [
        f'h - - [{day}/Oct/{year}:13:55:36 -{zone}] "GET /a HTTP/1.1" {status} {size}{tail}'
        for day, year, zone, status, size in [
            ("10", "2000", "0700", "200", "17"),
            ("10", "2000", "0700", "２００", "17"),
            ("10", "2000", "0700", "200", "١٧"),
            ("10", "2000", "0700", "٤٠٤", "-"),
            ("١٠", "2000", "0700", "304", "17"),
            ("10", "２０００", "0700", "304", "17"),
            ("10", "2000", "٠٧00", "304", "17"),
            ("10", "2000", "0700", "304", "17"),
        ]
    ]
    pattern = logs._COMBINED_LINES_RE if fmt is LogFormat.COMBINED else logs._CLF_LINES_RE
    ((_, rows),) = logs._blocks(io.StringIO("".join(f"{line}\n" for line in lines)), pattern)
    assert [bool(row[0]) for row in rows[: len(lines)]] == [True] + [False] * 6 + [True]
    views = _views_of(lines, fmt)
    batch = parse_log(lines, fmt)
    alone = [parse_log([line], fmt) for line in lines]
    assert batch.records == [r for one in alone for r in one.records]
    assert [r.status for r in batch.records] == [200, 200, 200, 404, 304, 304, 304, 304]
    assert {r.timestamp for r in batch.records} == {971211336}
    assert not batch.malformed
    assert views.clients["h"][0] == [971211336] * 7


def test_a_new_stamp_reads_its_second_and_zone():
    """The one stamp group of a row gives the memos its minute, second and
    zone: lines of one minute at two seconds and in two zones read as they
    read alone, a zone not yet vouched for takes the checked path, and
    consecutive lines of one stamp read from the memos share one epoch."""
    lines = [
        f'h - - [10/Mar/2014:13:55:{second} {zone}] "GET /a HTTP/1.1" 200 17'
        for second, zone in [
            ("36", "+0000"),  # checked: the memos learn the date and the page
            ("36", "+0000"),
            ("36", "+0000"),
            ("37", "+0000"),
            ("37", "-0500"),  # checked: the date in this zone is new
            ("37", "-0500"),
            ("37", "+0000"),
            ("38", "-0500"),
        ]
    ]
    epoch = utc_epoch(2014, 3, 10, 13, 55, 36)
    records = parse_log(lines).records
    assert records == [r for line in lines for r in parse_log([line]).records]
    assert [r.timestamp - epoch for r in records] == [0, 0, 0, 1, 18001, 18001, 1, 18002]
    assert records[1].timestamp is records[2].timestamp
    epochs = _views_of(lines).clients["h"][0]
    assert epochs == [r.timestamp for r in records]
    assert epochs[1] is epochs[2]


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
