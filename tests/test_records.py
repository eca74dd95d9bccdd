"""What the record types promise callers: equality by value, read-only
fields, checks when a record is built, and a session's similarity row
derived afresh from its fields."""

from __future__ import annotations

import pytest

from antsess.antclust import AntClustConfig, ClusterAssignment
from antsess.cli import RunConfig
from antsess.logs import FilterPolicy, MalformedLine, PageViews, ParseResult
from antsess.report import ClusterReport
from antsess.sessions import Session
from antsess.similarity import MeasureKind, SimilarityMeasure, SimilarityOracle, session_row
from antsess.synth import GroundTruth, InfeasibleModel, TrafficModel

from conftest import make_record, make_session

# each builder makes a new record from new values on every call
BUILDERS = {
    "MalformedLine": lambda n=3: MalformedLine(n, "blank line"),
    "ParseResult": lambda n=3: ParseResult([make_record()], [MalformedLine(n, "blank line")]),
    "FilterPolicy": lambda n=3: FilterPolicy(frozenset({".css"}), frozenset({200, n})),
    "PageViews": lambda n=3: PageViews({"/a": 0}, {"c": ([n], [0])}),
    "ClusterReport": lambda n=3: ClusterReport(9, n, 2, (n - 1, 1), 1.0, {"init": 0.5}),
    "ClusterAssignment": lambda n=3: ClusterAssignment([1] * n, {"init": 0.5}, {"no_op": 4}),
    "GroundTruth": lambda n=3: GroundTruth(
        1, [0] * n, ["page"] * n, [0], [("10.0.0.1", 5)], ["/a"]
    ),
    "RunConfig": lambda n=3: RunConfig(inputs=["log.txt"], seed=n),
    "SimilarityMeasure": lambda n=3: SimilarityMeasure("blend", (0.5, 0.5 - n / 10, n / 10)),
    "AntClustConfig": lambda n=3: AntClustConfig(rng_seed=n),
    "TrafficModel": lambda n=3: TrafficModel(seed=n),
    "Session": lambda n=3: make_session({0: 10, n: 20}),
}

# the types whose fields could not be assigned before they became
# NamedTuples or a read-only class
FORMERLY_FROZEN = [
    "MalformedLine",
    "FilterPolicy",
    "ClusterReport",
    "SimilarityMeasure",
    "AntClustConfig",
    "TrafficModel",
    "Session",
]


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_equality_is_by_value(name):
    build = BUILDERS[name]
    first, second, other = build(), build(), build(4)
    assert first is not second
    assert first == second and not first != second
    assert first != other and not first == other


@pytest.mark.parametrize("name", FORMERLY_FROZEN)
def test_fields_cannot_be_assigned_or_deleted(name):
    record = BUILDERS[name]()
    for field in type(record)._fields:
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, before)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) is before


def test_session_is_read_only_and_its_row_holds_its_pages():
    session = make_session({0: 10, 1: 20})
    with pytest.raises(AttributeError):
        session.note = "new"
    oracle = SimilarityOracle([session])
    assert oracle.rows[0][0] == {0, 1}
    assert oracle.keys[0] is oracle.rows[0][0]
    with pytest.raises(AttributeError):
        session.visited_pages = frozenset()


def test_session_has_no_dict_and_refuses_a_new_attribute():
    session = make_session({0: 10, 1: 20})
    assert not hasattr(session, "__dict__")
    with pytest.raises(AttributeError, match="has no attribute 'note'"):
        session.note = "new"
    with pytest.raises(AttributeError):
        del session.note
    assert not hasattr(session, "note")


def test_session_is_unhashable_and_equality_ignores_its_row():
    session, twin = make_session({0: 10, 1: 20}), make_session({0: 10, 1: 20})
    with pytest.raises(TypeError):
        hash(session)
    with pytest.raises(TypeError):
        {session}
    SimilarityOracle([session])  # builds the row of one
    assert session == twin
    assert session != twin._replace(catalog_size=twin.catalog_size + 1)
    assert session != twin._replace(identity="alice")


def test_session_repr_lists_its_fields():
    session = make_session({2: 7}, client="u9", start=5, catalog_size=8)
    assert repr(session) == (
        "Session(client_id='u9', identity=None, start_time=5, history=(2,), "
        "transaction_vector={2: 1}, time_vector={2: 7}, date_vector={2: 5}, "
        "hits_vector={2: 1}, total_time=7, catalog_size=8)"
    )


def test_rebuilt_session_gets_a_row_of_its_own():
    session = make_session({0: 10, 1: 20}, hits={0: 2, 1: 1})
    pages, _, tx2, _, time2, _, hits2, integer, within = session_row(session)
    assert (pages, tx2) == ({0, 1}, 2)
    assert (time2, hits2) == (500, 5)
    assert within and integer
    changed = session._replace(
        transaction_vector={0: 1, 1: 1, 5: 3}, time_vector={0: 10, 1: 20, 5: 0.5}
    )
    assert type(changed) is Session
    pages, _, tx2, _, time2, _, hits2, integer, within = session_row(changed)
    assert pages == {0, 1, 5}
    assert (tx2, time2, hits2) == (11, 500.25, 5)
    assert within and not integer
    hits_only = session._replace(hits_vector={0: 3, 7: 1})
    pages, *_, hits2, _, within = session_row(hits_only)
    assert (pages, hits2) == ({0, 1}, 10)
    assert not within


def test_page_views_get_fresh_columns():
    first, second = PageViews(), PageViews()
    first.index["/a"] = 0
    first.clients["c"] = ([1], [0])
    assert second.index == {} and second.clients == {}


def test_similarity_measure_names_its_kind_by_the_member():
    assert SimilarityMeasure("jaccard").kind is MeasureKind.JACCARD
    assert SimilarityMeasure(kind="blend").kind is MeasureKind.BLEND
    assert SimilarityMeasure("cosine") == SimilarityMeasure()
    assert SimilarityMeasure()._replace(kind="jaccard").kind is MeasureKind.JACCARD


# (type, the fields that differ from its defaults, error, message)
REJECTED = [
    (SimilarityMeasure, {"kind": "nope"}, ValueError, "'nope' is not a valid MeasureKind"),
    (SimilarityMeasure, {"blend_weights": (0.5, 0.5)}, ValueError,
     "blend_weights must be three finite non-negative numbers"),
    (SimilarityMeasure, {"blend_weights": (1.5, -0.5, 0.0)}, ValueError,
     "blend_weights must be three finite non-negative numbers"),
    (SimilarityMeasure, {"blend_weights": (0.5, 0.5, 0.5)}, ValueError,
     "blend_weights must sum to 1, got 1.5"),
    (AntClustConfig, {"iter_multiplier": 0}, ValueError,
     "iter_multiplier must be a positive integer, got 0"),
    (AntClustConfig, {"init_meetings": 0}, ValueError,
     "init_meetings must be a positive integer, got 0"),
    (AntClustConfig, {"min_nest_fraction": 1.0}, ValueError,
     "min_nest_fraction must lie in [0, 1), got 1.0"),
    (AntClustConfig, {"rng_seed": -3}, ValueError,
     "rng_seed must be a non-negative integer, got -3"),
    (TrafficModel, {"profiles": 0}, ValueError, "a traffic model needs at least one profile"),
    (TrafficModel, {"seed": -3}, ValueError, "seed must be a non-negative integer"),
    (TrafficModel, {"asset_ratio": 1.0}, ValueError, "asset_ratio must lie in [0, 1)"),
    (TrafficModel, {"pages_per_profile": 0}, InfeasibleModel,
     "a profile with no pages cannot emit sessions"),
    (TrafficModel, {"profiles": 2, "site_pages": 3}, InfeasibleModel,
     "profile pages exceed the site page count: 2 profiles x 5 pages on a 3-page site"),
    (TrafficModel, {"profiles": 65_537, "site_pages": 65_537 * 5}, ValueError,
     "at most 65536 profiles have distinct host addresses, got 65537"),
    (TrafficModel, {"session_timeout": 120}, ValueError,
     "intra-session gaps must stay below the timeout"),
    # checks run in order: the first failing one names the fault
    (TrafficModel, {"profiles": 0, "seed": -1}, ValueError,
     "a traffic model needs at least one profile"),
    (AntClustConfig, {"init_meetings": 0, "rng_seed": -1}, ValueError,
     "init_meetings must be a positive integer, got 0"),
]


@pytest.mark.parametrize("how", ["keyword", "positional", "replace"])
@pytest.mark.parametrize(
    "cls, fields, error, message",
    REJECTED,
    ids=[f"{c.__name__}:" + ",".join(f"{k}={v}" for k, v in f.items()) for c, f, _, _ in REJECTED],
)
def test_validating_records_raise_the_same_message_however_built(how, cls, fields, error, message):
    positional = [fields.get(name, default) for name, default in cls._field_defaults.items()]
    build = {
        "keyword": lambda: cls(**fields),
        "positional": lambda: cls(*positional),
        "replace": lambda: cls()._replace(**fields),
    }[how]
    with pytest.raises(error) as raised:
        build()
    assert str(raised.value) == message
