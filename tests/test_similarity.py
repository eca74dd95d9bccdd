from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antsess.similarity import (
    CatalogMismatch,
    MeasureKind,
    SimilarityMeasure,
    sharing_keys,
    sim,
    similarity_matrix,
)

from conftest import make_session

COSINE = SimilarityMeasure(kind=MeasureKind.COSINE)
JACCARD = SimilarityMeasure(kind=MeasureKind.JACCARD)
BLEND = SimilarityMeasure(kind=MeasureKind.BLEND, blend_weights=(0.5, 0.3, 0.2))

ALL_MEASURES = (COSINE, JACCARD, BLEND)


class TestExamples:
    def test_identical_transaction_vectors(self):
        a = make_session({0: 10, 3: 20, 7: 5})
        b = make_session({0: 10, 3: 20, 7: 5}, client="other")
        assert sim(a, b, COSINE) == 1.0
        assert sim(a, b, JACCARD) == 1.0

    def test_disjoint_page_sets(self):
        a = make_session({0: 5, 1: 5})
        b = make_session({2: 5, 3: 5})
        for measure in ALL_MEASURES:
            assert sim(a, b, measure) == 0.0

    def test_one_shared_of_three(self):
        a = make_session([0, 1])
        b = make_session([1, 2])
        assert sim(a, b, JACCARD) == 1 / 3  # |{1}| / |{0,1,2}|
        assert sim(a, b, COSINE) == 1 / math.sqrt(4)  # 1 / (sqrt(2)*sqrt(2))

    def test_catalog_mismatch(self):
        a = make_session([0], catalog_size=10)
        b = make_session([0], catalog_size=11)
        with pytest.raises(CatalogMismatch):
            sim(a, b)

    def test_empty_session_conventions(self):
        empty = make_session([])
        other = make_session([0, 1])
        for measure in ALL_MEASURES:
            assert sim(empty, other, measure) == 0.0
            assert sim(other, empty, measure) == 0.0
            assert sim(empty, empty, measure) == 1.0  # itself, by identity


class TestMeasureValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            SimilarityMeasure(kind=MeasureKind.BLEND, blend_weights=(0.5, 0.5, 0.5))

    def test_weights_must_be_non_negative(self):
        with pytest.raises(ValueError):
            SimilarityMeasure(kind=MeasureKind.BLEND, blend_weights=(1.5, -0.5, 0.0))

    @pytest.mark.parametrize("kind", list(MeasureKind))
    def test_kind_named_by_its_value_is_the_member(self, kind):
        a = make_session({0: 10, 1: 20})
        b = make_session({1: 5, 2: 30, 3: 1}, client="other")
        # a dwell time on page 9, which b never visited: a stray blend key
        b = b._replace(time_vector={**b.time_vector, 9: 4})
        by_value, by_member = SimilarityMeasure(kind=kind.value), SimilarityMeasure(kind=kind)
        assert by_value.kind is kind
        assert sim(a, b, by_value) == sim(a, b, by_member)
        assert sharing_keys([a, b], by_value) == sharing_keys([a, b], by_member)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            SimilarityMeasure(kind="nope")


_page_sets = st.sets(st.integers(0, 15), min_size=1, max_size=10)


def _session_from_set(pages, client, rng_offset=1):
    return make_session(
        {p: (p + rng_offset) * 3 + 1 for p in pages},
        client=client,
        catalog_size=32,
        hits={p: (p % 3) + 1 for p in pages},
    )


@settings(max_examples=300)
@given(_page_sets, _page_sets, st.sampled_from(ALL_MEASURES))
def test_symmetry_range_reflexivity(pages_a, pages_b, measure):
    a = _session_from_set(pages_a, "a")
    b = _session_from_set(pages_b, "b", rng_offset=4)
    value = sim(a, b, measure)
    assert 0.0 <= value <= 1.0
    assert value == sim(b, a, measure)
    assert sim(a, a, measure) == 1.0


@settings(max_examples=200)
@given(_page_sets, _page_sets)
def test_jaccard_monotone_under_shared_page(pages_a, pages_b):
    new_page = 31  # outside the strategy's page range
    a, b = _session_from_set(pages_a, "a"), _session_from_set(pages_b, "b")
    grown_a = _session_from_set(set(pages_a) | {new_page}, "a")
    grown_b = _session_from_set(set(pages_b) | {new_page}, "b")
    assert sim(grown_a, grown_b, JACCARD) >= sim(a, b, JACCARD)


@settings(max_examples=200)
@given(_page_sets, _page_sets)
def test_blend_with_unit_tx_weight_equals_jaccard(pages_a, pages_b):
    pure_tx = SimilarityMeasure(kind=MeasureKind.BLEND, blend_weights=(1.0, 0.0, 0.0))
    a = _session_from_set(pages_a, "a")
    b = _session_from_set(pages_b, "b", rng_offset=9)
    assert sim(a, b, pure_tx) == sim(a, b, JACCARD)


def test_matrix_matches_pairwise_sim():
    sessions = [_session_from_set({i, i + 1, (i * 3) % 7}, f"u{i}") for i in range(12)]
    matrix = similarity_matrix(sessions, JACCARD)
    for i in range(12):
        assert matrix[i][i] == 1.0
        for j in range(12):
            assert matrix[i][j] == matrix[j][i]
            if i != j:
                assert matrix[i][j] == sim(sessions[i], sessions[j], JACCARD)
