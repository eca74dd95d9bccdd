from __future__ import annotations

import math
import random
from collections import Counter
from collections.abc import Sequence

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import antsess.similarity
from antsess.antclust import (
    MAX_LABEL,
    MAX_SESSIONS,
    AntClustConfig,
    Colony,
    EmptyInput,
    MeetingOutcome,
    NoMeetings,
    TooManySessions,
    acceptance,
    learn_template,
    meet,
    run,
    _prune_threshold,
    _sample,
)
from antsess.metrics import adjusted_rand_index
from antsess.sessions import Session
from antsess.similarity import (
    CatalogMismatch,
    MeasureKind,
    SimilarityMeasure,
    SimilarityOracle,
    session_row,
    sim,
    similarity_matrix,
)

from conftest import (
    MatrixOracle,
    make_session,
    profile_sessions,
    random_sessions,
    reference_session_from_dict,
)

ALWAYS = lambda a, b: 0.9
NEVER = lambda a, b: 0.0


def fresh_colony(n: int, template: float = 0.5, labels: dict[int, int] | None = None):
    nests = [0] * n
    for i, label in (labels or {}).items():
        nests[i] = label
    return Colony(nests, [template] * n)


class TestLearnTemplate:
    def test_constant_similarity_gives_that_value(self):
        colony = fresh_colony(4)
        assert learn_template(colony, 0, [1, 2, 3], lambda a, b: 0.37) == 0.37

    def test_mean_plus_max_halved(self):
        observed = {(0, 1): 0.2, (0, 2): 0.4, (0, 3): 0.9}
        colony = fresh_colony(4)
        value = learn_template(colony, 0, [1, 2, 3], lambda a, b: observed[(a, b)])
        assert value == pytest.approx(0.7, abs=1e-12)  # (0.5 + 0.9) / 2
        assert colony.templates[0] == value

    def test_no_meetings_rejected(self):
        colony = fresh_colony(1)
        with pytest.raises(NoMeetings):
            learn_template(colony, 0, [], ALWAYS)

    def test_full_population_matches_matrix_recomputation(self):
        sessions = random_sessions(12, seed=5)
        matrix = similarity_matrix(sessions, SimilarityMeasure(kind=MeasureKind.JACCARD))
        colony = fresh_colony(12)
        for i in range(12):
            others = [j for j in range(12) if j != i]
            learned = learn_template(colony, i, others, lambda a, b: matrix[a][b])
            row = [matrix[i][j] for j in range(12) if j != i]
            independent = (sum(row) / len(row) + max(row)) / 2
            assert learned == pytest.approx(independent, abs=1e-12)


class TestAcceptance:
    def test_mutual_strict_inequality_holds(self):
        colony = Colony([0, 0], [0.5, 0.6])
        assert acceptance(colony, 0, 1, ALWAYS) is True

    def test_equality_at_either_threshold_fails(self):
        colony = Colony([0, 0], [0.5, 0.1])
        assert acceptance(colony, 0, 1, lambda a, b: 0.5) is False

    def test_symmetric_exhaustively(self):
        rng = random.Random(99)
        n = 10
        matrix = [[0.0] * n for _ in range(n)]
        for a in range(n):
            for b in range(a + 1, n):
                matrix[a][b] = matrix[b][a] = rng.random()
        colony = fresh_colony(n)
        oracle = lambda a, b: matrix[a][b]
        for i in range(n):
            learn_template(colony, i, [j for j in range(n) if j != i], oracle)
        for a in range(n):
            for b in range(a + 1, n):
                assert acceptance(colony, a, b, oracle) == acceptance(
                    colony, b, a, oracle
                )


class TestMeetingRules:
    def test_new_nest_when_both_unlabelled_and_accepted(self):
        colony = fresh_colony(2)
        outcome = meet(colony, 0, 1, ALWAYS)
        assert outcome is MeetingOutcome.NEW_NEST
        assert (colony.labels[0], colony.labels[1]) == (1, 1)
        assert colony.sizes == {1: 2}

    def test_both_unlabelled_rejected_is_noop(self):
        colony = fresh_colony(2)
        assert meet(colony, 0, 1, NEVER) is MeetingOutcome.NO_OP
        assert (colony.labels[0], colony.labels[1]) == (0, 0)
        assert colony.sizes == {}

    def test_unlabelled_adopts_partner_label(self):
        colony = fresh_colony(2, labels={1: 5})
        outcome = meet(colony, 0, 1, ALWAYS)
        assert outcome is MeetingOutcome.ADOPTED
        assert (colony.labels[0], colony.labels[1]) == (5, 5)

    def test_adoption_works_from_either_side(self):
        colony = fresh_colony(2, labels={0: 7})
        assert meet(colony, 0, 1, ALWAYS) is MeetingOutcome.ADOPTED
        assert (colony.labels[0], colony.labels[1]) == (7, 7)

    def test_adoption_rejected_is_noop(self):
        colony = fresh_colony(2, labels={1: 5})
        assert meet(colony, 0, 1, NEVER) is MeetingOutcome.NO_OP
        assert colony.labels[0] == 0

    def test_smaller_nest_defects(self):
        labels = {i: 3 for i in range(10)}
        labels.update({10: 7, 11: 7})
        colony = fresh_colony(12, labels=labels)
        assert colony.sizes == {3: 10, 7: 2}
        outcome = meet(colony, 0, 10, ALWAYS)
        assert outcome is MeetingOutcome.DEFECTED
        assert (colony.labels[0], colony.labels[10]) == (3, 3)
        assert colony.sizes == {3: 11, 7: 1}
        assert colony.pair_sizes(7, 3) == (1, 11)
        # recount oracle: survey the population from scratch
        assert Counter(colony.labels) == {3: 11, 7: 1}

    def test_defection_rejected_is_noop(self):
        colony = fresh_colony(4, labels={0: 1, 1: 1, 2: 2, 3: 2})
        assert meet(colony, 0, 2, NEVER) is MeetingOutcome.NO_OP
        assert colony.sizes == {1: 2, 2: 2}

    def test_nestmates_meeting_is_noop(self):
        colony = fresh_colony(3, labels={0: 4, 1: 4})
        assert meet(colony, 0, 1, ALWAYS) is MeetingOutcome.NO_OP
        assert colony.sizes == {4: 2}

    def test_equal_sizes_higher_label_yields(self):
        colony = fresh_colony(4, labels={0: 2, 1: 2, 2: 5, 3: 5})
        outcome = meet(colony, 0, 2, ALWAYS)
        assert outcome is MeetingOutcome.DEFECTED
        assert colony.labels[2] == 2
        assert colony.sizes == {2: 3, 5: 1}

    def test_meeting_self_rejected(self):
        colony = fresh_colony(2)
        with pytest.raises(ValueError):
            meet(colony, 0, 0, ALWAYS)

    def test_genomes_never_change(self):
        # an ant's genome is its index: meetings rewrite labels, nothing else
        colony = fresh_colony(6, labels={2: 1, 3: 1, 4: 2})
        before = list(colony.templates)
        for i, j in [(0, 1), (0, 2), (2, 4), (3, 4), (1, 5)]:
            meet(colony, i, j, ALWAYS)
        assert colony.templates == before and len(colony.labels) == 6

    def test_defection_never_shrinks_the_larger_nest(self):
        rng = random.Random(7)
        for _ in range(300):
            n = rng.randint(3, 16)
            labels = {i: rng.randint(0, 4) for i in range(n)}
            colony = fresh_colony(n, labels=labels)
            i, j = rng.sample(range(n), 2)
            sizes_before = colony.sizes
            outcome = meet(colony, i, j, ALWAYS if rng.random() < 0.7 else NEVER)
            if outcome is MeetingOutcome.DEFECTED:
                winner = colony.labels[i]  # both ants share the surviving label now
                assert colony.labels[j] == winner
                assert colony.sizes[winner] > sizes_before[winner]
            # the colony stays consistent with a from-scratch recount
            survey = Counter(colony.labels)
            survey.pop(0, None)
            assert colony.sizes == dict(survey)


class TestRegistry:
    def test_fresh_labels_monotonic(self):
        colony = fresh_colony(2)
        assert colony.fresh_label() == 1
        assert colony.fresh_label() == 2

    def test_next_label_exceeds_preexisting(self):
        colony = fresh_colony(3, labels={0: 9})
        assert colony.fresh_label() == 10


class TestColony:
    def test_sizes_and_pair_sizes_survey_the_labels(self):
        colony = Colony([0, 4, 2, 4, 0, 9, 4, 2], [0.5] * 8)
        assert colony.sizes == {4: 3, 2: 2, 9: 1}
        assert colony.pair_sizes(4, 2) == (3, 2)
        assert colony.pair_sizes(9, 4) == (1, 3)
        assert colony.pair_sizes(7, 0) == (0, 2)  # an unused label, and the unlabelled
        assert colony.next_label == 10


class TestLabelBound:
    """A label is one code point of the colony's label string."""

    @pytest.mark.parametrize("label", [-1, MAX_LABEL + 1, 2**64])
    def test_colony_rejects_a_label_outside_the_code_points(self, label):
        with pytest.raises(ValueError, match=r"\[0, 0x10ffff\]"):
            Colony([0, label], [0.5, 0.5])

    def test_the_top_code_point_is_the_last_fresh_label(self):
        colony = Colony([0, 0, MAX_LABEL - 1, 0, 0], [0.5] * 5)
        assert meet(colony, 0, 1, ALWAYS) is MeetingOutcome.NEW_NEST
        assert colony.labels == [MAX_LABEL, MAX_LABEL, MAX_LABEL - 1, 0, 0]
        with pytest.raises(ValueError, match=r"\[0, 0x10ffff\]"):
            meet(colony, 3, 4, ALWAYS)
        assert colony.labels == [MAX_LABEL, MAX_LABEL, MAX_LABEL - 1, 0, 0]

    def test_run_rejects_more_sessions_before_reading_one(self):
        # a new nest labels two unlabelled ants, so N ants found <= N // 2 nests
        assert MAX_SESSIONS // 2 == MAX_LABEL

        class Sessions(Sequence):  # a length without millions of sessions
            def __init__(self, n):
                self.n = n

            def __len__(self):
                return self.n

            def __getitem__(self, index):
                raise LookupError("a session was read")

        with pytest.raises(TooManySessions, match=f"exceed the {MAX_SESSIONS} "):
            run(Sessions(MAX_SESSIONS + 1))
        with pytest.raises(LookupError):  # past the bound check, onto the sessions
            run(Sessions(MAX_SESSIONS))


def _reference_meet(labels: list[int], next_label: int, i: int, j: int, accepted: bool):
    """The three rules over a plain list of labels; returns the outcome and
    the next fresh label, or raises ValueError when no fresh label is left."""
    li, lj = labels[i], labels[j]
    if not accepted or (li == lj and li):
        return MeetingOutcome.NO_OP, next_label
    if li == lj == 0:
        if next_label > MAX_LABEL:
            raise ValueError("no fresh label")
        labels[i] = labels[j] = next_label
        return MeetingOutcome.NEW_NEST, next_label + 1
    if li == 0 or lj == 0:
        labels[i] = labels[j] = li or lj
        return MeetingOutcome.ADOPTED, next_label
    size_i, size_j = labels.count(li), labels.count(lj)
    if size_i < size_j or (size_i == size_j and li > lj):
        labels[i] = lj
    else:
        labels[j] = li
    return MeetingOutcome.DEFECTED, next_label


class TestLabelString:
    @settings(max_examples=300, deadline=None)
    @given(
        initial=st.lists(
            st.one_of(st.integers(0, 4), st.sampled_from([255, 256, 0xD800, MAX_LABEL])),
            min_size=2, max_size=10,
        ),
        steps=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9), st.booleans()), max_size=30),
    )
    def test_meetings_match_a_list_model(self, initial, steps):
        n = len(initial)
        colony = Colony(initial, [0.5] * n)
        model, next_label = list(initial), max(initial) + 1
        for i, j, accepted in steps:
            i, j = i % n, j % n
            if i == j:
                continue
            try:
                expected, next_label = _reference_meet(model, next_label, i, j, accepted)
            except ValueError:
                with pytest.raises(ValueError, match="0x10ffff"):
                    meet(colony, i, j, ALWAYS)
            else:
                assert meet(colony, i, j, ALWAYS if accepted else NEVER) is expected
            assert colony.labels == model and colony.next_label == next_label
            counts = Counter(label for label in model if label)
            assert colony.sizes == counts
            for a in set(model):
                for b in set(model):
                    assert colony.pair_sizes(a, b) == (model.count(a), model.count(b))


class TestSample:
    # ``Random.sample`` keeps a shrinking pool while n <= 21 (k <= 5) or
    # n <= 277 (k = 30), and a set of picks above: both sides are covered.
    # (300, 60) and (1046, 100) are just past the set path's bound (277 and
    # 1045), and each of their samples draws 2 to 12 repeat picks
    @pytest.mark.parametrize(
        "n, k",
        [(n, k) for n in (1, 6, 21, 22, 30, 276, 277, 278, 916) for k in (1, 5, 6, 30) if k <= n]
        + [(300, 60), (1046, 100)],
    )
    def test_same_values_and_stream_as_random_sample(self, n, k):
        for seed in range(1, 6):
            ours, reference = random.Random(seed), random.Random(seed)
            assert _sample(ours.getrandbits, n, k) == reference.sample(range(n), k)
            assert ours.getstate() == reference.getstate()


class TestPruneThreshold:
    def test_float_edge(self):
        assert _prune_threshold(0.05, 200) == 10  # not 11 via float noise
        assert _prune_threshold(0.05, 201) == 11

    def test_floor_of_two(self):
        assert _prune_threshold(0.0, 1000) == 2
        assert _prune_threshold(0.05, 10) == 2


class TestRun:
    def test_single_session_single_cluster(self):
        sessions = [make_session([0, 1])]
        result = run(sessions, config=AntClustConfig(rng_seed=1))
        assert result.labels == [1]

    def test_two_identical_sessions_fall_back_to_one_cluster(self):
        # templates hit 1.0, strict acceptance can never fire, no nest forms
        a = make_session({0: 10, 1: 20}, client="a")
        b = make_session({0: 10, 1: 20}, client="b")
        result = run([a, b], config=AntClustConfig(rng_seed=1))
        assert result.labels == [1, 1]
        assert result.meeting_counts["no_op"] == 150

    def test_empty_input_rejected(self):
        with pytest.raises(EmptyInput):
            run([])

    def test_deterministic_for_fixed_seed(self):
        sessions = random_sessions(60, seed=8)
        first = run(sessions, config=AntClustConfig(rng_seed=42))
        second = run(sessions, config=AntClustConfig(rng_seed=42))
        assert first.labels == second.labels
        assert first.meeting_counts == second.meeting_counts

    def test_labels_dense_from_one_in_first_appearance_order(self):
        sessions, _ = profile_sessions(80, profiles=4, seed=3)
        result = run(sessions, SimilarityMeasure(kind=MeasureKind.JACCARD),
                     AntClustConfig(rng_seed=5))
        k = result.cluster_count
        assert set(result.labels) == set(range(1, k + 1))
        first_seen = {}
        for label in result.labels:
            first_seen.setdefault(label, len(first_seen) + 1)
        assert all(label == rank for label, rank in first_seen.items())

    def test_every_session_labelled(self):
        sessions = random_sessions(100, seed=2)
        result = run(sessions, config=AntClustConfig(rng_seed=7))
        assert len(result.labels) == 100
        assert all(label >= 1 for label in result.labels)

    def test_recovers_four_disjoint_profiles(self):
        sessions, planted = profile_sessions(200, profiles=4, seed=17)
        jaccard = SimilarityMeasure(kind=MeasureKind.JACCARD)
        good = 0
        for seed in range(10):
            result = run(sessions, jaccard, AntClustConfig(rng_seed=seed))
            ari = adjusted_rand_index(result.labels, planted)
            if result.cluster_count == 4 and ari >= 0.9:
                good += 1
        assert good >= 9

    def test_csv_and_json_emission(self):
        sessions, _ = profile_sessions(6, profiles=2, seed=1)
        result = run(sessions, SimilarityMeasure(kind=MeasureKind.JACCARD),
                     AntClustConfig(rng_seed=2))
        csv_text = result.to_csv()
        lines = csv_text.strip().splitlines()
        assert lines[0] == "session_index,cluster_label"
        assert len(lines) == 7
        payload = result.to_json_dict()
        assert payload["labels"] == result.labels
        assert payload["clusters"] == result.cluster_count

    # Expected values recorded from the randrange-based meeting loop: any drift
    # in how meetings draw their pair from the seeded stream changes them.  32
    # ants is a power of two, where ``randrange(n - 1)`` draws fewer bits than
    # ``randrange(n)``; N = 2 and N = 3 draw ``randrange(1)`` and ``randrange(2)``.
    @pytest.mark.parametrize(
        "seed, labels, counts",
        [
            (1, [1, 2, 3, 4, 5, 6, 7, 8, 1, 2, 1, 4, 5, 6, 1, 8,
                 1, 2, 1, 4, 5, 6, 7, 9, 1, 2, 3, 4, 5, 6, 7, 9], (9, 11, 0, 2380)),
            (2, [1, 2, 3, 4, 5, 6, 7, 8, 1, 2, 9, 4, 5, 6, 1, 8,
                 1, 2, 9, 4, 5, 6, 7, 10, 1, 2, 3, 4, 5, 6, 7, 10], (12, 7, 4, 2377)),
            (3, [1, 2, 3, 4, 5, 6, 7, 8, 1, 2, 9, 4, 5, 6, 1, 8,
                 1, 2, 9, 4, 5, 6, 7, 10, 1, 2, 3, 4, 5, 6, 7, 10], (10, 11, 0, 2379)),
        ],
    )
    def test_meeting_draws_follow_the_pinned_stream(self, seed, labels, counts):
        sessions, _ = profile_sessions(32, profiles=8, seed=11, pages_per_profile=3,
                                       min_visited=1)
        result = run(sessions, config=AntClustConfig(rng_seed=seed))
        assert result.labels == labels
        assert result.meeting_counts == dict(zip(["new_nest", "adopted", "defected", "no_op"], counts))

    @pytest.mark.parametrize(
        "n, counts", [(2, {"new_nest": 0, "adopted": 0, "defected": 0, "no_op": 150}),
                      (3, {"new_nest": 1, "adopted": 0, "defected": 0, "no_op": 224})]
    )
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_smallest_populations_draw_their_meetings(self, n, counts, seed):
        trio = [make_session([0, 1, 2], client="a"), make_session([0, 1, 2], client="b"),
                make_session([3], client="c")]
        result = run(trio[:n], config=AntClustConfig(rng_seed=seed))
        assert result.labels == [1] * n
        assert result.meeting_counts == counts

    # Few meetings and a high prune floor leave nests to dissolve: their ants
    # join the most similar nested ant, or the first one in index order when
    # every similarity is 0 (the profiles share no page).  Recorded values.
    @pytest.mark.parametrize(
        "seed, cycle", [(2, [1, 1, 2, 3]), (3, [1, 2, 1, 3])]
    )
    def test_dissolved_nests_are_reattached(self, seed, cycle):
        sessions, planted = profile_sessions(40, profiles=4, seed=seed)
        assert planted == [0, 1, 2, 3] * 10
        config = AntClustConfig(rng_seed=seed, iter_multiplier=4, min_nest_fraction=0.15)
        assert run(sessions, config=config).labels == cycle * 10

    def test_precomputed_matrix_gives_same_answer(self):
        sessions = random_sessions(40, seed=12)
        measure = SimilarityMeasure(kind=MeasureKind.JACCARD)
        direct = run(sessions, measure, AntClustConfig(rng_seed=3))
        via_matrix = run(sessions, measure, AntClustConfig(rng_seed=3),
                         oracle=MatrixOracle(sessions, measure))
        assert direct.labels == via_matrix.labels


def _reference_sim(a: Session, b: Session, measure: SimilarityMeasure) -> float:
    """Reference similarity: the measure formulas with nothing cached and
    no shortcut for page-disjoint pairs."""

    def cosine(x: dict, y: dict) -> float:
        nx = sum(v * v for v in x.values())
        ny = sum(v * v for v in y.values())
        # summed in the shorter vector's key order, x's on a tie: the order
        # sim documents, which a float sum depends on
        if len(y) < len(x):
            x, y = y, x
        dot = sum(v * y[k] for k, v in x.items() if k in y)
        if not nx or not ny or not dot:
            return 0.0
        return dot / math.sqrt(nx * ny)

    def jaccard(x: frozenset, y: frozenset) -> float:
        union = len(x | y)
        return len(x & y) / union if union else 0.0

    if a is b:
        return 1.0
    pages_a, pages_b = frozenset(a.transaction_vector), frozenset(b.transaction_vector)
    if not pages_a or not pages_b:
        return 0.0
    if measure.kind is MeasureKind.COSINE:
        value = cosine(a.transaction_vector, b.transaction_vector)
    elif measure.kind is MeasureKind.JACCARD:
        value = jaccard(pages_a, pages_b)
    else:
        w_tx, w_time, w_hits = measure.blend_weights
        value = (
            w_tx * jaccard(pages_a, pages_b)
            + w_time * cosine(a.time_vector, b.time_vector)
            + w_hits * cosine(a.hits_vector, b.hits_vector)
        )
    return min(1.0, max(0.0, value))


def _stray_session(pages, stray_time, stray_hits, client, catalog_size):
    """A hand-made dump entry whose time/hits vectors carry pages the
    transaction vector does not list."""
    base = make_session(pages, client=client, catalog_size=catalog_size)
    return Session(
        client_id=base.client_id,
        identity=None,
        start_time=base.start_time,
        history=base.history,
        transaction_vector=base.transaction_vector,
        time_vector={**base.time_vector, **stray_time},
        date_vector=base.date_vector,
        hits_vector={**base.hits_vector, **stray_hits},
        total_time=base.total_time,
        catalog_size=catalog_size,
    )


MEASURES = (
    SimilarityMeasure(kind=MeasureKind.COSINE),
    SimilarityMeasure(kind=MeasureKind.JACCARD),
    SimilarityMeasure(kind=MeasureKind.BLEND),
    SimilarityMeasure(kind=MeasureKind.BLEND, blend_weights=(0.2, 0.5, 0.3)),
)


def _mixed_population(seed: int) -> list[Session]:
    """Disjoint profiles (mostly zero pairs), overlapping randoms and
    sessions with stray vector keys, all over one 40-page catalog."""
    sessions, _ = profile_sessions(30, profiles=4, seed=seed, pages_per_profile=10)
    sessions += random_sessions(20, seed=seed, pool=40)
    sessions += [
        _stray_session([0, 1], {30: 40}, {30: 2}, "s0", 40),
        _stray_session([35], {2: 10, 30: 5}, {2: 1}, "s1", 40),
        _stray_session([20, 21], {11: 7}, {12: 3}, "s2", 40),
    ]
    random.Random(seed).shuffle(sessions)
    return sessions


def _with_pageless(sessions: list[Session], copies: int) -> list[Session]:
    """``sessions`` plus one page-less session object at ``copies`` indices
    spread over the list, and one more page-less session of its own."""
    catalog_size = sessions[0].catalog_size
    lone = make_session([], client="lone", catalog_size=catalog_size)
    sessions = sessions + [make_session([], client="other", catalog_size=catalog_size)]
    for k in range(copies):
        sessions.insert(k * len(sessions) // copies, lone)
    return sessions


def _float_session(client: str, values: dict[int, float], order: Sequence[int]) -> Session:
    """A dump entry whose four vectors carry ``values`` in key order ``order``."""
    vector = {str(p): values[p] for p in order}
    return reference_session_from_dict({
        "client_id": client, "identity": None, "start_time": 0, "history": list(order),
        "transaction_vector": vector, "time_vector": vector, "date_vector": vector,
        "hits_vector": vector, "total_time": 0, "catalog_size": 8,
    })


@st.composite
def _float_population(draw) -> list[Session]:
    """Float-valued sessions over an 8-page catalog: page sets of two sizes
    only, so many pairs have equal-length vectors, each in its own key order."""
    sessions = []
    for i in range(draw(st.integers(2, 12))):
        pages = draw(st.lists(st.integers(0, 7), min_size=3, max_size=4, unique=True))
        values = {p: draw(st.floats(0.01, 100.0)) for p in pages}
        sessions.append(_float_session(f"u{i}", values, draw(st.permutations(pages))))
    return sessions


@st.composite
def _vector_population(draw) -> list[Session]:
    """1-8 sessions over a 12-page catalog, each with int, float or mixed
    (int, float and bool) values in shuffled key order; time and hits keys
    are the visited pages, or those plus stray pages, or all but the first.
    Some are page-less, and one object may sit at two indices."""
    ints = st.integers(-3, 2**40)
    kinds = [ints, ints, st.floats(0.01, 100.0), st.one_of(ints, st.floats(0.01, 100.0), st.booleans())]
    sessions = []
    for i in range(draw(st.integers(1, 8))):
        values = draw(st.sampled_from(kinds))
        pages = draw(st.lists(st.integers(0, 11), max_size=6, unique=True))
        stray = draw(st.lists(st.integers(0, 11), max_size=2, unique=True))

        def vector(keys: list[int]) -> dict:
            return {p: draw(values) for p in draw(st.permutations(keys))}

        def off_pages() -> dict:
            return vector(draw(st.sampled_from([pages] * 4 + [[*{*pages, *stray}], pages[1:]])))

        sessions.append(Session(
            client_id=f"u{i}", identity=None, start_time=0, history=tuple(pages),
            transaction_vector=vector(pages), time_vector=off_pages(), date_vector={},
            hits_vector=off_pages(), total_time=0, catalog_size=12,
        ))
    if draw(st.booleans()):
        sessions.insert(draw(st.integers(0, len(sessions))), draw(st.sampled_from(sessions)))
    return sessions


def _int_session(client: str, vector: dict[int, int]) -> Session:
    """A session whose transaction, time and hits vectors are ``vector``."""
    return Session(client, None, 0, tuple(vector), dict(vector), dict(vector), {}, dict(vector), 0, 12)


def _big_int_session(client: str) -> Session:
    """Integer vectors whose dot product with themselves is 2**80 + 2**28:
    a float sum that starts at page 0 gives 2**80, the exact sum does not."""
    return _int_session(client, {0: 2**40, 1: 2**13, 2: 2**13, 3: 2**13, 4: 2**13})


class TestSharingKeys:
    @pytest.mark.parametrize("measure", MEASURES, ids=lambda m: f"{m.kind.value}{m.blend_weights}")
    def test_disjoint_keys_imply_zero_similarity(self, measure):
        sessions = _with_pageless(_mixed_population(5), copies=2)
        keys = SimilarityOracle(sessions, measure).keys
        disjoint = 0
        for a in range(len(sessions)):
            for b in range(len(sessions)):
                if a != b and keys[a].isdisjoint(keys[b]):
                    disjoint += 1
                    assert sim(sessions[a], sessions[b], measure) == 0.0
        assert disjoint > len(sessions)

    def test_keys_are_the_rows_page_sets(self):
        sessions = _mixed_population(2)
        for measure in MEASURES:
            oracle = SimilarityOracle(sessions, measure)
            for (pages, *_, within), key in zip(oracle.rows, oracle.keys):
                if measure.kind is not MeasureKind.BLEND or within:
                    assert key is pages
                else:
                    assert key > pages


class TestLazySimilarity:
    """The default path scores each pair's rows, as ``sim`` does, when a
    meeting reads it; the dense matrix stays the reference oracle."""

    @pytest.mark.parametrize("measure", MEASURES, ids=lambda m: f"{m.kind.value}{m.blend_weights}")
    def test_lazy_run_equals_matrix_run(self, measure):
        for seed in (1, 2, 3, 4):
            sessions = _mixed_population(seed)
            config = AntClustConfig(rng_seed=seed)
            lazy = run(sessions, measure, config)
            dense = run(sessions, measure, config, oracle=MatrixOracle(sessions, measure))
            assert lazy.labels == dense.labels
            assert lazy.meeting_counts == dense.meeting_counts

    def test_float_sums_depend_on_which_session_comes_first(self):
        # why both oracles pass the lower index first
        a = _float_session("a", {0: 0.1, 1: 0.2, 2: 0.3}, [0, 1, 2])
        b = _float_session("b", {0: 0.3, 1: 0.7, 2: 0.9}, [2, 1, 0])
        assert sim(a, b) != sim(b, a)
        oracle = SimilarityOracle([a, b])
        assert oracle.pair(1, 0) == oracle.pair(0, 1) == sim(a, b)

    @settings(max_examples=60, deadline=None)
    @given(sessions=_float_population(), measure=st.sampled_from(MEASURES),
           seed=st.integers(0, 2**16))
    def test_oracles_agree_bit_for_bit_on_float_dumps(self, sessions, measure, seed):
        oracle = SimilarityOracle(sessions, measure)
        reference = MatrixOracle(sessions, measure)
        matrix = reference.matrix
        for a in range(len(sessions)):
            for b in range(len(sessions)):
                if a != b:
                    assert oracle.pair(a, b) == oracle.pair(b, a) == matrix[min(a, b)][max(a, b)]
        config = AntClustConfig(rng_seed=seed, init_meetings=5)
        lazy = run(sessions, measure, config)
        dense = run(sessions, measure, config, oracle=reference)
        assert lazy.labels == dense.labels
        assert lazy.meeting_counts == dense.meeting_counts

    @pytest.mark.parametrize("other", ["sessions", "measure"])
    def test_oracle_of_other_sessions_or_measure_rejected(self, other):
        sessions = random_sessions(6, seed=1)
        oracle = SimilarityOracle(sessions)
        kwargs = {"oracle": oracle}
        if other == "sessions":
            sessions = list(sessions)
        else:
            kwargs["measure"] = SimilarityMeasure(kind=MeasureKind.JACCARD)
        with pytest.raises(ValueError, match="oracle must be built"):
            run(sessions, **kwargs)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_pageless_object_at_several_indices(self, seed):
        # the page-less object is similar to itself at its other indices
        sessions = _with_pageless(random_sessions(10, seed=seed, pool=30), copies=4)
        config = AntClustConfig(rng_seed=seed)
        lazy = run(sessions, config=config)
        dense = run(sessions, config=config, oracle=MatrixOracle(sessions))
        assert lazy.labels == dense.labels
        assert lazy.meeting_counts == dense.meeting_counts

    def test_only_pairs_that_share_a_page_are_computed(self, monkeypatch):
        reads, real_score = [], antsess.similarity._score

        def counting_score(x, y, measure):
            reads.append((x, y))
            return real_score(x, y, measure)

        monkeypatch.setattr(antsess.similarity, "_score", counting_score)
        sessions, planted = profile_sessions(60, profiles=4, seed=9)
        oracle = SimilarityOracle(sessions)
        profile = {id(row): p for row, p in zip(oracle.rows, planted)}
        run(sessions, config=AntClustConfig(rng_seed=4), oracle=oracle)
        assert reads
        assert all(profile[id(x)] == profile[id(y)] for x, y in reads)

    @pytest.mark.parametrize(
        "measure", [MEASURES[0], SimilarityMeasure(MeasureKind.BLEND, (0.7, 0.2, 0.1))],
        ids=["cosine", "blend"],
    )
    def test_object_with_pages_at_several_indices(self, measure):
        # its vectors score just under 1.0 against an equal copy, but one
        # object is similar to itself at any index, as sim says
        twice = _int_session("twice", {0: 247891064, 1: 726760592})._replace(catalog_size=30)
        assert sim(twice, twice._replace(client_id="copy"), measure) < 1.0
        sessions = random_sessions(10, seed=2, pool=30)
        sessions[3:3] = [twice]
        sessions.append(twice)
        oracle = SimilarityOracle(sessions, measure)
        assert oracle.pair(11, 3) == oracle.pair(3, 11) == sim(twice, twice, measure) == 1.0
        config = AntClustConfig(rng_seed=2)
        lazy = run(sessions, measure, config, oracle=oracle)
        dense = run(sessions, measure, config, oracle=MatrixOracle(sessions, measure))
        assert lazy.labels == dense.labels
        assert lazy.meeting_counts == dense.meeting_counts

    def test_oracle_over_mixed_catalogs_rejected_when_built(self):
        sessions = random_sessions(6, seed=1, pool=30)
        sessions.append(make_session([0, 1], client="odd", catalog_size=31))
        with pytest.raises(CatalogMismatch, match="^catalog sizes differ: 30 vs 31$"):
            SimilarityOracle(sessions)

    def test_stray_blend_pair_matches_reference_formula(self):
        blend = SimilarityMeasure(kind=MeasureKind.BLEND)
        a = _stray_session([0, 1], {5: 30}, {5: 2}, "a", 16)
        b = make_session({5: 60, 6: 10}, client="b", catalog_size=16)
        assert session_row(a)[0].isdisjoint(session_row(b)[0])
        value = sim(a, b, blend)
        assert value > 0.0
        assert value == _reference_sim(a, b, blend)
        assert sim(b, a, blend) == value

    def test_every_pair_bit_identical_to_reference_formula(self):
        sessions = _mixed_population(7)
        for measure in MEASURES:
            for a in sessions:
                for b in sessions:
                    assert sim(a, b, measure) == _reference_sim(a, b, measure)

    @settings(max_examples=200, deadline=None)
    @given(sessions=_vector_population())
    @example(sessions=[_big_int_session("a"), _big_int_session("b")])
    # a norm of 0; dot products below 0, whose value is clamped to 0.0; and
    # equal vectors whose cosine rounds to 1.0000000000000002, clamped to 1.0
    @example(sessions=[_int_session("zero", {0: 0, 1: 0}), _int_session("b", {0: 1, 1: 2})])
    @example(sessions=[_int_session("a", {0: 1, 1: 2}), _int_session("negative", {0: -1, 1: -2})])
    @example(sessions=[_int_session(c, {0: 547772958, 1: 506456970}) for c in "ab"])
    def test_int_float_and_mixed_pairs_bit_identical_to_reference(self, sessions):
        for s in sessions:
            vectors = (s.transaction_vector, s.time_vector, s.hits_vector)
            *_, integer, _ = session_row(s)
            assert integer == (
                all(type(v) is int for vector in vectors for v in vector.values())
                and set(s.time_vector) == set(s.hits_vector) == set(s.transaction_vector)
            )
        # a blend of one cosine shows that cosine's last bit
        one_cosine = [SimilarityMeasure(MeasureKind.BLEND, w) for w in ((0, 1, 0), (0, 0, 1))]
        for measure in (*MEASURES, *one_cosine):
            for a in sessions:
                for b in sessions:
                    assert sim(a, b, measure) == _reference_sim(a, b, measure)

    def test_mixed_catalogs_rejected_before_any_meeting(self, monkeypatch):
        reads, real_score = [], antsess.similarity._score

        def counting_score(x, y, measure):
            reads.append((x, y))
            return real_score(x, y, measure)

        monkeypatch.setattr(antsess.similarity, "_score", counting_score)
        sessions = random_sessions(6, seed=1, pool=30)
        sessions.append(make_session([0, 1], client="odd", catalog_size=31))
        with pytest.raises(CatalogMismatch, match="30 vs 31"):
            run(sessions, config=AntClustConfig(iter_multiplier=1, init_meetings=1))
        assert reads == []


class TestConfigValidation:
    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            AntClustConfig(min_nest_fraction=1.5)

    def test_bad_multiplier(self):
        with pytest.raises(ValueError):
            AntClustConfig(iter_multiplier=0)

    def test_bad_init_meetings(self):
        with pytest.raises(ValueError):
            AntClustConfig(init_meetings=0)

    def test_negative_seed(self):
        # random.Random(-3) would replay seed 3
        with pytest.raises(ValueError, match="rng_seed must be a non-negative integer, got -3"):
            AntClustConfig(rng_seed=-3)
        assert AntClustConfig(rng_seed=0).rng_seed == 0

    # a float count used to pass and fail in ``run``; a bool is not an int
    @pytest.mark.parametrize(
        "name, value",
        [("iter_multiplier", 1.5), ("init_meetings", 2.5), ("rng_seed", True)],
    )
    def test_count_or_seed_that_is_not_an_int(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
            AntClustConfig(**{name: value})
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            AntClustConfig()._replace(**{name: value})
