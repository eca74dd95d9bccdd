from __future__ import annotations

import math
import random
from collections import Counter

import pytest

import antsess.similarity
from antsess.antclust import (
    Ant,
    AntClustConfig,
    EmptyInput,
    MeetingOutcome,
    NestRegistry,
    NoMeetings,
    acceptance,
    learn_template,
    meet,
    run,
    _prune_threshold,
)
from antsess.metrics import adjusted_rand_index
from antsess.sessions import Session
from antsess.similarity import (
    CatalogMismatch,
    MeasureKind,
    SimilarityMeasure,
    sharing_keys,
    sim,
    similarity_matrix,
)

from conftest import make_session, profile_sessions, random_sessions

ALWAYS = lambda a, b: 0.9
NEVER = lambda a, b: 0.0


def fresh_ants(n: int, template: float = 0.5, labels: dict[int, int] | None = None):
    ants = [Ant(id=i, genome=i, template=template) for i in range(n)]
    for ant_id, label in (labels or {}).items():
        ants[ant_id].label = label
    return ants, NestRegistry(ants)


class TestLearnTemplate:
    def test_constant_similarity_gives_that_value(self):
        ants, _ = fresh_ants(4)
        assert learn_template(ants[0], ants[1:], lambda a, b: 0.37) == 0.37

    def test_mean_plus_max_halved(self):
        observed = {(0, 1): 0.2, (0, 2): 0.4, (0, 3): 0.9}
        ants, _ = fresh_ants(4)
        value = learn_template(ants[0], ants[1:], lambda a, b: observed[(a, b)])
        assert value == pytest.approx(0.7, abs=1e-12)  # (0.5 + 0.9) / 2
        assert ants[0].template == value

    def test_no_meetings_rejected(self):
        ants, _ = fresh_ants(1)
        with pytest.raises(NoMeetings):
            learn_template(ants[0], [], ALWAYS)

    def test_full_population_matches_matrix_recomputation(self):
        sessions = random_sessions(12, seed=5)
        matrix = similarity_matrix(sessions, SimilarityMeasure(kind=MeasureKind.JACCARD))
        ants, _ = fresh_ants(12)
        for ant in ants:
            others = [a for a in ants if a is not ant]
            learned = learn_template(ant, others, lambda a, b: matrix[a][b])
            row = [matrix[ant.id][j] for j in range(12) if j != ant.id]
            independent = (sum(row) / len(row) + max(row)) / 2
            assert learned == pytest.approx(independent, abs=1e-12)


class TestAcceptance:
    def test_mutual_strict_inequality_holds(self):
        i = Ant(id=0, genome=0, template=0.5)
        j = Ant(id=1, genome=1, template=0.6)
        assert acceptance(i, j, ALWAYS) is True

    def test_equality_at_either_threshold_fails(self):
        i = Ant(id=0, genome=0, template=0.5)
        j = Ant(id=1, genome=1, template=0.1)
        assert acceptance(i, j, lambda a, b: 0.5) is False

    def test_symmetric_exhaustively(self):
        rng = random.Random(99)
        n = 10
        matrix = [[0.0] * n for _ in range(n)]
        for a in range(n):
            for b in range(a + 1, n):
                matrix[a][b] = matrix[b][a] = rng.random()
        ants, _ = fresh_ants(n)
        oracle = lambda a, b: matrix[a][b]
        for ant in ants:
            learn_template(ant, [a for a in ants if a is not ant], oracle)
        for a in range(n):
            for b in range(a + 1, n):
                assert acceptance(ants[a], ants[b], oracle) == acceptance(
                    ants[b], ants[a], oracle
                )


class TestMeetingRules:
    def test_new_nest_when_both_unlabelled_and_accepted(self):
        ants, registry = fresh_ants(2)
        outcome = meet(ants[0], ants[1], registry, ALWAYS)
        assert outcome is MeetingOutcome.NEW_NEST
        assert (ants[0].label, ants[1].label) == (1, 1)
        assert registry.sizes == {1: 2}

    def test_both_unlabelled_rejected_is_noop(self):
        ants, registry = fresh_ants(2)
        assert meet(ants[0], ants[1], registry, NEVER) is MeetingOutcome.NO_OP
        assert (ants[0].label, ants[1].label) == (0, 0)
        assert registry.sizes == {}

    def test_unlabelled_adopts_partner_label(self):
        ants, registry = fresh_ants(2, labels={1: 5})
        outcome = meet(ants[0], ants[1], registry, ALWAYS)
        assert outcome is MeetingOutcome.ADOPTED
        assert (ants[0].label, ants[1].label) == (5, 5)

    def test_adoption_works_from_either_side(self):
        ants, registry = fresh_ants(2, labels={0: 7})
        assert meet(ants[0], ants[1], registry, ALWAYS) is MeetingOutcome.ADOPTED
        assert (ants[0].label, ants[1].label) == (7, 7)

    def test_adoption_rejected_is_noop(self):
        ants, registry = fresh_ants(2, labels={1: 5})
        assert meet(ants[0], ants[1], registry, NEVER) is MeetingOutcome.NO_OP
        assert ants[0].label == 0

    def test_smaller_nest_defects(self):
        labels = {i: 3 for i in range(10)}
        labels.update({10: 7, 11: 7})
        ants, registry = fresh_ants(12, labels=labels)
        assert registry.sizes == {3: 10, 7: 2}
        outcome = meet(ants[0], ants[10], registry, ALWAYS)
        assert outcome is MeetingOutcome.DEFECTED
        assert (ants[0].label, ants[10].label) == (3, 3)
        assert registry.sizes == {3: 11, 7: 1}
        assert registry.pair_sizes(7, 3) == (1, 11)
        # recount oracle: survey the population from scratch
        assert Counter(a.label for a in ants) == {3: 11, 7: 1}

    def test_defection_rejected_is_noop(self):
        ants, registry = fresh_ants(4, labels={0: 1, 1: 1, 2: 2, 3: 2})
        assert meet(ants[0], ants[2], registry, NEVER) is MeetingOutcome.NO_OP
        assert registry.sizes == {1: 2, 2: 2}

    def test_nestmates_meeting_is_noop(self):
        ants, registry = fresh_ants(3, labels={0: 4, 1: 4})
        assert meet(ants[0], ants[1], registry, ALWAYS) is MeetingOutcome.NO_OP
        assert registry.sizes == {4: 2}

    def test_equal_sizes_higher_label_yields(self):
        ants, registry = fresh_ants(4, labels={0: 2, 1: 2, 2: 5, 3: 5})
        outcome = meet(ants[0], ants[2], registry, ALWAYS)
        assert outcome is MeetingOutcome.DEFECTED
        assert ants[2].label == 2
        assert registry.sizes == {2: 3, 5: 1}

    def test_meeting_self_rejected(self):
        ants, registry = fresh_ants(2)
        with pytest.raises(ValueError):
            meet(ants[0], ants[0], registry, ALWAYS)

    def test_genomes_never_change(self):
        ants, registry = fresh_ants(6, labels={2: 1, 3: 1, 4: 2})
        before = [a.genome for a in ants]
        for i, j in [(0, 1), (0, 2), (2, 4), (3, 4), (1, 5)]:
            meet(ants[i], ants[j], registry, ALWAYS)
        assert [a.genome for a in ants] == before

    def test_defection_never_shrinks_the_larger_nest(self):
        rng = random.Random(7)
        for _ in range(300):
            n = rng.randint(3, 16)
            labels = {i: rng.randint(0, 4) for i in range(n)}
            ants, registry = fresh_ants(n, labels=labels)
            i, j = rng.sample(range(n), 2)
            sizes_before = registry.sizes
            outcome = meet(ants[i], ants[j], registry, ALWAYS if rng.random() < 0.7 else NEVER)
            if outcome is MeetingOutcome.DEFECTED:
                winner = ants[i].label  # both ants share the surviving label now
                assert ants[j].label == winner
                assert registry.sizes[winner] > sizes_before[winner]
            # registry stays consistent with a from-scratch recount
            survey = Counter(a.label for a in ants)
            survey.pop(0, None)
            assert registry.sizes == dict(survey)


class TestRegistry:
    def test_fresh_labels_monotonic(self):
        _, registry = fresh_ants(2)
        assert registry.fresh_label() == 1
        assert registry.fresh_label() == 2

    def test_next_label_exceeds_preexisting(self):
        _, registry = fresh_ants(3, labels={0: 9})
        assert registry.fresh_label() == 10


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

    def test_precomputed_matrix_gives_same_answer(self):
        sessions = random_sessions(40, seed=12)
        measure = SimilarityMeasure(kind=MeasureKind.JACCARD)
        direct = run(sessions, measure, AntClustConfig(rng_seed=3))
        via_matrix = run(sessions, measure, AntClustConfig(rng_seed=3),
                         sims=similarity_matrix(sessions, measure))
        assert direct.labels == via_matrix.labels


def _reference_sim(a: Session, b: Session, measure: SimilarityMeasure) -> float:
    """Reference similarity: the measure formulas with nothing cached and
    no shortcut for page-disjoint pairs."""

    def cosine(x: dict, y: dict) -> float:
        dot = sum(v * y[k] for k, v in x.items() if k in y)
        nx = sum(v * v for v in x.values())
        ny = sum(v * v for v in y.values())
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


class TestSharingKeys:
    @pytest.mark.parametrize("measure", MEASURES, ids=lambda m: f"{m.kind.value}{m.blend_weights}")
    def test_disjoint_keys_imply_zero_similarity(self, measure):
        sessions = _with_pageless(_mixed_population(5), copies=2)
        keys = sharing_keys(sessions, measure)
        disjoint = 0
        for a in range(len(sessions)):
            for b in range(len(sessions)):
                if a != b and keys[a].isdisjoint(keys[b]):
                    disjoint += 1
                    assert sim(sessions[a], sessions[b], measure) == 0.0
        assert disjoint > len(sessions)

    def test_keys_are_the_cached_page_sets(self):
        sessions = _mixed_population(2)
        for measure in MEASURES:
            for session, key in zip(sessions, sharing_keys(sessions, measure)):
                if measure.kind is not MeasureKind.BLEND or session.vectors_within_pages:
                    assert key is session.visited_pages
                else:
                    assert key > session.visited_pages


class TestLazySimilarity:
    """The default path computes each pair with ``sim`` when a meeting
    reads it; the dense matrix stays the reference oracle."""

    @pytest.mark.parametrize("measure", MEASURES, ids=lambda m: f"{m.kind.value}{m.blend_weights}")
    def test_lazy_run_equals_matrix_run(self, measure):
        for seed in (1, 2, 3, 4):
            sessions = _mixed_population(seed)
            config = AntClustConfig(rng_seed=seed)
            lazy = run(sessions, measure, config)
            dense = run(sessions, measure, config, sims=similarity_matrix(sessions, measure))
            assert lazy.labels == dense.labels
            assert lazy.meeting_counts == dense.meeting_counts

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_pageless_object_at_several_indices(self, seed):
        # the page-less object is similar to itself at its other indices
        sessions = _with_pageless(random_sessions(10, seed=seed, pool=30), copies=4)
        config = AntClustConfig(rng_seed=seed)
        lazy = run(sessions, config=config)
        dense = run(sessions, config=config, sims=similarity_matrix(sessions))
        assert lazy.labels == dense.labels
        assert lazy.meeting_counts == dense.meeting_counts

    def test_only_pairs_that_share_a_page_are_computed(self, monkeypatch):
        reads = []

        def counting_sim(a, b, measure):
            reads.append((a.client_id, b.client_id))
            return sim(a, b, measure)

        monkeypatch.setattr(antsess.similarity, "sim", counting_sim)
        sessions, planted = profile_sessions(60, profiles=4, seed=9)
        profile = {s.client_id: p for s, p in zip(sessions, planted)}
        run(sessions, config=AntClustConfig(rng_seed=4))
        assert reads
        assert all(profile[a] == profile[b] for a, b in reads)

    def test_stray_blend_pair_matches_reference_formula(self):
        blend = SimilarityMeasure(kind=MeasureKind.BLEND)
        a = _stray_session([0, 1], {5: 30}, {5: 2}, "a", 16)
        b = make_session({5: 60, 6: 10}, client="b", catalog_size=16)
        assert a.visited_pages.isdisjoint(b.visited_pages)
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

    def test_mixed_catalogs_rejected_before_any_meeting(self, monkeypatch):
        reads = []

        def counting_sim(a, b, measure):
            reads.append((a.client_id, b.client_id))
            return sim(a, b, measure)

        monkeypatch.setattr(antsess.similarity, "sim", counting_sim)
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
