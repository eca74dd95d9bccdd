"""Acceptance suite: one test per release criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  Every tolerance is pinned here, not configurable.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from collections import Counter

import pytest

from antsess.antclust import (
    Ant,
    AntClustConfig,
    MeetingOutcome,
    NestRegistry,
    acceptance,
    learn_template,
    meet,
    run,
)
from antsess.cli import main
from antsess.logs import build_catalog, filter_page_requests, parse_log
from antsess.metrics import adjusted_rand_index, r_squared
from antsess.sessions import sessionize
from antsess.similarity import MeasureKind, SimilarityMeasure, similarity_matrix
from antsess.synth import default_model, generate, transactions_for_sessions

from conftest import assert_session_invariants, make_record, random_sessions, ring_sessions

REFERENCE_COLUMN = {
    5000: 129, 10000: 231, 20000: 396, 30000: 582, 40000: 761, 50000: 917,
}
SCALE_TARGETS = sorted(REFERENCE_COLUMN)


def _verdict(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {number:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {number} failed: {detail}"


def _sessionized_corpus(target: int, seed: int = 11):
    model = default_model(seed=seed)
    text, truth = generate(model, target)
    records = filter_page_requests(parse_log(text.splitlines()).records)
    sessions = sessionize(records, build_catalog(records), model.session_timeout)
    return sessions, truth


@pytest.fixture(scope="module")
def scaled_runs():
    """The six scaled corpora: sessionized once, clustered once."""
    rows = []
    for target in SCALE_TARGETS:
        sessions, _ = _sessionized_corpus(target)
        clustering = run(sessions, config=AntClustConfig(rng_seed=4))
        rows.append((target, len(sessions), clustering.cluster_count))
    return rows


def test_criterion_01_behavioural_rule_suite():
    always = lambda a, b: 0.9
    never = lambda a, b: 0.0
    failures = []

    def expect(condition, message):
        if not condition:
            failures.append(message)

    # new nest out of two unlabelled ants
    ants = [Ant(id=i, genome=i, template=0.5) for i in range(2)]
    registry = NestRegistry(ants)
    outcome = meet(ants[0], ants[1], registry, always)
    expect(outcome is MeetingOutcome.NEW_NEST, "R1 outcome")
    expect((ants[0].label, ants[1].label) == (1, 1), "R1 labels")
    expect(registry.sizes == {1: 2}, "R1 sizes")

    # rejected unlabelled pair: nothing happens
    ants = [Ant(id=i, genome=i, template=0.5) for i in range(2)]
    registry = NestRegistry(ants)
    outcome = meet(ants[0], ants[1], registry, never)
    expect(outcome is MeetingOutcome.NO_OP, "R1-reject outcome")
    expect((ants[0].label, ants[1].label) == (0, 0), "R1-reject labels")

    # unlabelled ant adopts the partner's label
    ants = [Ant(id=0, genome=0, template=0.5), Ant(id=1, genome=1, template=0.5, label=5)]
    registry = NestRegistry(ants)
    outcome = meet(ants[0], ants[1], registry, always)
    expect(outcome is MeetingOutcome.ADOPTED, "R2 outcome")
    expect((ants[0].label, ants[1].label) == (5, 5), "R2 labels")

    ants = [Ant(id=0, genome=0, template=0.5), Ant(id=1, genome=1, template=0.5, label=5)]
    registry = NestRegistry(ants)
    expect(meet(ants[0], ants[1], registry, never) is MeetingOutcome.NO_OP, "R2-reject")
    expect(ants[0].label == 0, "R2-reject labels")

    # smaller nest loses its member
    ants = [Ant(id=i, genome=i, template=0.5, label=3) for i in range(10)]
    ants += [Ant(id=10, genome=10, template=0.5, label=7),
             Ant(id=11, genome=11, template=0.5, label=7)]
    registry = NestRegistry(ants)
    outcome = meet(ants[0], ants[10], registry, always)
    expect(outcome is MeetingOutcome.DEFECTED, "R3 outcome")
    expect((ants[0].label, ants[10].label) == (3, 3), "R3 labels")
    expect(registry.sizes == {3: 11, 7: 1}, "R3 sizes")
    survey = Counter(a.label for a in ants)
    expect(dict(survey) == {3: 11, 7: 1}, "R3 recount")

    ants = [Ant(id=0, genome=0, template=0.5, label=1), Ant(id=1, genome=1, template=0.5, label=2)]
    registry = NestRegistry(ants)
    expect(meet(ants[0], ants[1], registry, never) is MeetingOutcome.NO_OP, "R3-reject")

    # nestmates: no rule fires
    ants = [Ant(id=0, genome=0, template=0.5, label=4), Ant(id=1, genome=1, template=0.5, label=4)]
    registry = NestRegistry(ants)
    expect(meet(ants[0], ants[1], registry, always) is MeetingOutcome.NO_OP, "same-label")
    expect(registry.sizes == {4: 2}, "same-label sizes")

    _verdict(1, "behavioural rule suite", not failures, "; ".join(failures) or "8 exact cases")


def test_criterion_02_template_oracle():
    sessions = random_sessions(50, seed=77)
    matrix = similarity_matrix(sessions, SimilarityMeasure())
    ants = [Ant(id=i, genome=i) for i in range(50)]
    worst = 0.0
    for ant in ants:
        others = [a for a in ants if a is not ant]
        learned = learn_template(ant, others, lambda a, b: matrix[a][b])
        row = [matrix[ant.id][j] for j in range(50) if j != ant.id]
        independent = (sum(row) / len(row) + max(row)) / 2
        worst = max(worst, abs(learned - independent))
    _verdict(2, "template oracle", worst <= 1e-12, f"max |delta| = {worst:.2e}")


def test_criterion_03_acceptance_symmetry():
    violations = 0

    # exhaustive at N=10 over a random similarity matrix
    rng = random.Random(5)
    n = 10
    matrix = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            matrix[i][j] = matrix[j][i] = rng.random()
    oracle = lambda a, b: matrix[a][b]
    ants = [Ant(id=i, genome=i) for i in range(n)]
    for ant in ants:
        learn_template(ant, [a for a in ants if a is not ant], oracle)
    for i in range(n):
        for j in range(i + 1, n):
            if acceptance(ants[i], ants[j], oracle) != acceptance(ants[j], ants[i], oracle):
                violations += 1

    # fuzzed at N=200 over real sessions with sampled template learning
    sessions = random_sessions(200, seed=31)
    matrix200 = similarity_matrix(sessions, SimilarityMeasure(kind=MeasureKind.JACCARD))
    oracle200 = lambda a, b: matrix200[a][b]
    ants200 = [Ant(id=i, genome=i) for i in range(200)]
    sample_rng = random.Random(8)
    for ant in ants200:
        partners = [ants200[p] for p in sample_rng.sample(range(200), 30) if p != ant.id]
        learn_template(ant, partners, oracle200)
    for i in range(200):
        for j in range(i + 1, 200):
            if acceptance(ants200[i], ants200[j], oracle200) != acceptance(
                ants200[j], ants200[i], oracle200
            ):
                violations += 1

    _verdict(3, "acceptance symmetry", violations == 0, f"{violations} violations in 19945 pairs")


def test_criterion_04_pipeline_determinism(tmp_path):
    log = tmp_path / "log.txt"
    assert main(["synth", "--transactions", "20000", "--seed", "19", "--out", str(log)]) == 0
    artifacts = []
    durations = []
    for tag in ("first", "second"):
        report = tmp_path / f"{tag}.json"
        assignment = tmp_path / f"{tag}.csv"
        started = time.perf_counter()
        code = main(
            [
                "run", "--input", str(log), "--seed", "19",
                "--report", "json", "--omit-timings",
                "--out", str(report), "--dump-assignment", str(assignment),
            ]
        )
        durations.append(time.perf_counter() - started)
        assert code == 0
        artifacts.append((report.read_bytes(), assignment.read_bytes()))
    identical = artifacts[0] == artifacts[1]
    in_budget = max(durations) < 60.0
    _verdict(
        4,
        "pipeline determinism",
        identical and in_budget,
        f"byte-identical={identical}, runs took {durations[0]:.1f}s / {durations[1]:.1f}s (< 60s)",
    )


def test_criterion_05_planted_cluster_recovery():
    target = transactions_for_sessions(200)
    sessions, truth = _sessionized_corpus(target, seed=23)
    assert len(sessions) == 200
    by_key = {tuple(k): i for i, k in enumerate(truth.session_keys)}
    planted = [
        truth.session_profiles[by_key[(s.client_id, s.start_time)]] for s in sessions
    ]
    jaccard = SimilarityMeasure(kind=MeasureKind.JACCARD)
    matrix = similarity_matrix(sessions, jaccard)
    outcomes = []
    for seed in range(10):
        clustering = run(sessions, jaccard, AntClustConfig(rng_seed=seed), sims=matrix)
        ari = adjusted_rand_index(clustering.labels, planted)
        outcomes.append((clustering.cluster_count, round(ari, 3)))
    good = sum(1 for k, ari in outcomes if 8 <= k <= 12 and ari >= 0.9)
    _verdict(
        5,
        "planted-cluster recovery",
        good >= 9,
        f"{good}/10 seeds recovered (cluster count, ARI): {outcomes}",
    )


def test_criterion_06_session_scaling_restatement(scaled_runs):
    targets = [row[0] for row in scaled_runs]
    counts = [row[1] for row in scaled_runs]
    fit = r_squared(targets, counts)
    deviations = {
        t: abs(c - REFERENCE_COLUMN[t]) / REFERENCE_COLUMN[t]
        for t, c in zip(targets, counts)
    }
    ok = fit >= 0.98 and all(d <= 0.15 for d in deviations.values())
    _verdict(
        6,
        "transaction/session linearity",
        ok,
        f"R^2={fit:.4f}, counts={counts}, worst column deviation={max(deviations.values()):.1%}",
    )


def test_criterion_07_cluster_stability_restatement(scaled_runs):
    session_counts = [row[1] for row in scaled_runs]
    cluster_counts = [row[2] for row in scaled_runs]
    spread = max(cluster_counts) - min(cluster_counts)
    growth = session_counts[-1] / session_counts[0]
    ok = spread <= 5 and growth >= 7.0
    _verdict(
        7,
        "cluster-count stability",
        ok,
        f"clusters={cluster_counts} (spread {spread} <= 5), session growth {growth:.2f}x >= 7x",
    )


def test_criterion_08_complexity_shape():
    gc.collect()
    gc.disable()  # keep collector pauses out of millisecond-scale timings
    try:
        # meeting phase: quadratic in the session count, matrix precomputed;
        # each round times every size, so a slow phase of the core hits all alike
        jaccard = SimilarityMeasure(kind=MeasureKind.JACCARD)
        colonies = {}
        for n in (250, 500, 1000):
            sessions = ring_sessions(n, seed=42)
            colonies[n] = (sessions, similarity_matrix(sessions, jaccard))
        simulate_seconds = {n: float("inf") for n in colonies}
        for _ in range(5):
            for n, (sessions, matrix) in colonies.items():
                result = run(sessions, jaccard, AntClustConfig(rng_seed=5), sims=matrix)
                simulate_seconds[n] = min(simulate_seconds[n], result.phase_seconds["simulate"])
        meeting_ratios = [
            simulate_seconds[500] / simulate_seconds[250],
            simulate_seconds[1000] / simulate_seconds[500],
        ]
        meeting_ok = all(2.0 <= ratio <= 8.0 for ratio in meeting_ratios)

        # preprocessing: linear in the transaction count.  Each round times
        # 10k, 50k and 10k again in process CPU time and divides the 50k time
        # by the mean of the 10k times around it, so a change of the host's
        # speed within a round cancels; the median drops the odd round.  (A
        # minimum per size can pair a slow 10k round with a fast 50k one.)
        model = default_model(seed=37)
        prepared = {}
        for target in (10000, 50000):
            text, _ = generate(model, target)
            records = filter_page_requests(parse_log(text.splitlines()).records)
            prepared[target] = (records, build_catalog(records))

        def cpu_seconds(target: int) -> float:
            records, catalog = prepared[target]
            gc.collect()
            started = time.process_time()
            sessionize(records, catalog, model.session_timeout)
            return time.process_time() - started

        round_ratios = []
        for _ in range(9):
            before, large, after = (cpu_seconds(t) for t in (10000, 50000, 10000))
            round_ratios.append(large / ((before + after) / 2))
        linear_ratio = statistics.median(round_ratios)
        linear_ok = 5.0 / 1.5 <= linear_ratio <= 5.0 * 1.5
    finally:
        gc.enable()
    _verdict(
        8,
        "complexity shape",
        meeting_ok and linear_ok,
        f"meeting doubling ratios {[f'{r:.2f}' for r in meeting_ratios]} in [2, 8]; "
        f"sessionize 10k->50k ratio {linear_ratio:.2f} in [3.33, 7.5]",
    )


def test_criterion_09_session_invariants_fuzz():
    rng = random.Random(20240901)
    clients = ["a", "b", "c", "d"]
    resources = [f"/p{k}" for k in range(8)]
    violations = 0
    checked = 0
    for _ in range(10_000):
        rows = [
            make_record(
                client=rng.choice(clients),
                ts=rng.randrange(0, 40_000),
                resource=rng.choice(resources),
            )
            for _ in range(rng.randint(1, 24))
        ]
        timeout = rng.choice([60, 600, 1800, 3600])
        catalog = build_catalog(rows)
        sessions = sessionize(rows, catalog, timeout)
        for session in sessions:
            checked += 1
            try:
                assert_session_invariants(session)
                stamps = sorted(r.timestamp for r in rows if r.client_id == session.client_id)
                assert all(ts in stamps for ts in session.date_vector.values())
            except AssertionError:
                violations += 1
    _verdict(
        9,
        "session-model invariants",
        violations == 0,
        f"{violations} violations across {checked} sessions from 10000 streams",
    )


def test_criterion_10_stage_isolation(tmp_path):
    log = tmp_path / "log.txt"
    assert main(["synth", "--transactions", "2500", "--seed", "3", "--out", str(log)]) == 0
    mismatches = []
    for seed in range(1, 6):
        dump = tmp_path / f"sessions_{seed}.jsonl"
        direct = tmp_path / f"direct_{seed}.csv"
        code = main(
            [
                "run", "--input", str(log), "--seed", str(seed), "--repeats", "1",
                "--dump-sessions", str(dump), "--dump-assignment", str(direct),
                "--omit-timings", "--out", str(tmp_path / f"r1_{seed}.txt"),
            ]
        )
        assert code == 0
        resumed = tmp_path / f"resumed_{seed}.csv"
        code = main(
            [
                "run", "--from-sessions", str(dump), "--seed", str(seed), "--repeats", "1",
                "--dump-assignment", str(resumed),
                "--omit-timings", "--out", str(tmp_path / f"r2_{seed}.txt"),
            ]
        )
        assert code == 0
        if direct.read_bytes() != resumed.read_bytes():
            mismatches.append(seed)
    _verdict(
        10,
        "stage isolation",
        not mismatches,
        f"assignments byte-identical for seeds 1..5" if not mismatches else f"mismatch at {mismatches}",
    )
