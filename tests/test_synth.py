from __future__ import annotations

import hashlib
import io
import ipaddress
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from antsess.cli import main
from antsess.logs import filter_page_requests, format_clf_timestamp, parse_log
from antsess.similarity import MeasureKind, SimilarityMeasure, sim
from antsess.synth import (
    LAST_EPOCH,
    GroundTruth,
    InfeasibleModel,
    TrafficModel,
    generate,
    planned_sessions,
    transactions_for_sessions,
)

from conftest import reference_generate, sessionize_records

PLAN_TARGETS = {5000: 129, 10000: 231, 20000: 396, 30000: 582, 40000: 761, 50000: 917}

# sha256 of the synth log and --truth JSON; a change here is a change of the
# random stream, asset lines or byte counts, not just of the session plan
GOLDEN_SYNTH = {
    "default-5k": (
        ["--transactions", "5000", "--seed", "3"],
        "06d1d1743eabc9d9b3e641b013b66077184603fd07b5a20bba6a8a40441e7393",
        "76469424a8bd6bec4b5a003b503c39fa9d0f9bb4c52910124545775caf9588b1",
    ),
    "assets-3k": (
        ["--transactions", "3000", "--asset-ratio", "0.4", "--seed", "3"],
        "eabd0148b8e2efa2d946cdf84e4f9b5c4df1fc9911a8f09cd08d8d5da918ce64",
        "b9e3282fe20d04373928d113412bc9492931506c4d3bb1e19e1ac30ff6769762",
    ),
    "two-profiles-2k": (
        ["--transactions", "2000", "--profiles", "2", "--pages-per-profile", "25",
         "--seed", "3"],
        "07a5bae238e369b3ca64ebc19cf8377f4a705fdad6e9102c1e4c22596dd43521",
        "037140d2a5bac23f6be32f8f104d04af100d1f326ab85587ed92d375f24e4069",
    ),
    # randrange(1) still consumes a getrandbits(1) draw per page
    "one-page-profiles-2k": (
        ["--transactions", "2000", "--pages-per-profile", "1", "--seed", "3"],
        "01ad80f9151387c042e7a2b673b8d2d5d7ef69c599e4f5c764ac6758d99518c5",
        "4e254f14555c8c7515e3a6850d3d39cebe9f5dd9f96959899b4b62a685be1cf0",
    ),
    # the smallest timeout a model accepts, and a gap floor above 1,800 s
    "timeout-121-2k": (
        ["--transactions", "2000", "--timeout", "121", "--seed", "3"],
        "49f8d85d7b0b657702a742da90592d49077fc6e20bb85fd677b8758998d40060",
        "195f22cbb6ef1d1557d461d574c83fc2ce15c834608e7ba7df2bc2b6e3371fc3",
    ),
    "timeout-86400-2k": (
        ["--transactions", "2000", "--timeout", "86400", "--seed", "3"],
        "6793ac78bfeec9bf37f1c957da1218dddd1ce22bb882c387d73d23793becd8a8",
        "fec2517ce4aec38379a2e726c9cdb792fa28f4ccbd2d9d0e75b025fc458d1a2b",
    ),
    "hosts-past-256-20k": (
        ["--transactions", "20000", "--profiles", "300", "--pages", "1500",
         "--seed", "3"],
        "52d43dc586ac3efc0cfbc8a65c3741a1dcf0105765373c14d60e28f732eb2243",
        "c63d96646857f8d816a4a14c17b7151f9ca4e1e6c18e053c97b8acf76252b5ac",
    ),
    # the shape of the run_50k benchmark workload
    "default-50k": (
        ["--transactions", "50000", "--seed", "3"],
        "adf9682fcaebf0adbe4887fa9928a64b25e5050d25d769fd0ac331ca070277de",
        "9b22c33c0ed3f562679abe31b55e3c796ea0f67e481f7f3e773a79922bfd1eb3",
    ),
}


@pytest.mark.parametrize("shape", sorted(GOLDEN_SYNTH))
def test_synth_output_is_pinned(tmp_path, shape):
    flags, log_sha, truth_sha = GOLDEN_SYNTH[shape]
    log, truth = tmp_path / "log.txt", tmp_path / "truth.json"
    assert main(["synth", *flags, "--out", str(log), "--truth", str(truth)]) == 0
    assert hashlib.sha256(log.read_bytes()).hexdigest() == log_sha
    assert hashlib.sha256(truth.read_bytes()).hexdigest() == truth_sha


# generate() draws through Random._randbelow, where randrange(n),
# randrange(a, a + n) and randint(a, a + n - 1) all end, or inline as
# getrandbits(n.bit_length()) redrawn while the value is n or more
@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**80),
    draws=st.lists(st.tuples(st.integers(-(10**6), 10**12), st.integers(1, 2**70)),
                   min_size=1, max_size=30),
)
@example(seed=3, draws=[(0, 1), (0, 20), (256, 9744), (2, 119), (1801, 9000),
                        (0, 30 * 86400), (128, 3969), (0, 6), (0, 180_000)])
def test_randbelow_draws_equal_randrange_and_randint(seed, draws):
    fast, inline, by_width, by_range, by_int = (random.Random(seed) for _ in range(5))
    below = fast._randbelow
    for low, width in draws:
        value = low + below(width)
        bits = width.bit_length()
        drawn = inline.getrandbits(bits)
        while drawn >= width:
            drawn = inline.getrandbits(bits)
        assert value == low + drawn
        assert value == low + by_width.randrange(width)
        assert value == by_range.randrange(low, low + width)
        assert value == by_int.randint(low, low + width - 1)
    states = {r.getstate() for r in (fast, inline, by_width, by_range, by_int)}
    assert len(states) == 1


# the column generator against the row-tuple reference of tests/conftest.py;
# a timeout too large for the calendar makes the reference overflow while
# rendering, and the generator refuse the model before any line exists
@settings(max_examples=60, deadline=None)
@given(
    profiles=st.integers(1, 300),
    pages_per_profile=st.integers(1, 4),
    asset_ratio=st.sampled_from([0.0, 0.1, 0.4, 0.75, 0.99]),
    seed=st.integers(0, 2**40),
    timeout=st.one_of(st.integers(121, 4000),
                      st.sampled_from([86400, 10**9, 10**10, 3 * 10**10, 10**12])),
    transactions=st.integers(1, 14000),
)
@example(profiles=300, pages_per_profile=2, asset_ratio=0.4, seed=3, timeout=1800,
         transactions=14000)
@example(profiles=1, pages_per_profile=1, asset_ratio=0.0, seed=0, timeout=10**12,
         transactions=1000)
@example(profiles=10, pages_per_profile=1, asset_ratio=0.99, seed=1, timeout=121,
         transactions=1)
def test_generate_matches_the_row_reference(
    profiles, pages_per_profile, asset_ratio, seed, timeout, transactions
):
    model = TrafficModel(profiles=profiles, pages_per_profile=pages_per_profile,
                         site_pages=profiles * pages_per_profile, seed=seed,
                         asset_ratio=asset_ratio, session_timeout=timeout)
    if transactions - round(transactions * asset_ratio) < 1:
        with pytest.raises(ValueError, match="no page transactions"):
            generate(model, transactions)
        return
    try:
        text, truth = reference_generate(model, transactions)
    except OverflowError:
        with pytest.raises(ValueError, match="past 31 Dec 9999"):
            generate(model, transactions)
        return
    lines, columns_truth = generate(model, transactions)
    assert "".join(lines).encode() == text.encode()
    assert columns_truth.to_json() == truth.to_json()


def test_last_epoch_is_the_last_second_a_stamp_can_name():
    assert format_clf_timestamp(LAST_EPOCH) == "31/Dec/9999:23:59:59 +0000"
    with pytest.raises(OverflowError):
        format_clf_timestamp(LAST_EPOCH + 1)


def test_timeout_past_the_calendar_is_exit_2_before_any_file(tmp_path, capsys):
    log = tmp_path / "log.txt"
    flags = ["synth", "--transactions", "1000", "--out", str(log)]
    assert main([*flags, "--timeout", "1000000000000"]) == 2
    err = capsys.readouterr().err
    assert err == ("configuration error: a timeout of 1000000000000 s over 1000 transactions"
                   " puts the last request past 31 Dec 9999\n")
    assert not log.exists()
    # a timeout of 10^10 s still fits a 1,000-line corpus on the calendar
    assert main([*flags, "--timeout", "10000000000"]) == 0
    assert len(log.read_text().splitlines()) == 1000


def test_300k_synth_peak_rss_stays_small(tmp_path):
    # VmHWM is the child's own high-water mark; ru_maxrss of a child started
    # by vfork and exec may include the parent's
    script = (
        "import os, sys\n"
        "from antsess.cli import main\n"
        "main(['synth', '--transactions', '300000', '--asset-ratio', '0.4',"
        " '--out', os.devnull])\n"
        "if os.path.exists('/proc/self/status'):\n"
        "    print(open('/proc/self/status').read())\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    peak = [line.split()[1] for line in done.stdout.splitlines() if line.startswith("VmHWM:")]
    if not peak:
        pytest.skip("no VmHWM in /proc/self/status")
    assert int(peak[0]) <= 120 * 1024  # kB


def test_line_count_is_exact():
    lines, truth = generate(TrafficModel(seed=1), 5000)
    text = "".join(lines)
    lines = text.splitlines()
    assert len(lines) == 5000  # spec tolerance is 4900..5100; we hit it exactly
    assert truth.transactions == 5000


def test_regeneration_is_byte_identical():
    model = TrafficModel(seed=123)
    first_lines, first_truth = generate(model, 3000)
    second_lines, second_truth = generate(model, 3000)
    assert list(first_lines) == list(second_lines)
    assert first_truth.to_json() == second_truth.to_json()


def test_different_seeds_differ():
    lines_a, _ = generate(TrafficModel(seed=1), 2000)
    lines_b, _ = generate(TrafficModel(seed=2), 2000)
    assert list(lines_a) != list(lines_b)


def test_every_line_parses_cleanly():
    lines, _ = generate(TrafficModel(seed=4), 4000)
    text = "".join(lines)
    result = parse_log(text.splitlines())
    assert len(result.records) == 4000
    assert result.malformed == []


def test_output_is_time_sorted():
    lines, _ = generate(TrafficModel(seed=6), 3000)
    text = "".join(lines)
    stamps = [r.timestamp for r in parse_log(text.splitlines()).records]
    assert stamps == sorted(stamps)


def test_planned_sessions_hit_reference_column():
    for target, expected in PLAN_TARGETS.items():
        assert planned_sessions(target) == expected


def test_planted_session_counts_track_reference_column():
    for target in (5000, 10000, 20000, 30000, 50000):
        _, truth = generate(TrafficModel(seed=8), target)
        expected = PLAN_TARGETS[target]
        assert abs(truth.session_count - expected) / expected <= 0.15


def test_transactions_for_sessions_inverts_plan():
    for count in (129, 200, 396, 500, 917):
        assert planned_sessions(transactions_for_sessions(count)) == count


def test_boundaries_recovered_and_profiles_disjoint():
    model = TrafficModel(seed=31)
    lines, truth = generate(model, transactions_for_sessions(150))
    text = "".join(lines)
    records = filter_page_requests(parse_log(text.splitlines()).records)
    sessions = sessionize_records(records, model.session_timeout)
    assert len(sessions) == truth.session_count == 150

    by_key = {tuple(k): i for i, k in enumerate(truth.session_keys)}
    profile_of = {
        i: truth.session_profiles[by_key[(s.client_id, s.start_time)]]
        for i, s in enumerate(sessions)
    }
    jaccard = SimilarityMeasure(kind=MeasureKind.JACCARD)
    for i in range(0, len(sessions) - 1, 7):
        for j in range(i + 1, min(i + 5, len(sessions))):
            value = sim(sessions[i], sessions[j], jaccard)
            if profile_of[i] != profile_of[j]:
                assert value == 0.0
            else:
                assert value > 0.0


def test_hosts_stay_ipv4_past_256_profiles():
    lines, truth = generate(TrafficModel(profiles=300, site_pages=1500), 20000)
    text = "".join(lines)
    hosts = {line.split(" ", 1)[0] for line in text.splitlines()}
    assert all(str(ipaddress.IPv4Address(host)) == host for host in hosts)
    # no host is shared by two profiles
    profile_of: dict[str, int] = {}
    for (host, _), profile in zip(truth.session_keys, truth.session_profiles):
        assert profile_of.setdefault(host, profile) == profile


def test_asset_injection_counts():
    lines, truth = generate(TrafficModel(seed=5, asset_ratio=0.4), 5000)
    text = "".join(lines)
    assert len(text.splitlines()) == 5000
    assert truth.record_kinds.count("page") == 3000
    assert truth.record_kinds.count("asset") == 2000


def test_ground_truth_roundtrip():
    _, truth = generate(TrafficModel(seed=2), 1000)
    assert GroundTruth.from_json(truth.to_json()).to_json() == truth.to_json()
    # the truth itself comes back, session keys as tuples, from text or a file
    assert GroundTruth.from_json(truth.to_json()) == truth
    assert GroundTruth.from_json(io.StringIO(truth.to_json())) == truth


class TestModelValidation:
    def test_too_many_disjoint_profiles(self):
        with pytest.raises(InfeasibleModel):
            TrafficModel(profiles=11, pages_per_profile=5, site_pages=50)

    def test_inter_gap_must_exceed_timeout(self):
        for timeout in (121, 600, 1800, 1801, 3600, 86400):
            low, high = TrafficModel(session_timeout=timeout).inter_session_gap
            assert timeout < low < high
        assert TrafficModel().inter_session_gap == (1801, 10800)

    def test_dwell_must_stay_below_timeout(self):
        with pytest.raises(ValueError):
            TrafficModel(session_timeout=120)
        TrafficModel(session_timeout=121)

    def test_negative_seed_rejected(self):
        # random.Random seeds with abs(), so -3 would replay seed 3
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            TrafficModel(seed=-3)
        TrafficModel(seed=0)

    # a float count used to pass and fail in ``generate``; a bool is not an int
    @pytest.mark.parametrize(
        "name, value",
        [
            ("profiles", 2.5),
            ("pages_per_profile", 5.0),
            ("site_pages", 50.0),
            ("seed", True),
            ("session_timeout", 1800.5),
        ],
    )
    def test_count_or_seed_that_is_not_an_int(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
            TrafficModel(**{name: value})
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            TrafficModel()._replace(**{name: value})

    def test_asset_ratio_bounds(self):
        with pytest.raises(ValueError):
            TrafficModel(asset_ratio=1.0)
        with pytest.raises(ValueError):
            TrafficModel(asset_ratio=-0.1)

    def test_profile_pages_must_fit_site(self):
        with pytest.raises(InfeasibleModel, match="2 profiles x 5 pages on a 3-page site"):
            TrafficModel(profiles=2, pages_per_profile=5, site_pages=3)
        TrafficModel(profiles=2, pages_per_profile=5, site_pages=10)

    def test_profiles_bounded_by_host_addresses(self):
        TrafficModel(profiles=65_536, site_pages=65_536 * 5)
        with pytest.raises(ValueError, match="at most 65536 profiles"):
            TrafficModel(profiles=65_537, site_pages=65_537 * 5)

    def test_rejection_builds_nothing_proportional_to_profiles(self):
        tracemalloc.start()
        try:
            with pytest.raises(InfeasibleModel):
                TrafficModel(profiles=200_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
