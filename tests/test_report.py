from __future__ import annotations

import random

import pytest

from antsess.antclust import AntClustConfig, run
from antsess.logs import build_catalog, filter_page_requests, parse_log
from antsess.report import CSV_HEADER, ReportFormat, emit_table, summarize
from antsess.sessions import sessionize
from antsess.synth import default_model, generate


class TestSummarize:
    def test_two_clusters(self):
        report = summarize([1, 1, 2], transactions=30)
        assert report.sessions == 3
        assert report.clusters == 2
        assert report.cluster_sizes == (2, 1)
        assert report.dominating_share == 1.0

    def test_single_cluster(self):
        report = summarize([1] * 10, transactions=100)
        assert report.clusters == 1
        assert report.dominating_share == 1.0

    def test_share_counts_top_four(self):
        labels = [1] * 10 + [2] * 5 + [3] * 3 + [4] * 2 + [5] * 1 + [6] * 1
        report = summarize(labels, transactions=0)
        assert report.cluster_sizes == (10, 5, 3, 2, 1, 1)
        assert report.dominating_share == pytest.approx(20 / 22)

    def test_invariants(self):
        rng = random.Random(3)
        for _ in range(50):
            labels = [rng.randint(1, 8) for _ in range(rng.randint(1, 60))]
            report = summarize(labels, transactions=0)
            assert sum(report.cluster_sizes) == report.sessions
            assert all(a >= b for a, b in zip(report.cluster_sizes, report.cluster_sizes[1:]))
            top = min(4, report.clusters)
            assert report.dominating_share == pytest.approx(
                sum(report.cluster_sizes[:top]) / report.sessions
            )

    def test_order_independent(self):
        labels = [1, 2, 1, 3, 2, 1]
        shuffled = [2, 1, 3, 1, 1, 2]
        assert summarize(labels, transactions=5) == summarize(shuffled, transactions=5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([], transactions=0)


class TestEmitTable:
    def test_empty_csv_is_header_only(self):
        assert emit_table([], ReportFormat.CSV) == CSV_HEADER + "\n"

    def test_rows_sorted_by_transactions(self):
        big = summarize([1, 1], transactions=9000)
        small = summarize([1], transactions=100)
        text = emit_table([big, small], ReportFormat.CSV)
        lines = text.strip().splitlines()
        assert lines[0] == "transactions,sessions,clusters,dominating_share,total_seconds"
        assert lines[1].startswith("100,")
        assert lines[2].startswith("9000,")

    def test_text_is_column_aligned(self):
        reports = [
            summarize([1] * 3, transactions=5000, wall_time_seconds={"parse": 0.5}),
            summarize([1] * 40, transactions=50000),
        ]
        lines = emit_table(reports, ReportFormat.TEXT).splitlines()
        assert len(lines) == 3
        assert len({len(line) for line in lines}) == 1  # rectangular
        assert lines[0].split() == [
            "transactions", "sessions", "clusters", "dominating_share", "total_seconds",
        ]

    def test_json_is_not_a_table_format(self):
        report = summarize([1, 2, 2], transactions=77)
        with pytest.raises(ValueError):
            emit_table([report], ReportFormat.JSON)


def test_twenty_thousand_transaction_run_matches_reference_shape():
    model = default_model(seed=13)
    text, _ = generate(model, 20000)
    records = filter_page_requests(parse_log(text.splitlines()).records)
    sessions = sessionize(records, build_catalog(records), model.session_timeout)
    result = run(sessions, config=AntClustConfig(rng_seed=6))
    report = summarize(
        result.labels, transactions=20000, wall_time_seconds=result.phase_seconds
    )
    assert abs(report.sessions - 396) / 396 <= 0.15
    assert 8 <= report.clusters <= 14
    assert report.total_seconds > 0
