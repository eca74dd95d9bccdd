#!/usr/bin/env python3
"""Scaling experiment: how session and cluster counts grow with log size.

Generates synthetic corpora at six transaction volumes, runs the full
pipeline on each, and emits the plot-ready CSV behind the two trend
figures (transactions vs sessions, sessions vs clusters).
"""

from __future__ import annotations

import argparse
import sys
import time
from statistics import linear_regression

from antsess.antclust import AntClustConfig, run
from antsess.logs import build_catalog, filter_page_requests, parse_log
from antsess.metrics import r_squared
from antsess.report import ReportFormat, emit_table, summarize
from antsess.sessions import sessionize
from antsess.synth import default_model, generate


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--targets", type=int, nargs="+",
                        default=[5000, 10000, 20000, 30000, 40000, 50000])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--out", help="CSV destination (default stdout)")
    args = parser.parse_args()

    reports = []
    session_counts = []
    for target in args.targets:
        started = time.perf_counter()
        model = default_model(seed=args.seed)
        text, _ = generate(model, target)
        records = filter_page_requests(parse_log(text.splitlines()).records)
        sessions = sessionize(records, build_catalog(records), model.session_timeout)
        clustering = run(sessions, config=AntClustConfig(rng_seed=args.seed))
        timings = {"pipeline": time.perf_counter() - started}
        timings.update(clustering.phase_seconds)
        reports.append(summarize(clustering.labels, transactions=target,
                                 wall_time_seconds=timings))
        session_counts.append(len(sessions))
        print(f"{target} transactions -> {len(sessions)} sessions, "
              f"{clustering.cluster_count} clusters", file=sys.stderr)

    csv_text = emit_table(reports, ReportFormat.CSV)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fp:
            fp.write(csv_text)
    else:
        sys.stdout.write(csv_text)

    slope, intercept = linear_regression(args.targets, session_counts)
    print(f"sessions ~= {slope:.5f} * transactions + {intercept:.1f} "
          f"(R^2 = {r_squared(args.targets, session_counts):.4f})", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
