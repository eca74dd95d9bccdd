"""Run one antsess CLI command in-process with a span around every layer call.

Usage, from the repository root::

    python3 perfbench/trace_child.py TRACE.json RUN_ID -- <antsess arguments>

The public functions are wrapped under the names the program binds them to
(``antsess.cli.parse_log`` and so on), so nothing under ``src/`` changes.
Spans and counts are kept in memory and written to ``TRACE.json`` once the
command has returned.  ``perfbench/run.py --trace 1`` starts this script
and derives the per-layer metrics from the file.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import antsess.antclust  # noqa: E402
import antsess.cli  # noqa: E402
import antsess.similarity  # noqa: E402


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class _ReadRow:
    """One row of the similarity matrix that records which pairs are read."""

    __slots__ = ("i", "n", "row", "seen")

    def __init__(self, i: int, n: int, row: list, seen: set):
        self.i, self.n, self.row, self.seen = i, n, row, seen

    def __getitem__(self, j: int) -> float:
        i = self.i
        self.seen.add(i * self.n + j if i < j else j * self.n + i)
        return self.row[j]


class Tracer:
    """Spans as ``[name, start, end, parent_index, run_id]`` plus layer counts."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.rss_mb: dict[str, float] = {}
        self.clusterings: list[dict] = []
        self.read_sets: list[set] = []
        self.sim_tally = [0, 0]  # calls, nonzero results

    def span(self, name: str, fn, *args, **kwargs):
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.run_id])
        self.stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self.stack.pop()
            self.spans[index][2] = time.perf_counter()

    def wrap(self, module, attr: str, name: str, after=None) -> None:
        """Replace ``module.attr`` by a spanned call; ``after`` sees (and may
        replace) the result once the span has ended."""
        real = getattr(module, attr)

        def traced(*args, **kwargs):
            result = self.span(name, real, *args, **kwargs)
            return after(result) if after else result

        setattr(module, attr, traced)

    def add(self, key: str, value: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def install(self) -> None:
        cli, antclust, similarity = antsess.cli, antsess.antclust, antsess.similarity

        def parsed(result):
            self.add("logs.records", len(result.records))
            self.add("logs.malformed", len(result.malformed))
            return result

        def filtered(pages):
            self.add("logs.pages_kept", len(pages))
            return pages

        def catalogued(catalog):
            self.rss_mb["logs"] = _rss_mb()
            return catalog

        def sessions_made(sessions):
            self.add("sessions.sessions", len(sessions))
            self.add("sessions.singletons", sum(1 for s in sessions if len(s.history) == 1))
            return sessions

        def dumped(text):
            self.add("sessions.dump_bytes", len(text.encode("utf-8")))
            return text

        def matrix_built(matrix):
            self.rss_mb["similarity"] = _rss_mb()
            self.add("similarity.matrix_calls", 1)
            seen: set = set()
            self.read_sets.append(seen)
            n = len(matrix)
            return [_ReadRow(i, n, row, seen) for i, row in enumerate(matrix)]

        def clustered(assignment):
            self.clusterings.append(
                {
                    "phase_seconds": dict(assignment.phase_seconds),
                    "meeting_counts": dict(assignment.meeting_counts),
                    "clusters": assignment.cluster_count,
                }
            )
            return assignment

        self.wrap(cli, "parse_log", "logs.parse_log", parsed)
        self.wrap(cli, "filter_page_requests", "logs.filter_page_requests", filtered)
        self.wrap(cli, "build_catalog", "logs.build_catalog", catalogued)
        self.wrap(cli, "sessionize", "sessions.sessionize", sessions_made)
        self.wrap(cli, "dump_sessions_jsonl", "sessions.dump_sessions_jsonl", dumped)
        self.wrap(cli, "load_sessions_jsonl", "sessions.load_sessions_jsonl", sessions_made)
        self.wrap(cli, "antclust_run", "antclust.run", clustered)
        self.wrap(cli, "summarize", "report.summarize")
        self.wrap(cli, "emit_table", "report.emit_table")
        self.wrap(cli, "generate", "synth.generate")
        self.wrap(antclust, "similarity_matrix", "similarity.similarity_matrix", matrix_built)

        real_sim = similarity.sim
        tally = self.sim_tally

        def counted_sim(*args, **kwargs):
            value = real_sim(*args, **kwargs)
            tally[0] += 1
            if value:
                tally[1] += 1
            return value

        similarity.sim = counted_sim

    def result(self, exit_code: int) -> dict:
        counts = dict(self.counts)
        counts["similarity.pairs_computed"] = self.sim_tally[0]
        counts["similarity.pairs_nonzero"] = self.sim_tally[1]
        counts["similarity.pairs_read"] = sum(len(s) for s in self.read_sets)
        return {
            "exit_code": exit_code,
            "spans": self.spans,
            "counts": counts,
            "rss_mb": self.rss_mb,
            "clusterings": self.clusterings,
        }


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: trace_child.py TRACE.json RUN_ID -- <antsess arguments>", file=sys.stderr)
        return 2
    out, run_id, command = argv[0], argv[1], argv[3:]
    tracer = Tracer(run_id)
    tracer.install()
    exit_code = tracer.span("cli.main", antsess.cli.main, command)
    Path(out).write_text(json.dumps(tracer.result(exit_code)), encoding="utf-8")
    return exit_code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
