"""Run summaries: the transactions / sessions / clusters view of a run."""

from __future__ import annotations

from collections import Counter
from enum import Enum
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence

DOMINATING_TOP = 4


class ReportFormat(str, Enum):
    TEXT = "text"
    CSV = "csv"
    JSON = "json"


class ClusterReport(NamedTuple):
    transactions: int
    sessions: int
    clusters: int
    cluster_sizes: tuple[int, ...]
    dominating_share: float
    # a read-only default, so every instance may share it
    wall_time_seconds: Mapping[str, float] = MappingProxyType({})

    @property
    def total_seconds(self) -> float:
        return sum(self.wall_time_seconds.values())


def summarize(
    labels: Sequence[int],
    *,
    transactions: int,
    wall_time_seconds: Mapping[str, float] | None = None,
) -> ClusterReport:
    """Reduce a cluster assignment to its headline numbers."""
    if not labels:
        raise ValueError("cannot summarize an empty assignment")
    sizes = tuple(sorted(Counter(labels).values(), reverse=True))
    share = sum(sizes[:DOMINATING_TOP]) / len(labels)
    return ClusterReport(
        transactions=transactions,
        sessions=len(labels),
        clusters=len(sizes),
        cluster_sizes=sizes,
        dominating_share=share,
        wall_time_seconds=dict(wall_time_seconds or {}),
    )


_COLUMNS = ("transactions", "sessions", "clusters", "dominating_share", "total_seconds")
CSV_HEADER = ",".join(_COLUMNS)


def _row_values(report: ClusterReport) -> tuple[str, str, str, str, str]:
    return (
        str(report.transactions),
        str(report.sessions),
        str(report.clusters),
        f"{report.dominating_share:.4f}",
        f"{report.total_seconds:.3f}",
    )


def report_to_dict(report: ClusterReport) -> dict:
    """The report's fields as JSON types, plus ``total_seconds``."""
    fields = report._asdict()
    fields["cluster_sizes"] = list(report.cluster_sizes)
    fields["wall_time_seconds"] = dict(report.wall_time_seconds)
    fields["total_seconds"] = report.total_seconds
    return fields


def emit_table(
    reports: Iterable[ClusterReport], fmt: ReportFormat | str = ReportFormat.TEXT
) -> str:
    """Render reports as one text or CSV row each, ordered by transaction
    volume.  JSON reports carry the run configuration and are written by the
    CLI, so ``ReportFormat.JSON`` raises :class:`ValueError`, as does an
    unknown format."""
    fmt = ReportFormat(fmt)
    if fmt is ReportFormat.JSON:
        raise ValueError("emit_table renders text and CSV; JSON reports come from the CLI")
    ordered = sorted(reports, key=lambda r: r.transactions)
    if fmt is ReportFormat.CSV:
        rows = [CSV_HEADER]
        rows.extend(",".join(_row_values(r)) for r in ordered)
        return "\n".join(rows) + "\n"
    table = [_COLUMNS] + [_row_values(r) for r in ordered]
    widths = [max(len(row[c]) for row in table) for c in range(len(_COLUMNS))]
    lines = ["  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in table]
    return "\n".join(lines) + "\n"
