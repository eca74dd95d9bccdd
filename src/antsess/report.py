"""Run summaries: the transactions / sessions / clusters view of a run."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping, Sequence

DOMINATING_TOP = 4


class ReportFormat(str, Enum):
    TEXT = "text"
    CSV = "csv"
    JSON = "json"


@dataclass(frozen=True)
class ClusterReport:
    transactions: int
    sessions: int
    clusters: int
    cluster_sizes: tuple[int, ...]
    dominating_share: float
    wall_time_seconds: dict[str, float] = field(default_factory=dict)

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


CSV_HEADER = "transactions,sessions,clusters,dominating_share,total_seconds"
_COLUMNS = ("transactions", "sessions", "clusters", "dominating_share", "total_seconds")


def _row_values(report: ClusterReport) -> tuple[str, str, str, str, str]:
    return (
        str(report.transactions),
        str(report.sessions),
        str(report.clusters),
        f"{report.dominating_share:.4f}",
        f"{report.total_seconds:.3f}",
    )


def report_to_dict(report: ClusterReport) -> dict:
    return {
        "transactions": report.transactions,
        "sessions": report.sessions,
        "clusters": report.clusters,
        "cluster_sizes": list(report.cluster_sizes),
        "dominating_share": report.dominating_share,
        "wall_time_seconds": dict(report.wall_time_seconds),
        "total_seconds": report.total_seconds,
    }


def emit_table(
    reports: Iterable[ClusterReport], fmt: ReportFormat = ReportFormat.TEXT
) -> str:
    """Render reports as one text or CSV row each, ordered by transaction
    volume.  JSON reports carry the run configuration and are written by the
    CLI, so ``ReportFormat.JSON`` raises :class:`ValueError`."""
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
