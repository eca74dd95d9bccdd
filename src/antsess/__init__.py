"""antsess: access-log sessionization and ant-based session clustering."""

__version__ = "0.1.0"

from .antclust import (
    AntClustConfig,
    ClusterAssignment,
    Colony,
    MeetingOutcome,
    acceptance,
    learn_template,
    meet,
    run,
)
from .logs import (
    FilterPolicy,
    LogFormat,
    LogRecord,
    PageCatalog,
    build_catalog,
    filter_page_requests,
    parse_log,
)
from .metrics import adjusted_rand_index
from .report import ClusterReport, ReportFormat, emit_table, summarize
from .sessions import Session, estimate_times, sessionize
from .similarity import MeasureKind, SimilarityMeasure, SimilarityOracle, sim, similarity_matrix
from .synth import GroundTruth, TrafficModel, generate

__all__ = [
    "__version__",
    "AntClustConfig",
    "ClusterAssignment",
    "ClusterReport",
    "Colony",
    "FilterPolicy",
    "GroundTruth",
    "LogFormat",
    "LogRecord",
    "MeasureKind",
    "MeetingOutcome",
    "PageCatalog",
    "ReportFormat",
    "Session",
    "SimilarityMeasure",
    "SimilarityOracle",
    "TrafficModel",
    "acceptance",
    "adjusted_rand_index",
    "build_catalog",
    "emit_table",
    "estimate_times",
    "filter_page_requests",
    "generate",
    "learn_template",
    "meet",
    "parse_log",
    "run",
    "sessionize",
    "sim",
    "similarity_matrix",
    "summarize",
]
