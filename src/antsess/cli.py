"""Command-line entry point wiring the whole pipeline.

Subcommands::

    antsess synth       generate a synthetic log (+ optional ground truth)
    antsess run         parse -> filter -> sessionize -> cluster -> report
    antsess sessionize  stop after sessions, dump the interchange JSONL
    antsess cluster     start from a sessions dump

Exit codes: 0 success, 2 configuration error, 3 input error.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from . import __version__
from .antclust import AntClustConfig, run as antclust_run
from .logs import (
    DEFAULT_EXCLUDED_EXTENSIONS,
    FilterPolicy,
    LogFormat,
    UnreadableSource,
    build_catalog,
    dump_records_jsonl,
    filter_page_requests,
    iter_lines,
    parse_log,
)
from .report import ReportFormat, emit_table, report_to_dict, summarize
from .sessions import (
    DEFAULT_TIMEOUT,
    MalformedDump,
    dump_sessions_jsonl,
    load_sessions_jsonl,
    sessionize,
)
from .similarity import CatalogMismatch, MeasureKind, SimilarityMeasure
from .synth import default_model, generate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INPUT = 3


class ConfigError(Exception):
    pass


class InputError(Exception):
    pass


@dataclass
class RunConfig:
    """Fully resolved pipeline configuration; echoed into JSON reports."""

    inputs: list[str] = field(default_factory=list)
    from_sessions: str | None = None
    log_format: str = "clf"
    exclude_extensions: list[str] = field(default_factory=lambda: sorted(DEFAULT_EXCLUDED_EXTENSIONS))
    accept_statuses: str = "2xx,304"
    timeout: int = DEFAULT_TIMEOUT
    similarity: str = "cosine"
    blend_weights: tuple[float, float, float] = (0.5, 0.25, 0.25)
    iter_multiplier: int = 75
    init_meetings: int = 30
    min_nest_fraction: float = 0.05
    seed: int = 1
    repeats: int = 3
    report: str = "text"
    out: str | None = None
    dump_records: str | None = None
    dump_sessions: str | None = None
    dump_assignment: str | None = None
    omit_timings: bool = False
    threads: int = 1


def _parse_statuses(spec: str) -> frozenset[int]:
    accepted: set[int] = set()
    for token in spec.split(","):
        token = token.strip().lower()
        if not token:
            continue
        if token.endswith("xx") and len(token) == 3 and token[0].isdigit():
            base = int(token[0]) * 100
            accepted.update(range(base, base + 100))
        elif token.isdigit():
            accepted.add(int(token))
        else:
            raise ConfigError(f"accept_statuses: cannot parse {token!r}")
    if not accepted:
        raise ConfigError("accept_statuses resolved to an empty set")
    return frozenset(accepted)


def _parse_weights(spec: str) -> tuple[float, float, float]:
    try:
        parts = tuple(float(p) for p in spec.split(","))
    except ValueError as exc:
        raise ConfigError(f"blend_weights: {exc}") from exc
    if len(parts) != 3:
        raise ConfigError("blend_weights needs exactly three comma-separated values")
    return parts  # range/sum validated by SimilarityMeasure


def _validate(cfg: RunConfig) -> None:
    if not 0.0 <= cfg.min_nest_fraction < 1.0:
        raise ConfigError(
            f"min_nest_fraction must lie in [0, 1), got {cfg.min_nest_fraction}"
        )
    if cfg.timeout <= 0:
        raise ConfigError("timeout must be a positive number of seconds")
    if cfg.iter_multiplier < 1:
        raise ConfigError("iter_multiplier must be a positive integer")
    if cfg.init_meetings < 1:
        raise ConfigError("init_meetings must be a positive integer")
    if cfg.repeats < 1:
        raise ConfigError("repeats must be a positive integer")
    if cfg.threads < 1:
        raise ConfigError("threads must be a positive integer")
    if cfg.seed < 0:
        raise ConfigError("seed must be a non-negative integer")
    if not cfg.inputs and not cfg.from_sessions:
        raise ConfigError("either --input or --from-sessions is required")
    if cfg.inputs and cfg.from_sessions:
        raise ConfigError("--input and --from-sessions are mutually exclusive")


def _measure(cfg: RunConfig) -> SimilarityMeasure:
    try:
        return SimilarityMeasure(
            kind=MeasureKind(cfg.similarity), blend_weights=cfg.blend_weights
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _load_sessions_stage(cfg: RunConfig) -> tuple[list, int, dict[str, float]]:
    """Run parse/filter/sessionize (or read a dump); returns sessions,
    transaction count and the stage timings."""
    timings = {"parse": 0.0, "sessionize": 0.0}
    if cfg.from_sessions:
        try:
            with open(cfg.from_sessions, "r", encoding="utf-8") as fp:
                sessions = load_sessions_jsonl(fp)
        except OSError as exc:
            raise InputError(f"sessionize stage: cannot read dump: {exc}") from exc
        except MalformedDump as exc:
            raise InputError(f"sessionize stage: bad sessions dump: {exc}") from exc
        transactions = sum(len(s.history) for s in sessions)
        return sessions, transactions, timings

    started = time.perf_counter()
    records = []
    malformed = 0
    for path in cfg.inputs:
        try:
            result = parse_log(iter_lines(path), LogFormat(cfg.log_format))
        except (OSError, UnreadableSource) as exc:
            raise InputError(f"parse stage: {exc}") from exc
        records.extend(result.records)
        malformed += len(result.malformed)
    if malformed:
        print(f"warning: skipped {malformed} malformed line(s)", file=sys.stderr)
    policy = FilterPolicy(
        excluded_extensions=frozenset(cfg.exclude_extensions),
        accepted_statuses=_parse_statuses(cfg.accept_statuses),
    )
    pages = filter_page_requests(records, policy)
    catalog = build_catalog(pages)
    timings["parse"] = time.perf_counter() - started

    if cfg.dump_records:
        _write(cfg.dump_records, dump_records_jsonl(records))

    started = time.perf_counter()
    sessions = sessionize(pages, catalog, cfg.timeout)
    timings["sessionize"] = time.perf_counter() - started
    return sessions, len(records), timings


def run_pipeline(cfg: RunConfig) -> int:
    _validate(cfg)
    measure = _measure(cfg)
    sessions, transactions, stage_timings = _load_sessions_stage(cfg)
    if cfg.dump_sessions:
        _write(cfg.dump_sessions, dump_sessions_jsonl(sessions))
    if not sessions:
        raise InputError("cluster stage: no sessions were produced")

    reports = []
    run_dicts = []
    for repeat in range(cfg.repeats):
        try:
            clustering = antclust_run(
                sessions,
                measure,
                AntClustConfig(
                    iter_multiplier=cfg.iter_multiplier,
                    init_meetings=cfg.init_meetings,
                    min_nest_fraction=cfg.min_nest_fraction,
                    rng_seed=cfg.seed + repeat,
                ),
            )
        except CatalogMismatch as exc:
            raise InputError(f"cluster stage: {exc}") from exc
        timings = dict(stage_timings)
        timings.update(clustering.phase_seconds)
        if cfg.omit_timings:
            timings = {k: 0.0 for k in timings}
        report = summarize(
            clustering.labels, transactions=transactions, wall_time_seconds=timings
        )
        reports.append(report)
        run_dicts.append(
            {
                "seed": cfg.seed + repeat,
                "report": report_to_dict(report),
                "meeting_counts": clustering.meeting_counts,
            }
        )
        if repeat == 0 and cfg.dump_assignment:
            path = cfg.dump_assignment
            if path.endswith(".json"):
                import json as _json

                _write(path, _json.dumps(clustering.to_json_dict(), sort_keys=True) + "\n")
            else:
                _write(path, clustering.to_csv())

    fmt = ReportFormat(cfg.report)
    if fmt is ReportFormat.JSON:
        import json as _json

        config_echo = asdict(cfg)
        for destination in ("out", "dump_records", "dump_sessions", "dump_assignment"):
            config_echo.pop(destination)
        payload = {
            "tool": "antsess",
            "version": __version__,
            "config": config_echo,
            "runs": run_dicts,
            "average": {
                "sessions": sum(r.sessions for r in reports) / len(reports),
                "clusters": sum(r.clusters for r in reports) / len(reports),
                "dominating_share": sum(r.dominating_share for r in reports) / len(reports),
            },
        }
        _write(cfg.out, _json.dumps(payload, sort_keys=True, indent=2) + "\n")
    else:
        text = emit_table(reports, fmt)
        if fmt is ReportFormat.TEXT and cfg.repeats > 1:
            text += (
                f"mean over {cfg.repeats} runs: "
                f"sessions={reports[0].sessions} "
                f"clusters={sum(r.clusters for r in reports) / len(reports):.1f}\n"
            )
        _write(cfg.out, text)
    return EXIT_OK


def _cmd_synth(args: argparse.Namespace) -> int:
    if args.transactions < 1:
        raise ConfigError("transactions must be a positive integer")
    try:
        model = default_model(
            profiles=args.profiles,
            pages_per_profile=args.pages_per_profile,
            site_pages=args.pages,
            seed=args.seed,
            asset_ratio=args.asset_ratio,
            session_timeout=args.timeout,
        )
    except Exception as exc:
        raise ConfigError(str(exc)) from exc
    text, truth = generate(model, args.transactions)
    _write(args.out, text)
    if args.truth:
        _write(args.truth, truth.to_json())
    return EXIT_OK


def _cmd_sessionize(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args, need_cluster_flags=False)
    _validate(cfg)
    sessions, _, _ = _load_sessions_stage(cfg)
    dumped = dump_sessions_jsonl(sessions)
    _write(args.out, dumped)
    if cfg.dump_sessions and cfg.dump_sessions != args.out:
        _write(cfg.dump_sessions, dumped)
    return EXIT_OK


def _config_from_args(args: argparse.Namespace, need_cluster_flags: bool = True) -> RunConfig:
    cfg = RunConfig(
        inputs=list(getattr(args, "input", []) or []),
        from_sessions=getattr(args, "from_sessions", None),
        log_format=getattr(args, "format", "clf"),
        timeout=getattr(args, "timeout", DEFAULT_TIMEOUT),
        seed=args.seed,
        omit_timings=getattr(args, "omit_timings", False),
        threads=getattr(args, "threads", 1),
    )
    if getattr(args, "exclude_ext", None):
        cfg.exclude_extensions = sorted(
            e if e.startswith(".") else f".{e}"
            for e in args.exclude_ext.lower().split(",")
            if e
        )
    if getattr(args, "accept_status", None):
        cfg.accept_statuses = args.accept_status
    if getattr(args, "dump_records", None):
        cfg.dump_records = args.dump_records
    if getattr(args, "dump_sessions", None):
        cfg.dump_sessions = args.dump_sessions
    if need_cluster_flags:
        cfg.similarity = args.similarity
        cfg.blend_weights = _parse_weights(args.blend_weights)
        cfg.iter_multiplier = args.iter_multiplier
        cfg.init_meetings = args.init_meetings
        cfg.min_nest_fraction = args.min_nest_fraction
        cfg.repeats = args.repeats
        cfg.report = args.report
        cfg.out = args.out
        cfg.dump_assignment = getattr(args, "dump_assignment", None)
    return cfg


def _add_ingest_flags(parser: argparse.ArgumentParser, input_required: bool) -> None:
    parser.add_argument("--input", nargs="+", default=[], required=input_required,
                        metavar="PATH", help="access log file(s)")
    parser.add_argument("--format", choices=[f.value for f in LogFormat], default="clf")
    parser.add_argument("--exclude-ext", dest="exclude_ext", default=None,
                        help="comma-separated asset extensions to drop "
                             f"(default: {','.join(sorted(DEFAULT_EXCLUDED_EXTENSIONS))})")
    parser.add_argument("--accept-status", dest="accept_status", default=None,
                        help="accepted status codes, e.g. '2xx,304' (the default)")
    parser.add_argument("--timeout", type=int, default=DEFAULT_TIMEOUT,
                        help="session gap timeout in seconds (default 1800)")
    parser.add_argument("--dump-records", metavar="PATH",
                        help="write parsed records as JSONL")


def _add_cluster_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--similarity", choices=[k.value for k in MeasureKind],
                        default="cosine")
    parser.add_argument("--blend-weights", default="0.5,0.25,0.25",
                        metavar="W_TX,W_TIME,W_HITS")
    parser.add_argument("--iter-multiplier", type=int, default=75)
    parser.add_argument("--init-meetings", type=int, default=30)
    parser.add_argument("--min-nest-fraction", type=float, default=0.05)
    parser.add_argument("--repeats", type=int, default=3,
                        help="clustering runs to average (seeds seed..seed+R-1)")
    parser.add_argument("--report", choices=[f.value for f in ReportFormat],
                        default="text")
    parser.add_argument("--out", metavar="PATH", help="report destination (default stdout)")
    parser.add_argument("--dump-assignment", metavar="PATH",
                        help="write the first run's assignment (.csv or .json)")
    parser.add_argument("--omit-timings", action="store_true",
                        help="report timing fields as zero so output is byte-reproducible")
    parser.add_argument("--threads", type=int, default=1,
                        help="parallelism cap; results are identical for any value")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="antsess",
                                     description="Session clustering for web access logs")
    parser.add_argument("--version", action="version", version=f"antsess {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="full pipeline: log file(s) to cluster report")
    _add_ingest_flags(p_run, input_required=False)
    p_run.add_argument("--from-sessions", metavar="PATH",
                       help="skip parsing and read a sessions JSONL dump")
    p_run.add_argument("--dump-sessions", metavar="PATH",
                       help="write reconstructed sessions as JSONL")
    _add_cluster_flags(p_run)
    p_run.add_argument("--seed", type=int, default=1)
    p_run.set_defaults(func=lambda a: run_pipeline(_config_from_args(a)))

    p_synth = sub.add_parser("synth", help="generate a synthetic access log")
    p_synth.add_argument("--transactions", type=int, required=True)
    p_synth.add_argument("--profiles", type=int, default=10)
    p_synth.add_argument("--pages", type=int, default=50)
    p_synth.add_argument("--pages-per-profile", type=int, default=5)
    p_synth.add_argument("--asset-ratio", type=float, default=0.0)
    p_synth.add_argument("--timeout", type=int, default=DEFAULT_TIMEOUT)
    p_synth.add_argument("--seed", type=int, default=1)
    p_synth.add_argument("--out", metavar="PATH", help="log destination (default stdout)")
    p_synth.add_argument("--truth", metavar="PATH", help="ground-truth JSON destination")
    p_synth.set_defaults(func=_cmd_synth)

    p_sess = sub.add_parser("sessionize", help="parse and sessionize, dump sessions")
    _add_ingest_flags(p_sess, input_required=True)
    p_sess.add_argument("--out", metavar="PATH", help="sessions JSONL destination")
    p_sess.add_argument("--dump-sessions", metavar="PATH", help=argparse.SUPPRESS)
    p_sess.add_argument("--seed", type=int, default=1)
    p_sess.set_defaults(func=_cmd_sessionize)

    p_cluster = sub.add_parser("cluster", help="cluster a sessions JSONL dump")
    p_cluster.add_argument("--from-sessions", metavar="PATH", required=True)
    _add_cluster_flags(p_cluster)
    p_cluster.add_argument("--seed", type=int, default=1)
    p_cluster.set_defaults(func=lambda a: run_pipeline(_config_from_args(a)))

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
