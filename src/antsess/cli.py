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
import json
import sys
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Iterable, NoReturn

from . import __version__
from .antclust import DEFAULT_CONFIG, AntClustConfig, run as antclust_run
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
from .similarity import DEFAULT_MEASURE, CatalogMismatch, MeasureKind, SimilarityMeasure
from .synth import InfeasibleModel, default_model, generate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INPUT = 3


class ConfigError(Exception):
    pass


class InputError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    """An argparse parser whose usage errors are one ``configuration error``
    line and exit 2, like every other configuration error; its subparsers
    inherit the class."""

    def error(self, message: str) -> NoReturn:
        self.exit(EXIT_CONFIG, f"configuration error: {message}\n")


@dataclass
class RunConfig:
    """Fully resolved pipeline configuration; echoed into JSON reports.

    The ``run``, ``cluster`` and ``sessionize`` parsers store each flag under
    the name of its field here and supply no defaults of their own.
    """

    inputs: list[str] = field(default_factory=list)
    from_sessions: str | None = None
    log_format: str = "clf"
    exclude_extensions: list[str] = field(default_factory=lambda: sorted(DEFAULT_EXCLUDED_EXTENSIONS))
    accept_statuses: str = "2xx,304"
    timeout: int = DEFAULT_TIMEOUT
    similarity: str = DEFAULT_MEASURE.kind.value
    blend_weights: tuple[float, float, float] = DEFAULT_MEASURE.blend_weights
    iter_multiplier: int = DEFAULT_CONFIG.iter_multiplier
    init_meetings: int = DEFAULT_CONFIG.init_meetings
    min_nest_fraction: float = DEFAULT_CONFIG.min_nest_fraction
    seed: int = DEFAULT_CONFIG.rng_seed
    repeats: int = 3
    report: str = "text"
    out: str | None = None
    dump_records: str | None = None
    dump_sessions: str | None = None
    dump_assignment: str | None = None
    omit_timings: bool = False


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


def _parse_extensions(spec: str) -> list[str]:
    return sorted(e if e.startswith(".") else f".{e}" for e in spec.lower().split(",") if e)


def _validate(cfg: RunConfig) -> None:
    """The rules no pipeline stage states itself; the clustering settings
    are checked by :func:`_clustering_setup`."""
    if cfg.timeout <= 0:
        raise ConfigError("timeout must be a positive number of seconds")
    if cfg.repeats < 1:
        raise ConfigError("repeats must be a positive integer")
    if cfg.seed < 0:
        raise ConfigError("seed must be a non-negative integer")
    if not cfg.inputs and not cfg.from_sessions:
        raise ConfigError("either --input or --from-sessions is required")
    if cfg.inputs and cfg.from_sessions:
        raise ConfigError("--input and --from-sessions are mutually exclusive")


def _clustering_setup(cfg: RunConfig) -> tuple[SimilarityMeasure, AntClustConfig]:
    try:
        measure = SimilarityMeasure(
            kind=MeasureKind(cfg.similarity), blend_weights=cfg.blend_weights
        )
        config = AntClustConfig(
            iter_multiplier=cfg.iter_multiplier,
            init_meetings=cfg.init_meetings,
            min_nest_fraction=cfg.min_nest_fraction,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return measure, config


def _write(path: str | None, text: str | Iterable[str]) -> None:
    """Write ``text``, or each string of an iterable of them, to ``path``
    (stdout when ``None``)."""
    chunks = [text] if isinstance(text, str) else text
    if path is None:
        sys.stdout.writelines(chunks)
    else:
        with open(path, "w", encoding="utf-8") as fp:
            fp.writelines(chunks)


def _load_sessions_stage(cfg: RunConfig) -> tuple[list, int, dict[str, float]]:
    """Run parse/filter/sessionize (or read a dump); returns sessions,
    transaction count and the stage timings.  Transactions are page
    views, the records the filter keeps, which a dump also carries."""
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

    policy = FilterPolicy(
        excluded_extensions=frozenset(cfg.exclude_extensions),
        accepted_statuses=_parse_statuses(cfg.accept_statuses),
    )
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
    pages = filter_page_requests(records, policy)
    catalog = build_catalog(pages)
    timings["parse"] = time.perf_counter() - started

    if cfg.dump_records:
        _write(cfg.dump_records, dump_records_jsonl(records))

    started = time.perf_counter()
    sessions = sessionize(pages, catalog, cfg.timeout)
    timings["sessionize"] = time.perf_counter() - started
    return sessions, len(pages), timings


def run_pipeline(cfg: RunConfig) -> int:
    _validate(cfg)
    measure, config = _clustering_setup(cfg)
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
                sessions, measure, replace(config, rng_seed=cfg.seed + repeat)
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
                _write(path, json.dumps(clustering.to_json_dict(), sort_keys=True) + "\n")
            else:
                _write(path, clustering.to_csv())

    fmt = ReportFormat(cfg.report)
    if fmt is ReportFormat.JSON:
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
        _write(cfg.out, json.dumps(payload, sort_keys=True, indent=2) + "\n")
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


def _settings(args: argparse.Namespace) -> dict:
    """The flags given on the command line, keyed by destination."""
    return {k: v for k, v in vars(args).items() if k not in ("command", "func")}


# a sessions dump is already parsed, filtered and sessionized
_INGEST_ONLY_FLAGS = {
    "timeout": "--timeout",
    "log_format": "--format",
    "exclude_extensions": "--exclude-ext",
    "accept_statuses": "--accept-status",
    "dump_records": "--dump-records",
}


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    settings = _settings(args)
    if "from_sessions" in settings:
        for dest, flag in _INGEST_ONLY_FLAGS.items():
            if dest in settings:
                raise ConfigError(
                    f"{flag} does not apply to --from-sessions (already sessionized)"
                )
    if "blend_weights" in settings:
        settings["blend_weights"] = _parse_weights(settings["blend_weights"])
    return RunConfig(**settings)


def _cmd_run(args: argparse.Namespace) -> int:
    return run_pipeline(_config_from_args(args))


def _cmd_synth(args: argparse.Namespace) -> int:
    """The model flags are stored under :func:`default_model`'s parameter names."""
    model_args = _settings(args)
    transactions = model_args.pop("transactions")
    out, truth_path = model_args.pop("out", None), model_args.pop("truth", None)
    try:
        text, truth = generate(default_model(**model_args), transactions)
    except (ValueError, InfeasibleModel) as exc:
        raise ConfigError(str(exc)) from exc
    _write(out, text)
    if truth_path:
        _write(truth_path, truth.to_json())
    return EXIT_OK


def _cmd_sessionize(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    _validate(cfg)
    sessions, _, _ = _load_sessions_stage(cfg)
    _write(cfg.out, dump_sessions_jsonl(sessions))
    return EXIT_OK


def _add_ingest_flags(parser: argparse.ArgumentParser, input_required: bool) -> None:
    parser.add_argument("--input", dest="inputs", nargs="+", required=input_required,
                        metavar="PATH", help="access log file(s)")
    parser.add_argument("--format", dest="log_format", choices=[f.value for f in LogFormat])
    parser.add_argument("--exclude-ext", dest="exclude_extensions", type=_parse_extensions,
                        metavar="EXCLUDE_EXT",
                        help="comma-separated asset extensions to drop "
                             f"(default: {','.join(sorted(DEFAULT_EXCLUDED_EXTENSIONS))})")
    parser.add_argument("--accept-status", dest="accept_statuses", metavar="ACCEPT_STATUS",
                        help=f"accepted status codes (default: {RunConfig.accept_statuses})")
    parser.add_argument("--timeout", type=int,
                        help=f"session gap timeout in seconds (default {RunConfig.timeout})")
    parser.add_argument("--dump-records", metavar="PATH",
                        help="write parsed records as JSONL")


def _add_cluster_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--similarity", choices=[k.value for k in MeasureKind])
    parser.add_argument("--blend-weights", metavar="W_TX,W_TIME,W_HITS")
    parser.add_argument("--iter-multiplier", type=int)
    parser.add_argument("--init-meetings", type=int)
    parser.add_argument("--min-nest-fraction", type=float)
    parser.add_argument("--repeats", type=int,
                        help="clustering runs to average (seeds seed..seed+R-1)")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--report", choices=[f.value for f in ReportFormat])
    parser.add_argument("--out", metavar="PATH", help="report destination (default stdout)")
    parser.add_argument("--dump-assignment", metavar="PATH",
                        help="write the first run's assignment (.csv or .json)")
    parser.add_argument("--omit-timings", action="store_true",
                        help="report timing fields as zero so output is byte-reproducible")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="antsess",
                             description="Session clustering for web access logs")
    parser.add_argument("--version", action="version", version=f"antsess {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    # flags left out keep the defaults of RunConfig (run, sessionize, cluster)
    # and of synth.default_model (synth)
    no_defaults = {"argument_default": argparse.SUPPRESS}

    p_run = sub.add_parser("run", help="full pipeline: log file(s) to cluster report", **no_defaults)
    _add_ingest_flags(p_run, input_required=False)
    p_run.add_argument("--from-sessions", metavar="PATH",
                       help="skip parsing and read a sessions JSONL dump")
    p_run.add_argument("--dump-sessions", metavar="PATH",
                       help="write reconstructed sessions as JSONL")
    _add_cluster_flags(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_synth = sub.add_parser("synth", help="generate a synthetic access log", **no_defaults)
    p_synth.add_argument("--transactions", type=int, required=True)
    p_synth.add_argument("--profiles", type=int)
    p_synth.add_argument("--pages", dest="site_pages", type=int, metavar="PAGES")
    p_synth.add_argument("--pages-per-profile", type=int)
    p_synth.add_argument("--asset-ratio", type=float)
    p_synth.add_argument("--timeout", dest="session_timeout", type=int, metavar="TIMEOUT")
    p_synth.add_argument("--seed", type=int)
    p_synth.add_argument("--out", metavar="PATH", help="log destination (default stdout)")
    p_synth.add_argument("--truth", metavar="PATH", help="ground-truth JSON destination")
    p_synth.set_defaults(func=_cmd_synth)

    p_sess = sub.add_parser("sessionize", help="parse and sessionize, dump sessions", **no_defaults)
    _add_ingest_flags(p_sess, input_required=True)
    p_sess.add_argument("--out", metavar="PATH", help="sessions JSONL destination")
    p_sess.set_defaults(func=_cmd_sessionize)

    p_cluster = sub.add_parser("cluster", help="cluster a sessions JSONL dump", **no_defaults)
    p_cluster.add_argument("--from-sessions", metavar="PATH", required=True)
    _add_cluster_flags(p_cluster)
    p_cluster.set_defaults(func=_cmd_run)

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
