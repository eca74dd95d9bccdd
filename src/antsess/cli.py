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
import gc
import json
import os
import stat
import sys
import time
from contextlib import contextmanager, nullcontext
from typing import Iterable, Iterator, NamedTuple, NoReturn, Sequence

from . import __version__
from .antclust import DEFAULT_CONFIG, AntClustConfig, TooManySessions, run as antclust_run
from .logs import (
    DEFAULT_EXCLUDED_EXTENSIONS,
    FilterPolicy,
    LogFormat,
    MalformedLine,
    PageViews,
    UnreadableSource,
    build_catalog,  # noqa: F401  perfbench/trace_child.py wraps these three names
    filter_page_requests,  # noqa: F401
    parse_log,  # noqa: F401
    read_log,
    record_json,
)
from .report import ReportFormat, emit_table, report_to_dict, summarize
from .sessions import (
    DEFAULT_TIMEOUT,
    MalformedDump,
    dump_sessions_jsonl,
    load_sessions_jsonl,
    sessionize,
)
from .similarity import (
    DEFAULT_MEASURE,
    CatalogMismatch,
    MeasureKind,
    SimilarityMeasure,
    SimilarityOracle,
)
from .synth import InfeasibleModel, TrafficModel, generate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INPUT = 3

# every flag that names a file to write, by argparse destination
DESTINATIONS = ("out", "truth", "dump_records", "dump_sessions", "dump_assignment")


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


class RunConfig(NamedTuple):
    """Fully resolved pipeline configuration; echoed into JSON reports.

    The ``run``, ``cluster`` and ``sessionize`` parsers store each flag under
    the name of its field here and supply no defaults of their own.
    """

    inputs: Sequence[str] = ()
    from_sessions: str | None = None
    log_format: str = "clf"
    exclude_extensions: Sequence[str] = tuple(sorted(DEFAULT_EXCLUDED_EXTENSIONS))
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
        # isdecimal, not isdigit: int() rejects digits such as "²"
        if token.endswith("xx") and len(token) == 3 and token[0].isdecimal():
            base = int(token[0]) * 100
            accepted.update(range(base, base + 100))
        elif token.isdecimal():
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
    tokens = (e.strip() for e in spec.lower().split(","))
    return sorted(e if e.startswith(".") else f".{e}" for e in tokens if e)


def _clustering_setup(cfg: RunConfig) -> tuple[SimilarityMeasure, AntClustConfig]:
    if cfg.repeats < 1:
        raise ConfigError("repeats must be a positive integer")
    try:
        measure = SimilarityMeasure(kind=cfg.similarity, blend_weights=cfg.blend_weights)
        config = AntClustConfig(
            iter_multiplier=cfg.iter_multiplier,
            init_meetings=cfg.init_meetings,
            min_nest_fraction=cfg.min_nest_fraction,
            rng_seed=cfg.seed,
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


def _file_key(path: str) -> object:
    """What names the file at ``path``: its device and inode, or its
    resolved path while it does not exist; ``None`` for a file that is not
    a regular one, such as ``/dev/null``, which any flags may share."""
    try:
        status = os.stat(path)
    except OSError:
        return os.path.realpath(path)
    return (status.st_dev, status.st_ino) if stat.S_ISREG(status.st_mode) else None


def _check_destinations(args: argparse.Namespace) -> None:
    """Reject an output path that cannot be written as a file: an empty
    one, a directory, one in a directory that does not exist, one the
    process may not write, or one that names the file of an input or of
    another output, which writing it would destroy.  Nothing is opened,
    so nothing is truncated."""
    owners = {_file_key(path): "--input" for path in getattr(args, "inputs", ())}
    if getattr(args, "from_sessions", None):
        owners[_file_key(args.from_sessions)] = "--from-sessions"
    for dest in DESTINATIONS:
        path = getattr(args, dest, None)
        if path is None:
            continue
        flag = "--" + dest.replace("_", "-")
        if not path:
            raise ConfigError(f"{flag}: empty path")
        if os.path.isdir(path):
            raise ConfigError(f"{flag}: {path} is a directory")
        parent = os.path.dirname(path) or "."
        if not os.path.isdir(parent):
            raise ConfigError(f"{flag}: {parent} is not a directory")
        if not os.access(path if os.path.exists(path) else parent, os.W_OK):
            raise ConfigError(f"{flag}: {path} is not writable")
        key = _file_key(path)
        if key is not None and key in owners:
            raise ConfigError(f"{flag}: {path} names the same file as {owners[key]}")
        owners[key] = flag


@contextmanager
def _gc_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector, restoring the caller's setting on
    exit.  A batch stage allocates hundreds of thousands of acyclic tuples
    that reference counting frees; passes of the collector over them find
    nothing to collect."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@_gc_paused()
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
        except UnicodeDecodeError as exc:
            raise InputError(f"sessionize stage: bad sessions dump: not UTF-8 ({exc})") from exc
        except MalformedDump as exc:
            raise InputError(f"sessionize stage: bad sessions dump: {exc}") from exc
        transactions = sum(len(s.history) for s in sessions)
        return sessions, transactions, timings

    if cfg.timeout <= 0:
        raise ConfigError("timeout must be a positive number of seconds")
    policy = FilterPolicy(
        excluded_extensions=frozenset(cfg.exclude_extensions),
        accepted_statuses=_parse_statuses(cfg.accept_statuses),
    )
    started = time.perf_counter()
    malformed: list[MalformedLine] = []
    # one pass: the page views the filter keeps go straight into per-client
    # columns, and the record of every well-formed line to the dump as read
    views = PageViews()
    with (
        open(cfg.dump_records, "w", encoding="utf-8") if cfg.dump_records else nullcontext()
    ) as dump:
        records = None if dump is None else lambda record: dump.write(record_json(record))
        try:
            for path in cfg.inputs:
                with open(path, "r", encoding="utf-8-sig", errors="replace") as fp:
                    read_log(fp, cfg.log_format, malformed, policy, views, records)
        except (OSError, UnreadableSource) as exc:
            raise InputError(f"parse stage: {exc}") from exc
    if malformed:
        print(f"warning: skipped {len(malformed)} malformed line(s)", file=sys.stderr)
    timings["parse"] = time.perf_counter() - started

    started = time.perf_counter()
    sessions = sessionize(views, cfg.timeout)
    timings["sessionize"] = time.perf_counter() - started
    return sessions, len(views), timings


def run_pipeline(cfg: RunConfig) -> int:
    measure, config = _clustering_setup(cfg)
    sessions, transactions, stage_timings = _load_sessions_stage(cfg)
    if cfg.dump_sessions:
        _write(cfg.dump_sessions, dump_sessions_jsonl(sessions))
    if not sessions:
        raise InputError("cluster stage: no sessions were produced")

    try:
        # one oracle for every repeat: each distinct pair is computed once
        oracle = SimilarityOracle(sessions, measure)
    except CatalogMismatch as exc:
        raise InputError(f"cluster stage: {exc}") from exc
    reports = []
    run_dicts = []
    for repeat in range(cfg.repeats):
        seed = config.rng_seed + repeat
        try:
            clustering = antclust_run(
                sessions, measure, config._replace(rng_seed=seed), oracle=oracle
            )
        except TooManySessions as exc:
            raise InputError(f"cluster stage: {exc}") from exc
        timings = dict(stage_timings)
        timings.update(clustering.phase_seconds)
        # the stages before clustering ran once, so only the first run is charged
        stage_timings = dict.fromkeys(stage_timings, 0.0)
        if cfg.omit_timings:
            timings = {k: 0.0 for k in timings}
        report = summarize(
            clustering.labels, transactions=transactions, wall_time_seconds=timings
        )
        reports.append(report)
        run_dicts.append(
            {
                "seed": seed,
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
        config_echo = cfg._asdict()
        for destination in DESTINATIONS:
            config_echo.pop(destination, None)
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


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    settings = _settings(args)
    if "blend_weights" in settings:
        settings["blend_weights"] = _parse_weights(settings["blend_weights"])
    return RunConfig(**settings)


def _cmd_run(args: argparse.Namespace) -> int:
    return run_pipeline(_config_from_args(args))


def _cmd_synth(args: argparse.Namespace) -> int:
    """The model flags are stored under :class:`TrafficModel`'s field names."""
    model_args = _settings(args)
    transactions = model_args.pop("transactions")
    out, truth_path = model_args.pop("out", None), model_args.pop("truth", None)
    try:
        lines, truth = generate(TrafficModel(**model_args), transactions)
    except (ValueError, InfeasibleModel) as exc:
        raise ConfigError(str(exc)) from exc
    _write(out, lines)
    if truth_path:
        _write(truth_path, truth.to_json())
    return EXIT_OK


def _cmd_sessionize(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    sessions, _, _ = _load_sessions_stage(cfg)
    _write(cfg.out, dump_sessions_jsonl(sessions))
    return EXIT_OK


def _add_ingest_flags(parser: argparse.ArgumentParser) -> None:
    defaults = RunConfig._field_defaults
    parser.add_argument("--input", dest="inputs", action="extend", nargs="+", required=True,
                        metavar="PATH", help="access log file(s)")
    parser.add_argument("--format", dest="log_format", choices=[f.value for f in LogFormat])
    parser.add_argument("--exclude-ext", dest="exclude_extensions", type=_parse_extensions,
                        metavar="EXCLUDE_EXT",
                        help="comma-separated asset extensions to drop "
                             f"(default: {','.join(sorted(DEFAULT_EXCLUDED_EXTENSIONS))})")
    parser.add_argument("--accept-status", dest="accept_statuses", metavar="ACCEPT_STATUS",
                        help=f"accepted status codes (default: {defaults['accept_statuses']})")
    parser.add_argument("--timeout", type=int,
                        help=f"session gap timeout in seconds (default {defaults['timeout']})")
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
    # and of synth.TrafficModel (synth)
    no_defaults = {"argument_default": argparse.SUPPRESS}

    p_run = sub.add_parser("run", help="full pipeline: log file(s) to cluster report", **no_defaults)
    _add_ingest_flags(p_run)
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
    _add_ingest_flags(p_sess)
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
        _check_destinations(args)
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (InputError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
