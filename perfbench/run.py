"""Benchmark for the antsess command line on seeded synthetic workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload run_50k --seed 1 --seconds 30 --trace 0

Each run builds its inputs from ``--seed`` with the repo's own
``antsess synth`` (and ``antsess sessionize`` where the workload starts from
a dump), then drives one command of the shipped CLI in a closed loop with
one client: the next command starts only when the previous one has exited,
until ``--seconds`` are used up (at least two commands).  The program sees
only the generated files.

``--trace 0`` times the command as a child process with nothing attached and
prints the end-to-end metrics: the medians over the run's commands of wall
time, CPU time (user + sys) and max RSS, input transactions per second of
median wall time, and ``setup_s``, the median wall time of building the
inputs (repeated at least three times).

On a shared host a core's speed drifts by up to 2x over seconds and minutes,
and CPU time drifts with it, so raw times of one command spread widely
between runs.  The benchmark therefore pins itself and its children to one
core, and while each command or set-up runs, a thread of this process wakes
every ``PROBE_INTERVAL_S`` to time a fixed sliver of pure-Python work on that
core in its own CPU time (``micro_probe``).  The end-to-end times are in
reference seconds: measured seconds x the mean, over the probes taken during
the measurement, of ``PROBE_REF_S`` / probe time.  A change to the program
moves them as it moves raw time; a slow phase of the core slows the probe
too and cancels.  The raw times are printed on the ``env`` line.

``--trace 1`` alternates that plain command with the same command run
in-process under ``perfbench/trace_child.py``, which records a span around
each layer's public functions, and prints the per-layer metrics: medians
over the traced commands, plus the tracing overhead (median of traced minus
plain wall time).  Work counts must repeat exactly between traced commands.
``antclust.ari`` is the adjusted Rand index of the first assignment against
the planted profiles, and 0 on a workload that does not cluster.

Every command's outputs are checked against the synth ground truth: exit
code 0, the planted session count, keys and page views per session, an
assignment covering every session (scored with
``antsess.metrics.adjusted_rand_index``), and outputs byte-identical across
the run's repetitions.  A command that fails a check counts in ``failed``
(``failed_share`` is failed / attempted); any failure makes ``correct``
false and the exit code 1.  The last line of standard output is the JSON
result; the lines before it give the environment and every metric with its
unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
TRACE_CHILD = Path(__file__).resolve().parent / "trace_child.py"
WORK_ROOT = ROOT / ".perfbench_work"

# Set-up repeats until SETUP_SECONDS are used, at least SETUP_MIN times.
SETUP_SECONDS = 4
SETUP_MIN = 3
MIN_COMMANDS = 2
STARTUP_SAMPLES = 3
COMMAND_TIMEOUT_S = 150
PROBE_INTERVAL_S = 0.05
# micro_probe's CPU time at the reference core speed: about its time on a
# lightly loaded core of a 2-core Xeon VM with Python 3.11, so that reference
# seconds are close to seconds there.
PROBE_REF_S = 0.0005
MIN_PROBES = 3

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "tx_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

_SECONDS = (
    "logs.parse_s logs.filter_s logs.catalog_s sessions.sessionize_s sessions.dump_s "
    "sessions.load_s similarity.matrix_s antclust.run_s antclust.self_s antclust.init_s "
    "antclust.simulate_s antclust.assign_s report.s cli.self_s cli.startup_s "
    "synth.generate_s trace.overhead_s"
).split()
# Exact work counts: two traced runs of one seed must agree on every one.
COUNTS = (
    "logs.lines logs.records logs.malformed logs.pages_kept logs.dropped "
    "sessions.sessions sessions.singletons similarity.matrix_calls "
    "similarity.pairs_computed similarity.pairs_read antclust.meetings "
    "antclust.meetings.new_nest antclust.meetings.adopted antclust.meetings.defected "
    "antclust.meetings.no_op antclust.nest_surveys antclust.clusters"
).split()
PER_LAYER_UNITS = {
    **{name: "s" for name in _SECONDS},
    **{name: "count" for name in COUNTS},
    "logs.lines_per_s": "1/s",
    "logs.rss_mb": "MB",
    "sessions.dump_bytes": "bytes",
    "similarity.pairs_nonzero_share": "ratio",
    "similarity.read_share": "ratio",
    "similarity.rss_mb": "MB",
    "antclust.accept_share": "ratio",
    "antclust.ari": "index",
}
EXACT = set(COUNTS) | {"sessions.dump_bytes"}

# Top-level layer of each span name; self times are summed per layer.
LAYERS = ("cli", "logs", "sessions", "similarity", "antclust", "report", "synth")


class BenchError(Exception):
    """The benchmark cannot measure: missing sources or a failed set-up."""


@dataclass(frozen=True)
class Workload:
    name: str
    transactions: int
    synth_args: tuple[str, ...]
    kind: str  # "run", "sessionize" or "cluster": the subcommand under test


WORKLOADS = {
    w.name: w
    for w in (
        # The README's headline job: similarity dominates, 90% of pairs are zero.
        Workload("run_50k", 50_000, ("--transactions", "50000"), "run"),
        # Ingest only: parse dominates and peak RSS is the materialized records.
        Workload(
            "ingest_300k_assets",
            300_000,
            ("--transactions", "300000", "--asset-ratio", "0.4"),
            "sessionize",
        ),
        # Clustering from a dump with the costliest measure; half the pairs are nonzero.
        Workload(
            "cluster_blend_overlap",
            20_000,
            ("--transactions", "20000", "--profiles", "2", "--pages-per-profile", "25"),
            "cluster",
        ),
    )
}


@dataclass(frozen=True)
class Files:
    log: Path
    truth: Path
    dump: Path  # session dump made during set-up (cluster workload)
    out: Path  # sessionize output, or the JSON report
    assignment: Path

    @classmethod
    def under(cls, work: Path) -> "Files":
        return cls(
            log=work / "log.txt",
            truth=work / "truth.json",
            dump=work / "sessions.jsonl",
            out=work / "out",
            assignment=work / "assignment.csv",
        )


def command_args(workload: Workload, files: Files, seed: int) -> list[str]:
    if workload.kind == "sessionize":
        return ["sessionize", "--input", str(files.log), "--out", str(files.out)]
    source = (
        ["run", "--input", str(files.log)]
        if workload.kind == "run"
        else ["cluster", "--from-sessions", str(files.dump), "--similarity", "blend"]
    )
    return source + [
        "--seed", str(seed), "--report", "json", "--omit-timings",
        "--out", str(files.out), "--dump-assignment", str(files.assignment),
    ]


# ------------------------------------------------------------ speed probe


def pin_to_one_core() -> int:
    """Keep this process and the children it starts on one core, so that the
    probe thread measures the core the commands run on."""
    core = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {core})
    return core


_PROBE_TABLE = {i: i * 3 % 17 for i in range(64)}


def micro_probe() -> float:
    """CPU seconds this thread takes for a fixed sliver of pure-Python work."""
    table = _PROBE_TABLE
    started = time.thread_time()
    total = 0
    for i in range(6000):
        total += table[i & 63] * (i % 7)
    return time.thread_time() - started


class SpeedSampler:
    """Times ``micro_probe`` every ``PROBE_INTERVAL_S`` on a thread of its own
    while commands run, and turns measured seconds into reference seconds."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (perf_counter, probe seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="speed-sampler", daemon=True)

    def __enter__(self) -> "SpeedSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        while not self._stop.wait(PROBE_INTERVAL_S):
            self.samples.append((time.perf_counter(), micro_probe()))

    def scale(self, started: float, ended: float) -> float:
        """Reference seconds per measured second over [started, ended]."""
        samples = list(self.samples)
        inside = [probe for at, probe in samples if started <= at <= ended]
        if len(inside) < MIN_PROBES:  # too short: the probes nearest in time
            middle = (started + ended) / 2
            nearest = sorted(samples, key=lambda sample: abs(sample[0] - middle))
            inside = [probe for _, probe in nearest[:MIN_PROBES]]
        if not inside:
            raise BenchError("the speed sampler took no samples")
        # Each sample stands for an equal slice of wall time, whose work is
        # worth PROBE_REF_S / probe reference seconds per second.
        return statistics.fmean(PROBE_REF_S / probe for probe in inside)


# --------------------------------------------------------------- processes


@dataclass(frozen=True)
class Sample:
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int


def child_env(work: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(work)
    return env


def spawn(argv: list[str], env: dict[str, str], log: Path) -> Sample:
    """Run one child to completion; wall, CPU and max RSS are that child's own."""
    with open(log, "ab") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=err,
        )
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024,
        exit_code=proc.returncode,
    )


def antsess(*args: str) -> list[str]:
    return [sys.executable, "-m", "antsess.cli", *args]


def traced(trace_file: Path, run_id: str, args: list[str]) -> list[str]:
    return [sys.executable, str(TRACE_CHILD), str(trace_file), run_id, "--", *args]


# ----------------------------------------------------------------- checks


@dataclass(frozen=True)
class Expected:
    session_count: int
    keys: list[tuple[str, int]]  # sorted
    profile_of: dict[tuple[str, int], int]
    pages_of: dict[tuple[str, int], int]  # planted page views per session
    order: list[tuple[str, int]]  # the program's session order


def read_dump(path: Path) -> dict[tuple[str, int], int]:
    """Session key -> page views of a session dump, in dump order."""
    sessions = {}
    with open(path, encoding="utf-8") as fp:
        for line in fp:
            if line.strip():
                row = json.loads(line)
                sessions[(row["client_id"], row["start_time"])] = len(row["history"])
    return sessions


def expected_from_truth(truth_path: Path, workload: Workload, files: Files) -> Expected:
    truth = json.loads(truth_path.read_text(encoding="utf-8"))
    keys = [(ip, start) for ip, start in truth["session_keys"]]
    pages = [0] * len(keys)
    # sessionize's documented order: clients by first appearance among the
    # kept page requests, each client's sessions chronologically.
    first_seen: dict[str, int] = {}
    for sid, kind in zip(truth["record_sessions"], truth["record_kinds"]):
        if kind == "page":
            pages[sid] += 1
            first_seen.setdefault(keys[sid][0], len(first_seen))
    if workload.kind == "cluster":
        dump = read_dump(files.dump)
        if dump != dict(zip(keys, pages)):
            raise BenchError("the set-up session dump differs from the truth")
        order = list(dump)
    else:
        order = sorted(keys, key=lambda k: (first_seen[k[0]], k[1]))
    return Expected(
        session_count=truth["session_count"],
        keys=sorted(keys),
        profile_of=dict(zip(keys, truth["session_profiles"])),
        pages_of=dict(zip(keys, pages)),
        order=order,
    )


def parse_assignment(text: str) -> list[int]:
    lines = text.splitlines()
    if not lines or lines[0] != "session_index,cluster_label":
        raise ValueError("assignment dump has no header")
    labels = []
    for position, line in enumerate(lines[1:]):
        index, label = line.split(",")
        if int(index) != position:
            raise ValueError(f"assignment row {position} has index {index}")
        labels.append(int(label))
    return labels


def check_outputs(
    workload: Workload, files: Files, expect: Expected, adjusted_rand_index
) -> tuple[str | None, float | None, str]:
    """Return (problem or None, ARI or None, digest of the outputs)."""
    try:
        out = files.out.read_bytes()
        if workload.kind == "sessionize":
            sessions = read_dump(files.out)
            if len(sessions) != expect.session_count:
                return f"dump has {len(sessions)} sessions, truth {expect.session_count}", None, ""
            if sorted(sessions) != expect.keys:
                return "dump session keys differ from the truth", None, ""
            if sessions != expect.pages_of:
                return "dump session lengths differ from the truth", None, ""
            return None, None, hashlib.sha256(out).hexdigest()
        assignment = files.assignment.read_bytes()
        report = json.loads(out)
        for run in report["runs"]:
            if run["report"]["sessions"] != expect.session_count:
                return f"report has {run['report']['sessions']} sessions", None, ""
        if not report["runs"]:
            return "report has no runs", None, ""
        labels = parse_assignment(assignment.decode("utf-8"))
        if len(labels) != len(expect.order) or len(labels) != expect.session_count:
            return f"assignment covers {len(labels)} of {expect.session_count} sessions", None, ""
        if sorted(expect.order) != expect.keys:
            return "clustered session keys differ from the truth", None, ""
        planted = [expect.profile_of[key] for key in expect.order]
        ari = adjusted_rand_index(labels, planted)
    except (OSError, ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
        return f"unreadable output: {exc!r}", None, ""
    return None, ari, hashlib.sha256(out + b"\0" + assignment).hexdigest()


class Checker:
    """Counts attempted and failed commands; each repetition must reproduce
    the first good one byte for byte."""

    def __init__(self, workload: Workload, files: Files, expect: Expected, ari_fn):
        self.workload, self.files, self.expect, self.ari_fn = workload, files, expect, ari_fn
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.aris: list[float] = []
        self.reference: str | None = None

    def clear(self) -> None:
        for path in (self.files.out, self.files.assignment):
            path.unlink(missing_ok=True)

    def record(self, exit_code: int) -> bool:
        self.attempted += 1
        ari = None
        if exit_code != 0:
            problem = f"exit code {exit_code}"
        else:
            problem, ari, digest = check_outputs(self.workload, self.files, self.expect, self.ari_fn)
            if problem is None:
                if self.reference is None:
                    self.reference = digest
                elif digest != self.reference:
                    problem = "outputs differ from the first repetition"
        if problem is not None:
            self.failed += 1
            self.problems.append(problem)
            return False
        if ari is not None:
            self.aris.append(ari)
        return True


# ------------------------------------------------------------------ set-up


def setup_steps(workload: Workload, files: Files, seed: int) -> list[list[str]]:
    """The repo's own commands that build a workload's inputs: synth first."""
    steps = [["synth", *workload.synth_args, "--seed", str(seed),
              "--out", str(files.log), "--truth", str(files.truth)]]
    if workload.kind == "cluster":
        steps.append(["sessionize", "--input", str(files.log), "--out", str(files.dump)])
    return steps


def run_step(argv: list[str], env, log: Path) -> float:
    sample = spawn(argv, env, log)
    if sample.exit_code != 0:
        raise BenchError(f"set-up command {argv} exited {sample.exit_code}")
    return sample.wall_s


def set_up(workload: Workload, files: Files, seed: int, env, log: Path) -> float:
    """Build the workload's inputs; return the wall time it took."""
    return sum(run_step(antsess(*args), env, log) for args in setup_steps(workload, files, seed))


def closed_loop(seconds: float, minimum: int, step) -> None:
    """Call ``step`` back to back while the next call is expected to end
    within ``seconds``; always at least ``minimum`` calls."""
    started = time.perf_counter()
    durations: list[float] = []
    while len(durations) < minimum or (
        time.perf_counter() - started + statistics.median(durations) <= seconds
    ):
        t0 = time.perf_counter()
        step()
        durations.append(time.perf_counter() - t0)


# ----------------------------------------------------------------- metrics


def span_times(spans: list[list]) -> tuple[dict[str, float], dict[str, float]]:
    """Total and self seconds per span name (self = duration minus children)."""
    child_time = [0.0] * len(spans)
    for _name, start, end, parent, _run in spans:
        if parent is not None:
            child_time[parent] += end - start
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    for index, (name, start, end, _parent, _run) in enumerate(spans):
        total[name] = total.get(name, 0.0) + end - start
        own[name] = own.get(name, 0.0) + end - start - child_time[index]
    return total, own


def layer_self_seconds(spans: list[list]) -> dict[str, float]:
    layers = dict.fromkeys(LAYERS, 0.0)
    for name, seconds in span_times(spans)[1].items():
        layers[name.split(".")[0]] += seconds
    return layers


def traced_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced command."""
    total, own = span_times(trace["spans"])
    counts = trace["counts"]
    c = lambda key: counts.get(key, 0)  # noqa: E731
    m: dict[str, float] = {
        "logs.parse_s": total.get("logs.parse_log", 0.0),
        "logs.filter_s": total.get("logs.filter_page_requests", 0.0),
        "logs.catalog_s": total.get("logs.build_catalog", 0.0),
        "sessions.sessionize_s": total.get("sessions.sessionize", 0.0),
        "sessions.dump_s": total.get("sessions.dump_sessions_jsonl", 0.0),
        "sessions.load_s": total.get("sessions.load_sessions_jsonl", 0.0),
        "similarity.matrix_s": own.get("similarity.similarity_matrix", 0.0),
        "antclust.run_s": total.get("antclust.run", 0.0),
        "antclust.self_s": own.get("antclust.run", 0.0),
        "report.s": total.get("report.summarize", 0.0) + total.get("report.emit_table", 0.0),
        "cli.self_s": own.get("cli.main", 0.0),
        "logs.rss_mb": trace["rss_mb"].get("logs", 0.0),
        "similarity.rss_mb": trace["rss_mb"].get("similarity", 0.0),
    }
    for key in ("logs.records", "logs.malformed", "logs.pages_kept", "sessions.sessions",
                "sessions.singletons", "sessions.dump_bytes", "similarity.matrix_calls",
                "similarity.pairs_computed", "similarity.pairs_read"):
        m[key] = c(key)
    m["logs.lines"] = c("logs.records") + c("logs.malformed")
    m["logs.dropped"] = c("logs.records") - c("logs.pages_kept")
    m["logs.lines_per_s"] = m["logs.lines"] / m["logs.parse_s"] if m["logs.parse_s"] else 0.0
    computed = c("similarity.pairs_computed")
    m["similarity.pairs_nonzero_share"] = c("similarity.pairs_nonzero") / computed if computed else 0.0
    m["similarity.read_share"] = c("similarity.pairs_read") / computed if computed else 0.0

    clusterings = trace["clusterings"]
    for phase in ("init", "simulate", "assign"):
        m[f"antclust.{phase}_s"] = sum(r["phase_seconds"].get(phase, 0.0) for r in clusterings)
    for outcome in ("new_nest", "adopted", "defected", "no_op"):
        m[f"antclust.meetings.{outcome}"] = sum(
            r["meeting_counts"].get(outcome, 0) for r in clusterings
        )
    meetings = sum(m[f"antclust.meetings.{o}"] for o in ("new_nest", "adopted", "defected", "no_op"))
    m["antclust.meetings"] = meetings
    # A meeting of two accepted ants from different nests surveys every ant's
    # label to compare nest sizes, and always ends in a defection.
    m["antclust.nest_surveys"] = m["antclust.meetings.defected"]
    accepted = meetings - m["antclust.meetings.no_op"]
    m["antclust.accept_share"] = accepted / meetings if meetings else 0.0
    m["antclust.clusters"] = clusterings[0]["clusters"] if clusterings else 0
    return m


def git_rev() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def emit(checker: Checker, metrics: dict[str, float], units: dict[str, str],
         env_info: dict) -> bool:
    """Print the environment, every metric with its unit, and the result line."""
    correct = checker.failed == 0 and checker.attempted > 0
    print("env " + json.dumps(env_info, sort_keys=True))
    for problem in checker.problems:
        print(f"check failed: {problem}")
    share = checker.failed / checker.attempted if checker.attempted else 1.0
    print(f"failed_share {share:.4f} ratio ({checker.failed}/{checker.attempted} commands)")
    if checker.aris:
        print(f"ari {checker.aris[0]:.6f} index (first command's assignment vs planted profiles)")
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return correct


# -------------------------------------------------------------------- runs


def load_program():
    """Import the checkout's antsess, never an installed copy; return its ARI."""
    if not (SRC / "antsess" / "cli.py").is_file():
        raise BenchError(f"no antsess sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import antsess
    from antsess.metrics import adjusted_rand_index

    if Path(antsess.__file__).resolve().parent != (SRC / "antsess").resolve():
        raise BenchError(f"imported antsess from {antsess.__file__}, not {SRC}")
    return adjusted_rand_index


def run_untraced(workload, files, seed, seconds, env, log, ari_fn):
    with SpeedSampler() as sampler:
        setups: list[tuple[float, float]] = []  # (seconds, reference scale)

        def set_up_once():
            started = time.perf_counter()
            took = set_up(workload, files, seed, env, log)
            setups.append((took, sampler.scale(started, time.perf_counter())))

        closed_loop(SETUP_SECONDS, SETUP_MIN, set_up_once)
        checker = Checker(workload, files, expected_from_truth(files.truth, workload, files), ari_fn)
        samples: list[tuple[Sample, float]] = []
        argv = antsess(*command_args(workload, files, seed))

        def step():
            checker.clear()
            started = time.perf_counter()
            sample = spawn(argv, env, log)
            scale = sampler.scale(started, time.perf_counter())
            if checker.record(sample.exit_code):
                samples.append((sample, scale))

        closed_loop(seconds, MIN_COMMANDS, step)
    metrics = dict.fromkeys(END_TO_END_UNITS, 0.0)
    if samples:
        wall = statistics.median(s.wall_s * scale for s, scale in samples)
        metrics.update(
            wall_s=wall,
            cpu_s=statistics.median(s.cpu_s * scale for s, scale in samples),
            tx_per_s=workload.transactions / wall,
            peak_rss_mb=statistics.median(s.rss_mb for s, _ in samples),
        )
    metrics["setup_s"] = statistics.median(t * scale for t, scale in setups)
    return checker, metrics, {
        "samples": len(samples),
        "raw_walls_s": [round(s.wall_s, 4) for s, _ in samples],
        "raw_setups_s": [round(t, 4) for t, _ in setups],
        "scales": [round(scale, 4) for _, scale in samples],
        "probes": len(sampler.samples),
    }


def run_traced(workload, files, seed, seconds, env, log, ari_fn):
    work = files.log.parent
    synth_trace = work / "synth.trace.json"
    synth_args, *other_steps = setup_steps(workload, files, seed)
    run_step(traced(synth_trace, "setup-synth", synth_args), env, log)
    synth = json.loads(synth_trace.read_text(encoding="utf-8"))
    for args in other_steps:
        run_step(antsess(*args), env, log)
    checker = Checker(workload, files, expected_from_truth(files.truth, workload, files), ari_fn)

    args = command_args(workload, files, seed)
    overheads: list[float] = []
    traces: list[dict] = []

    def plain() -> float | None:
        checker.clear()
        sample = spawn(antsess(*args), env, log)
        return sample.wall_s if checker.record(sample.exit_code) else None

    def with_trace() -> float | None:
        checker.clear()
        trace_file = work / "trace.json"
        trace_file.unlink(missing_ok=True)
        sample = spawn(traced(trace_file, f"measured-{len(traces)}", args), env, log)
        if not checker.record(sample.exit_code):
            return None
        traces.append(json.loads(trace_file.read_text(encoding="utf-8")))
        return sample.wall_s

    def step():
        # Alternate which goes first so drift within a pair cancels out.
        if len(overheads) % 2:
            traced_wall, plain_wall = with_trace(), plain()
        else:
            plain_wall, traced_wall = plain(), with_trace()
        if traced_wall is not None and plain_wall is not None:
            overheads.append(traced_wall - plain_wall)

    closed_loop(seconds, MIN_COMMANDS, step)
    startup = [spawn([sys.executable, "-c", "import antsess.cli"], env, log).wall_s
               for _ in range(STARTUP_SAMPLES)]

    per_run = [traced_metrics(t) for t in traces]
    for a, b in zip(per_run, per_run[1:]):
        moved = sorted(k for k in EXACT if a[k] != b[k])
        if moved:
            checker.failed += 1
            checker.problems.append(f"work counts differ between traced runs: {moved}")
    metrics = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    if per_run:
        metrics.update({key: statistics.median(r[key] for r in per_run) for key in per_run[0]})
    metrics["antclust.ari"] = checker.aris[0] if checker.aris else 0.0
    metrics["cli.startup_s"] = statistics.median(startup)
    metrics["synth.generate_s"] = span_times(synth["spans"])[0].get("synth.generate", 0.0)
    metrics["trace.overhead_s"] = statistics.median(overheads) if overheads else 0.0
    layers = {
        layer: statistics.median(layer_self_seconds(t["spans"])[layer] for t in traces)
        for layer in LAYERS if layer != "synth"
    } if traces else {}
    return checker, metrics, {"samples": len(traces), "layer_self_s": layers}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workload = WORKLOADS[args.workload]
    try:
        ari_fn = load_program()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    core = pin_to_one_core()
    work = WORK_ROOT / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    files = Files.under(work)
    log = work / "stderr.log"
    runner = run_traced if args.trace else run_untraced
    try:
        checker, metrics, info = runner(
            workload, files, args.seed, args.seconds, child_env(work), log, ari_fn
        )
        if checker.failed:
            sys.stderr.write(log.read_text(encoding="utf-8", errors="replace")[-4000:])
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        if log.exists():
            sys.stderr.write(log.read_text(encoding="utf-8", errors="replace")[-4000:])
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    sessions = checker.expect.session_count
    env_info = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cores": os.cpu_count(),
        "pinned_core": core,
        "python": platform.python_version(),
        "git_rev": git_rev(),
        "transactions": workload.transactions,
        "sessions": sessions,
        "pairs": sessions * (sessions - 1) // 2,
        "load": "closed loop, 1 client, one command at a time",
        **info,
    }
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    return 0 if emit(checker, metrics, units, env_info) else 1


if __name__ == "__main__":
    sys.exit(main())
