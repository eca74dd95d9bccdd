"""Self-check of the benchmark itself.

Usage, from the repository root::

    python3 perfbench/selfcheck.py

1. Runs every workload named in ``BENCHMARK.json`` once with ``--trace 0``
   and once with ``--trace 1`` (a one-second budget, so two commands each),
   prints every metric with its unit, and fails unless each result line is
   correct and carries exactly the metrics ``BENCHMARK.json`` names, with
   the same units, as finite numbers.
2. Builds small synth corpora, runs each workload's command once, and
   confirms that the output checks accept the real outputs but count a
   corrupted one as failed: a truncated assignment dump, a truncated report,
   a truncated session dump, a changed label, and a non-zero exit code.

Exits 1 if anything fails.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import run as bench

BENCHMARK = bench.ROOT / "BENCHMARK.json"

TINY = (
    bench.Workload("tiny_run", 3000, ("--transactions", "3000"), "run"),
    bench.Workload(
        "tiny_ingest", 3000, ("--transactions", "3000", "--asset-ratio", "0.4"), "sessionize"
    ),
    bench.Workload(
        "tiny_cluster",
        2000,
        ("--transactions", "2000", "--profiles", "2", "--pages-per-profile", "25"),
        "cluster",
    ),
)


def check_emission(spec: dict) -> list[str]:
    problems = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[key]}
        for workload in spec["workloads"]:
            name = workload["name"]
            argv = [*spec["command"], "--workload", name, "--seed", "3",
                    "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=bench.ROOT, capture_output=True, text=True,
                                  timeout=600)
            lines = proc.stdout.strip().splitlines()
            where = f"{name} --trace {trace}"
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                problems.append(f"{where}: no result line (exit {proc.returncode})")
                continue
            print(f"== {where} (exit {proc.returncode})")
            for metric, entry in result["metrics"].items():
                print(f"   {metric} = {entry['value']:.6g} {entry['unit']}")
            if proc.returncode != 0 or result["correct"] is not True:
                problems.append(f"{where}: exit {proc.returncode}, correct={result['correct']}")
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
                problems.append(f"{where}: attempted={result['attempted']!r}")
            got = {m: e["unit"] for m, e in result["metrics"].items()}
            if got != wanted:
                missing = sorted(set(wanted) - set(got))
                extra = sorted(set(got) - set(wanted))
                units = sorted(m for m in set(got) & set(wanted) if got[m] != wanted[m])
                problems.append(f"{where}: missing {missing}, extra {extra}, unit differs {units}")
            for metric, entry in result["metrics"].items():
                value = entry["value"]
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    problems.append(f"{where}: {metric} = {value!r}")
    return problems


def _truncate_lines(path: Path, drop: int) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[:-drop]), encoding="utf-8")


def _truncate_bytes(path: Path) -> None:
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def _change_last_label(path: Path) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    index, label = lines[-1].split(",")
    lines[-1] = f"{index},{int(label) + 1}"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def check_corruption(ari_fn) -> list[str]:
    problems = []
    for workload in TINY:
        work = bench.WORK_ROOT / f"selfcheck-{workload.name}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            files = bench.Files.under(work)
            log = work / "stderr.log"
            env = bench.child_env(work)
            bench.set_up(workload, files, 5, env, log)
            expect = bench.expected_from_truth(files.truth, workload, files)
            checker = bench.Checker(workload, files, expect, ari_fn)
            checker.clear()
            argv = bench.antsess(*bench.command_args(workload, files, 5))
            if not checker.record(bench.spawn(argv, env, log).exit_code):
                problems.append(f"{workload.name}: real outputs rejected: {checker.problems}")
                continue
            originals = {p: p.read_bytes() for p in (files.out, files.assignment) if p.exists()}
            if workload.kind == "sessionize":
                corruptions = {"truncated session dump": lambda: _truncate_lines(files.out, 1)}
            else:
                corruptions = {
                    "truncated assignment dump": lambda: _truncate_lines(files.assignment, 3),
                    "truncated report": lambda: _truncate_bytes(files.out),
                    "changed label": lambda: _change_last_label(files.assignment),
                }
            for what, corrupt in corruptions.items():
                corrupt()
                failed_before = checker.failed
                if checker.record(0) or checker.failed != failed_before + 1:
                    problems.append(f"{workload.name}: {what} was not counted as failed")
                else:
                    print(f"   {workload.name}: {what} -> failed ({checker.problems[-1]})")
                for path, data in originals.items():
                    path.write_bytes(data)
            if checker.record(3):
                problems.append(f"{workload.name}: exit code 3 was not counted as failed")
            if not checker.record(0):
                problems.append(f"{workload.name}: restored outputs rejected")
        finally:
            shutil.rmtree(work, ignore_errors=True)
    try:
        bench.WORK_ROOT.rmdir()
    except OSError:
        pass
    return problems


def main() -> int:
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    ari_fn = bench.load_program()
    print("output checks against corrupted outputs:")
    problems = check_corruption(ari_fn)
    problems += check_emission(spec)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
