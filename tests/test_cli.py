from __future__ import annotations

import gc
import hashlib
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import antsess.antclust
import antsess.cli
import antsess.logs
import antsess.similarity
from antsess.cli import build_parser, main
from antsess.logs import (
    LogFormat,
    build_catalog,
    filter_page_requests,
    format_clf_timestamp,
    parse_log,
    record_json,
)
from antsess.sessions import dump_sessions_jsonl, load_sessions_jsonl

from conftest import sessionize_records


@pytest.fixture()
def corpus(tmp_path):
    log = tmp_path / "log.txt"
    truth = tmp_path / "truth.json"
    code = main(
        [
            "synth",
            "--transactions", "2500",
            "--seed", "7",
            "--out", str(log),
            "--truth", str(truth),
        ]
    )
    assert code == 0
    return log, truth


def test_synth_writes_log_and_truth(corpus):
    log, truth = corpus
    assert len(log.read_text().splitlines()) == 2500
    payload = json.loads(truth.read_text())
    assert payload["session_count"] == len(payload["session_keys"])


def test_run_end_to_end(corpus, tmp_path, capsys):
    log, _ = corpus
    code = main(["run", "--input", str(log), "--seed", "7", "--repeats", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "transactions" in out
    assert "2500" in out


def test_run_json_report_carries_config_and_version(corpus, tmp_path):
    log, _ = corpus
    out_path = tmp_path / "report.json"
    code = main(
        [
            "run", "--input", str(log), "--seed", "3", "--repeats", "2",
            "--report", "json", "--out", str(out_path),
        ]
    )
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["tool"] == "antsess"
    assert payload["config"]["seed"] == 3
    assert payload["config"]["timeout"] == 1800
    assert len(payload["runs"]) == 2
    assert payload["runs"][0]["seed"] == 3
    assert payload["runs"][1]["seed"] == 4
    assert "average" in payload


def test_shared_stages_are_charged_to_the_first_run(corpus, tmp_path):
    log, _ = corpus
    out_path = tmp_path / "report.json"
    argv = ["run", "--input", str(log), "--repeats", "3", "--report", "json"]
    assert main(argv + ["--out", str(out_path)]) == 0
    runs = json.loads(out_path.read_text())["runs"]
    first, *later = [run["report"]["wall_time_seconds"] for run in runs]
    assert first["parse"] > 0
    assert [(t["parse"], t["sessionize"]) for t in later] == [(0.0, 0.0), (0.0, 0.0)]


def test_missing_input_is_exit_3(capsys):
    assert main(["run", "--input", "/nonexistent/log.txt"]) == 3
    assert "parse stage" in capsys.readouterr().err


def test_records_read_before_a_missing_input_are_dumped(corpus, tmp_path, capsys):
    """The records dump is written as the lines are read, so an input error
    leaves the records of the inputs read before it."""
    log, _ = corpus
    records_path, missing = tmp_path / "records.jsonl", tmp_path / "missing.log"
    argv = ["sessionize", "--input", str(log), str(missing), "--out", str(tmp_path / "s.jsonl")]
    assert main([*argv, "--dump-records", str(records_path)]) == 3
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("input error: parse stage: ") and str(missing) in line
    with open(log, encoding="utf-8") as fp:
        assert records_path.read_text() == "".join(map(record_json, parse_log(fp).records))
    assert not (tmp_path / "s.jsonl").exists()


# each subcommand with a nonexistent input and one bad destination, a
# directory (".") or a file in a missing directory: the destination is
# checked first, and nothing is read, built or written
@pytest.mark.parametrize(
    "argv, flag, where",
    [
        (["run", "--input", "/nonexistent/log.txt"], "--dump-sessions", "missing/s.jsonl"),
        (["run", "--input", "/nonexistent/log.txt"], "--dump-records", "."),
        (["sessionize", "--input", "/nonexistent/log.txt"], "--out", "missing/s.jsonl"),
        (["cluster", "--from-sessions", "/nonexistent/s.jsonl"], "--dump-assignment", "."),
        (["cluster", "--from-sessions", "/nonexistent/s.jsonl"], "--out", "missing/r.txt"),
    ],
)
def test_bad_destination_is_exit_2_before_input_is_read(argv, flag, where, tmp_path, capsys):
    assert main([*argv, flag, str(tmp_path / where)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {flag}: ") and len(err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


def test_a_repeated_input_reads_every_file(corpus, tmp_path):
    """``--input a --input b`` reads both files, as ``--input a b`` does."""
    log, _ = corpus
    lines = log.read_text().splitlines(keepends=True)
    first, second = str(tmp_path / "h1.log"), str(tmp_path / "h2.log")
    Path(first).write_text("".join(lines[:1250]))
    Path(second).write_text("".join(lines[1250:]))
    dumps = []
    for name, inputs in [("repeated", ["--input", first, "--input", second]),
                         ("listed", ["--input", first, second])]:
        out, records = tmp_path / f"{name}.jsonl", tmp_path / f"{name}.records.jsonl"
        assert main(["sessionize", *inputs, "--out", str(out), "--dump-records", str(records)]) == 0
        dumps.append((out.read_text(), records.read_text()))
    assert dumps[0] == dumps[1]
    assert len(dumps[0][1].splitlines()) == 2500


# an output that names the file of an input, under another spelling, a hard
# link or a symbolic link too, or the file of another output: exit 2 before
# anything is opened, so the input survives and no output is made
@pytest.mark.parametrize(
    "argv, message",
    [
        (["sessionize", "--input", "{log}", "--dump-records", "{log}"],
         "--dump-records: {log} names the same file as --input"),
        (["sessionize", "--input", "{log}", "--input", "{dir}/other.log",
          "--dump-records", "{log}"],
         "--dump-records: {log} names the same file as --input"),
        (["sessionize", "--input", "{log}", "{log}", "--out", "{dir}/./log.txt"],
         "--out: {dir}/./log.txt names the same file as --input"),
        (["run", "--input", "{dir}/other.log", "{dir}/link.log", "--dump-sessions", "{log}"],
         "--dump-sessions: {log} names the same file as --input"),
        (["run", "--input", "{log}", "--out", "{dir}/hard.log"],
         "--out: {dir}/hard.log names the same file as --input"),
        (["run", "--input", "{log}", "--dump-sessions", "{dir}/x", "--out", "{dir}/x"],
         "--dump-sessions: {dir}/x names the same file as --out"),
        (["run", "--input", "{dir}/missing.log", "--out", "{dir}/missing.log"],
         "--out: {dir}/missing.log names the same file as --input"),
        (["cluster", "--from-sessions", "{log}", "--dump-assignment", "{log}"],
         "--dump-assignment: {log} names the same file as --from-sessions"),
        (["synth", "--transactions", "10", "--out", "{dir}/x", "--truth", "{dir}/x"],
         "--truth: {dir}/x names the same file as --out"),
    ],
    ids=["records-input", "records-repeated-input", "out-input", "sessions-symlink",
         "out-hardlink", "two-outputs", "missing-input", "assignment-dump", "synth-outputs"],
)
def test_an_output_naming_another_flags_file_is_exit_2(argv, message, corpus, tmp_path, capsys):
    log, _ = corpus
    os.link(log, tmp_path / "hard.log")
    (tmp_path / "other.log").write_text("")
    (tmp_path / "link.log").symlink_to(log)
    before = sorted(tmp_path.iterdir()), log.read_bytes()
    fill = {"log": str(log), "dir": str(tmp_path)}
    assert main([arg.format(**fill) for arg in argv]) == 2
    assert capsys.readouterr().err == f"configuration error: {message.format(**fill)}\n"
    assert (sorted(tmp_path.iterdir()), log.read_bytes()) == before


def test_synth_writes_nothing_when_only_the_truth_destination_is_bad(tmp_path, capsys):
    log = tmp_path / "log.txt"
    truth = tmp_path / "missing" / "truth.json"
    assert main(["synth", "--transactions", "100", "--out", str(log), "--truth", str(truth)]) == 2
    err = capsys.readouterr().err
    assert err == f"configuration error: --truth: {truth.parent} is not a directory\n"
    assert list(tmp_path.iterdir()) == []
    assert main(["synth", "--transactions", "100", "--out", ""]) == 2
    assert capsys.readouterr().err == "configuration error: --out: empty path\n"
    # the null device is a destination like any other, for two flags at once too
    assert main(["synth", "--transactions", "100", "--out", os.devnull]) == 0
    assert main(["synth", "--transactions", "100", "--out", os.devnull, "--truth", os.devnull]) == 0


def test_bad_nest_fraction_is_exit_2(corpus, capsys):
    log, _ = corpus
    code = main(["run", "--input", str(log), "--min-nest-fraction", "1.5"])
    assert code == 2
    err = capsys.readouterr().err
    assert "min_nest_fraction" in err
    assert "[0, 1)" in err


def test_bad_blend_weights_is_exit_2(corpus, capsys):
    log, _ = corpus
    code = main(
        ["run", "--input", str(log), "--similarity", "blend", "--blend-weights", "1,1"]
    )
    assert code == 2


def test_no_input_is_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--seed", "1"])
    assert exc.value.code == 2


def test_same_seed_runs_are_byte_identical(corpus, tmp_path):
    log, _ = corpus
    outputs = []
    for tag in ("a", "b"):
        report = tmp_path / f"report_{tag}.json"
        assignment = tmp_path / f"assignment_{tag}.csv"
        code = main(
            [
                "run", "--input", str(log), "--seed", "11", "--repeats", "2",
                "--report", "json", "--omit-timings",
                "--out", str(report), "--dump-assignment", str(assignment),
            ]
        )
        assert code == 0
        outputs.append((report.read_bytes(), assignment.read_bytes()))
    assert outputs[0] == outputs[1]


def test_cluster_from_dump_equals_full_pipeline(corpus, tmp_path):
    log, _ = corpus
    sessions_path = tmp_path / "sessions.jsonl"
    direct = tmp_path / "direct.csv"
    code = main(
        [
            "run", "--input", str(log), "--seed", "5", "--repeats", "1",
            "--dump-sessions", str(sessions_path),
            "--dump-assignment", str(direct),
            "--report", "csv", "--omit-timings", "--out", str(tmp_path / "r1.csv"),
        ]
    )
    assert code == 0

    via_cluster = tmp_path / "via_cluster.csv"
    code = main(
        [
            "cluster", "--from-sessions", str(sessions_path), "--seed", "5",
            "--repeats", "1", "--dump-assignment", str(via_cluster),
            "--report", "csv", "--omit-timings", "--out", str(tmp_path / "r2.csv"),
        ]
    )
    assert code == 0
    assert direct.read_bytes() == via_cluster.read_bytes()
    assert (tmp_path / "r1.csv").read_bytes() == (tmp_path / "r2.csv").read_bytes()


def test_default_run_matches_its_golden_artifacts(tmp_path):
    # Values recorded while templates were sampled with ``random.sample``:
    # any drift in how the seeded stream is consumed, on any Python
    # version, changes the assignment or a repeat's meeting counts.
    log, report, assignment = tmp_path / "log", tmp_path / "r.json", tmp_path / "a.csv"
    assert main(["synth", "--transactions", "5000", "--seed", "3", "--out", str(log)]) == 0
    assert main(["run", "--input", str(log), "--report", "json", "--omit-timings",
                 "--out", str(report), "--dump-assignment", str(assignment)]) == 0
    digest = hashlib.sha256(assignment.read_bytes()).hexdigest()
    assert digest == "43e38d2879315db2157e8b84f740e326b3ecf7dadf770abf2656dba94fe00e27"
    runs = json.loads(report.read_text())["runs"]
    sizes = [13] * 9 + [12]
    assert [(r["seed"], r["meeting_counts"], r["report"]["cluster_sizes"]) for r in runs] == [
        (1, {"adopted": 61, "defected": 68, "new_nest": 34, "no_op": 9512}, sizes),
        (2, {"adopted": 61, "defected": 72, "new_nest": 34, "no_op": 9508}, sizes),
        (3, {"adopted": 65, "defected": 64, "new_nest": 32, "no_op": 9514}, sizes),
    ]


def test_transactions_are_page_views_from_log_and_from_dump(tmp_path):
    # 40% of this log's records are assets, which the filter drops: a dump
    # only carries the page views, so both paths must report those
    log, dump = tmp_path / "assets.log", tmp_path / "sessions.jsonl"
    assert main(["synth", "--transactions", "3000", "--asset-ratio", "0.4", "--seed", "3",
                 "--out", str(log)]) == 0
    common = ["--seed", "2", "--repeats", "1", "--omit-timings"]
    assert main(["run", "--input", str(log), "--dump-sessions", str(dump), *common,
                 "--out", str(tmp_path / "direct.txt")]) == 0
    assert main(["cluster", "--from-sessions", str(dump), *common,
                 "--out", str(tmp_path / "from_dump.txt")]) == 0
    direct = (tmp_path / "direct.txt").read_bytes()
    assert direct == (tmp_path / "from_dump.txt").read_bytes()
    page_views = sum(len(s.history) for s in load_sessions_jsonl(dump.read_text().splitlines()))
    assert page_views == 1800
    assert direct.splitlines()[1].split()[0] == b"1800"


def test_repeats_share_one_computation_of_each_pair(corpus, tmp_path, monkeypatch):
    log, _ = corpus
    dump = tmp_path / "sessions.jsonl"
    assert main(["sessionize", "--input", str(log), "--out", str(dump)]) == 0
    real_score, real_load = antsess.similarity._score, antsess.cli.load_sessions_jsonl
    real_run = antsess.cli.antclust_run
    calls, loaded, runs = [], [], []

    def counting_score(x, y, measure):
        calls.append((x, y))
        return real_score(x, y, measure)

    def load(fp):
        loaded.extend(real_load(fp))
        return loaded

    def recorded_run(sessions, measure, config, **kwargs):
        result = real_run(sessions, measure, config, **kwargs)
        runs.append((measure, config, result, kwargs["oracle"]))
        return result

    monkeypatch.setattr(antsess.similarity, "_score", counting_score)
    monkeypatch.setattr(antsess.cli, "load_sessions_jsonl", load)
    monkeypatch.setattr(antsess.cli, "antclust_run", recorded_run)
    assert main(["cluster", "--from-sessions", str(dump), "--similarity", "blend",
                 "--repeats", "3", "--out", str(tmp_path / "report.txt")]) == 0
    assert len(runs) == 3
    assert len({id(oracle) for *_, oracle in runs}) == 1
    index = {id(row): i for i, row in enumerate(runs[0][3].rows)}
    pairs = [(index[id(x)], index[id(y)]) for x, y in calls]
    assert pairs and all(lo < hi for lo, hi in pairs)
    assert len(set(pairs)) == len(pairs)  # no pair computed twice
    for measure, config, result, _ in runs:
        fresh = antsess.antclust.run(loaded, measure, config)  # with an oracle of its own
        assert fresh.labels == result.labels
        assert fresh.meeting_counts == result.meeting_counts
    # three fresh oracles compute more pairs than the one shared by the repeats
    assert len(calls) - len(pairs) > len(pairs)


def test_sessionize_subcommand_dumps_loadable_sessions(corpus, tmp_path):
    log, truth = corpus
    out = tmp_path / "sessions.jsonl"
    code = main(["sessionize", "--input", str(log), "--out", str(out)])
    assert code == 0
    sessions = load_sessions_jsonl(out.read_text().splitlines())
    assert len(sessions) == json.loads(truth.read_text())["session_count"]


@pytest.mark.parametrize("block", [97, antsess.logs.BLOCK], ids=["97", "default"])
def test_lf_crlf_and_unterminated_copies_give_one_sessions_dump(
    block, corpus, tmp_path, monkeypatch
):
    monkeypatch.setattr(antsess.logs, "BLOCK", block)
    log, _ = corpus
    text = log.read_bytes()
    copies = {"lf": text, "crlf": text.replace(b"\n", b"\r\n"), "unterminated": text[:-1]}
    dumps = set()
    for name, data in copies.items():
        (tmp_path / name).write_bytes(data)
        out = tmp_path / f"{name}.jsonl"
        assert main(["sessionize", "--input", str(tmp_path / name), "--out", str(out)]) == 0
        dumps.add(out.read_text())
    assert len(dumps) == 1


def test_dump_records_jsonl(corpus, tmp_path):
    log, _ = corpus
    records_path = tmp_path / "records.jsonl"
    code = main(
        [
            "run", "--input", str(log), "--seed", "1", "--repeats", "1",
            "--dump-records", str(records_path), "--out", str(tmp_path / "r.txt"),
        ]
    )
    assert code == 0
    lines = records_path.read_text().splitlines()
    assert len(lines) == 2500
    first = json.loads(lines[0])
    assert set(first) == {
        "client_id", "timestamp", "resource", "status", "referrer", "user_agent",
    }


def _log_line(fmt: LogFormat, host: str, epoch: int, target: str, status: int = 200) -> str:
    if fmt is LogFormat.CSV:
        return f"{host},{epoch},{target}"
    line = f'{host} - - [{format_clf_timestamp(epoch)}] "GET {target} HTTP/1.1" {status} 17'
    return line + ' "http://r/" "UA"' if fmt is LogFormat.COMBINED else line


@pytest.mark.parametrize("fmt", list(LogFormat))
def test_two_inputs_stream_as_parse_filter_sessionize_by_hand(fmt, tmp_path, capsys):
    t = 1_704_067_200
    if fmt is LogFormat.CSV:
        bad_stamp = "10.0.0.1,2024-02-30T00:00:00,/bad.html"
    else:
        bad_stamp = _log_line(fmt, "10.0.0.1", t, "/bad.html").replace("01/Jan", "31/Feb")
    first = [
        _log_line(fmt, "10.0.0.1", t, "/Index.html"),
        _log_line(fmt, "10.0.0.1", t + 5, "/static/site.css"),
        "",
        "   " + _log_line(fmt, "10.0.0.2", t + 10, "/b.html?x=1"),
        _log_line(fmt, "10.0.0.1", t + 20, "/c.html?q"),
        bad_stamp,
        _log_line(fmt, "10.0.0.2", t + 4000, "/index.html", status=404),
    ]
    # the second file brings a page of its own before pages the first one
    # has seen, CRLF line ends and a client of the first file
    second = [
        _log_line(fmt, "10.0.0.3", t + 30, "/d.html"),
        _log_line(fmt, "10.0.0.1", t + 40, "/b.html"),
        _log_line(fmt, "10.0.0.1", t + 40, "/img/a.png"),
        "\t" + _log_line(fmt, "10.0.0.2", t + 50, "/D.html?y=2"),
        "",
        "garbage",
    ]
    logs = [tmp_path / "first.log", tmp_path / "second.log"]
    logs[0].write_bytes(("\n".join(first) + "\n").encode())
    logs[1].write_bytes(("\r\n".join(second) + "\r\n").encode())
    records_path, sessions_path = tmp_path / "records.jsonl", tmp_path / "sessions.jsonl"
    streamed_path = tmp_path / "streamed.jsonl"
    argv = ["sessionize", "--input", *map(str, logs), "--format", fmt.value, "--timeout", "600"]
    assert main([*argv, "--out", str(streamed_path)]) == 0
    streamed_err = capsys.readouterr().err
    assert main([*argv, "--dump-records", str(records_path), "--out", str(sessions_path)]) == 0

    results = []
    for log in logs:
        with open(log, "r", encoding="utf-8", errors="replace") as fp:
            results.append(parse_log(fp, fmt))
    records = [record for result in results for record in result.records]
    pages = filter_page_requests(records)
    assert list(build_catalog(pages))[:4] == ["/index.html", "/b.html", "/c.html", "/d.html"]
    assert records_path.read_text() == "".join(map(record_json, records))
    assert sessions_path.read_text() == dump_sessions_jsonl(sessionize_records(pages, 600))
    assert streamed_path.read_text() == sessions_path.read_text()
    malformed = sum(len(result.malformed) for result in results)
    assert malformed == 4
    warning = f"warning: skipped {malformed} malformed line(s)\n"
    assert capsys.readouterr().err == streamed_err == warning


@pytest.mark.parametrize("fmt", list(LogFormat))
def test_a_byte_order_mark_starts_no_client_id(fmt, tmp_path):
    # one file of two views, 10 s apart, and the same views in two files
    # that each start with a UTF-8 byte-order mark
    lines = [_log_line(fmt, "10.0.0.1", 1_704_067_200 + dt, "/a.html") + "\n" for dt in (0, 10)]
    (tmp_path / "plain.log").write_text("".join(lines), encoding="utf-8")
    for number, line in enumerate(lines):
        (tmp_path / f"marked{number}.log").write_text("\ufeff" + line, encoding="utf-8")
    dumps = {}
    for name, inputs in (("plain", ["plain.log"]), ("marked", ["marked0.log", "marked1.log"])):
        sessions, records = tmp_path / f"{name}.jsonl", tmp_path / f"{name}.records.jsonl"
        argv = ["sessionize", "--input", *(str(tmp_path / i) for i in inputs),
                "--format", fmt.value, "--out", str(sessions), "--dump-records", str(records)]
        assert main(argv) == 0
        dumps[name] = sessions.read_text(), records.read_text()
    assert dumps["marked"] == dumps["plain"]
    sessions, records = dumps["marked"]
    assert [s.client_id for s in load_sessions_jsonl(sessions.splitlines())] == ["10.0.0.1"]
    assert [json.loads(r)["client_id"] for r in records.splitlines()] == ["10.0.0.1"] * 2


@pytest.mark.parametrize("dump_records", [False, True], ids=["streamed", "dumped"])
def test_status_000_is_a_status_like_any_other(dump_records, tmp_path):
    line = '10.0.0.1 - - [01/Jan/2024:00:00:{} +0000] "GET /a.html HTTP/1.1" {} 17'
    lines = [line.format("00", "000"), line.format("09", "000"), line.format("18", "200")]
    assert [record.status for record in parse_log(lines).records] == [0, 0, 200]
    log = tmp_path / "log.txt"
    log.write_text("\n".join(lines) + "\n")
    extra = ["--dump-records", str(tmp_path / "records.jsonl")] if dump_records else []

    def history(statuses: str) -> tuple[int, ...]:
        out = tmp_path / "sessions.jsonl"
        argv = ["sessionize", "--input", str(log), "--accept-status", statuses, "--out", str(out)]
        assert main(argv + extra) == 0
        (session,) = load_sessions_jsonl(out.read_text().splitlines())
        return session.history

    assert len(history("000")) == 2
    assert len(history("2xx")) == 1


@pytest.mark.parametrize("collecting", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize(
    "flags, code",
    [([], 0), (["--timeout", "0"], 2), (["--input", "/nonexistent/log.txt"], 3)],
    ids=["ok", "config-error", "input-error"],
)
def test_load_stage_pauses_gc_and_restores_the_callers_setting(
    flags, code, collecting, corpus, tmp_path, monkeypatch, capsys
):
    log, _ = corpus
    seen = []  # the collector's state inside each sessionize call
    real = antsess.cli.sessionize

    def sessionize_seeing_gc(*args):
        seen.append(gc.isenabled())
        return real(*args)

    monkeypatch.setattr(antsess.cli, "sessionize", sessionize_seeing_gc)
    argv = ["sessionize", "--input", str(log), "--out", str(tmp_path / "s.jsonl"), *flags]
    was_enabled = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        assert main(argv) == code
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert seen == ([False] if code == 0 else [])


def test_json_assignment_dump(corpus, tmp_path):
    log, _ = corpus
    path = tmp_path / "assignment.json"
    code = main(
        [
            "run", "--input", str(log), "--seed", "2", "--repeats", "1",
            "--dump-assignment", str(path), "--out", str(tmp_path / "r.txt"),
        ]
    )
    assert code == 0
    payload = json.loads(path.read_text())
    assert len(payload["labels"]) == json.loads((log.parent / "truth.json").read_text())[
        "session_count"
    ]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "antsess" in capsys.readouterr().out


@pytest.mark.parametrize("argv, code", [(["--version"], 0), (["run"], 2)])
def test_python_dash_m_runs_the_cli(argv, code, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["antsess", *argv])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("antsess", run_name="__main__")
    assert exc.value.code == code
    assert capsys.readouterr().out.startswith("antsess") == (code == 0)


def test_importing_the_package_loads_no_submodule():
    # each name is imported from its own module, so the package alone
    # must not load the pipeline
    script = (
        "import sys, antsess; "
        "print(sorted(m for m in sys.modules if m.startswith('antsess.')), antsess.__version__)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.split() == ["[]", antsess.__version__]


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # the record types are NamedTuples and plain classes: dataclasses would
    # load inspect (and with it ast, dis and tokenize) before every command
    script = "import sys, antsess.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.split() == ["[]"]


def test_importing_the_session_and_clustering_stages_loads_no_log_reader():
    # sessionize is handed page views, and cluster reads a sessions dump
    script = "import sys, antsess.antclust, antsess.similarity, antsess.sessions; " \
        "print('antsess.logs' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.split() == ["False"]


def test_unknown_arguments_exit_2(capsys):
    for argv, message in [
        (["run"], "the following arguments are required: --input"),
        (["run", "--input", "log.txt", "--bogus-flag"], "unrecognized arguments: --bogus-flag"),
        (["run", "--timeout", "x"], "argument --timeout: invalid int value: 'x'"),
        (["run", "--input"], "argument --input: expected at least one argument"),
    ]:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"configuration error: {message}\n"


def test_csv_format_input(tmp_path, capsys):
    csv_log = tmp_path / "log.csv"
    csv_log.write_text(
        "\n".join(
            f"user{u},{1_700_000_000 + u * 10_000 + i * 30},/page{u % 3}"
            for u in range(6)
            for i in range(10)
        )
        + "\n"
    )
    code = main(
        ["run", "--input", str(csv_log), "--format", "csv", "--repeats", "1",
         "--min-nest-fraction", "0.0"]
    )
    assert code == 0
    assert "transactions" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flags, warning",
    [
        # a CLF log read as Combined: every line is malformed
        (["--format", "combined"], "warning: skipped 2500 malformed line(s)\n"),
        # no line has a 5xx status: every line is filtered out
        (["--accept-status", "5xx"], ""),
    ],
)
def test_a_log_without_sessions_dumps_empty_and_cannot_be_clustered(
    flags, warning, corpus, tmp_path, capsys
):
    log, _ = corpus
    dump = tmp_path / "sessions.jsonl"
    no_sessions = "input error: cluster stage: no sessions were produced\n"
    assert main(["sessionize", "--input", str(log), *flags, "--out", str(dump)]) == 0
    assert dump.read_text() == ""
    assert capsys.readouterr().err == warning
    assert main(["cluster", "--from-sessions", str(dump)]) == 3
    assert capsys.readouterr().err == no_sessions
    assert main(["run", "--input", str(log), *flags]) == 3
    assert capsys.readouterr().err == warning + no_sessions


def test_ingest_flags_reach_the_config_echo(corpus, tmp_path):
    log, _ = corpus
    out_path = tmp_path / "report.json"
    code = main(
        [
            "run", "--input", str(log), "--repeats", "1", "--exclude-ext", "CSS,js",
            "--accept-status", "2xx", "--timeout", "900", "--similarity", "blend",
            "--blend-weights", "0.2,0.5,0.3", "--report", "json", "--out", str(out_path),
        ]
    )
    assert code == 0
    config = json.loads(out_path.read_text())["config"]
    assert config["exclude_extensions"] == [".css", ".js"]
    assert config["accept_statuses"] == "2xx"
    assert config["timeout"] == 900
    assert config["blend_weights"] == [0.2, 0.5, 0.3]
    assert config["iter_multiplier"] == 75
    assert "threads" not in config
    spaced = build_parser().parse_args(["run", "--input", "x", "--exclude-ext", " CSS, js "])
    assert spaced.exclude_extensions == [".css", ".js"]


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--iter-multiplier", "0"], "iter_multiplier must be a positive integer, got 0"),
        (["--init-meetings", "-1"], "init_meetings must be a positive integer, got -1"),
        (["--min-nest-fraction", "-0.5"], "min_nest_fraction must lie in [0, 1), got -0.5"),
        (["--similarity", "blend", "--blend-weights", "1,1,1"], "blend_weights must sum to 1"),
        (["--accept-status", "abc"], "accept_statuses: cannot parse 'abc'"),
        (["--timeout", "0"], "timeout must be a positive number of seconds"),
        (["--similarity", "blend", "--blend-weights", "nan,0,1"],
         "blend_weights must be three finite non-negative numbers"),
        (["--accept-status", "²"], "accept_statuses: cannot parse '²'"),
        (["--accept-status", "³04"], "accept_statuses: cannot parse '³04'"),
        (["--accept-status", "²xx"], "accept_statuses: cannot parse '²xx'"),
        (["--seed", "-1"], "rng_seed must be a non-negative integer, got -1"),
    ],
)
def test_config_error_is_exit_2_before_input_is_read(flags, message, capsys):
    assert main(["run", "--input", "/nonexistent/log.txt", *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and message in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--input", "log.txt", "--threads", "2"],
        ["cluster", "--from-sessions", "s.jsonl", "--threads", "1"],
        ["sessionize", "--input", "log.txt", "--seed", "1"],
        ["sessionize", "--input", "log.txt", "--dump-sessions", "s.jsonl"],
        ["run", "--input", "log.txt", "--from-sessions", "s.jsonl"],
        # a sessions dump is already parsed, filtered and sessionized
        ["cluster", "--from-sessions", "s.jsonl", "--timeout", "5"],
        ["cluster", "--from-sessions", "s.jsonl", "--format", "csv"],
        ["cluster", "--from-sessions", "s.jsonl", "--exclude-ext", "html"],
        ["cluster", "--from-sessions", "s.jsonl", "--accept-status", "2xx"],
        ["cluster", "--from-sessions", "s.jsonl", "--dump-records", "records.jsonl"],
    ],
)
def test_removed_flags_are_unknown(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: unrecognized arguments: ")
    assert len(err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


def test_synth_infeasible_volume_is_exit_2(tmp_path, capsys):
    code = main(
        ["synth", "--transactions", "1", "--asset-ratio", "0.99",
         "--out", str(tmp_path / "log.txt")]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err == "configuration error: asset_ratio leaves no page transactions\n"
    assert not (tmp_path / "log.txt").exists()


@pytest.mark.parametrize(
    "flags",
    [
        ["--profiles", "200000"],
        ["--profiles", "65537", "--pages", "327685"],
        ["--pages-per-profile", "0"],
        ["--profiles", "0"],
        ["--timeout", "120"],
        ["--asset-ratio", "1"],
        # random.Random seeds with abs(), so -3 would replay seed 3
        ["--seed", "-3"],
    ],
)
def test_synth_rejected_model_is_exit_2(tmp_path, capsys, flags):
    code = main(["synth", "--transactions", "100", *flags,
                 "--out", str(tmp_path / "log.txt"), "--truth", str(tmp_path / "truth.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert len(err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


def test_synth_gaps_exceed_a_one_hour_timeout(tmp_path):
    log, truth, dump = tmp_path / "log.txt", tmp_path / "truth.json", tmp_path / "s.jsonl"
    assert main(["synth", "--transactions", "20000", "--timeout", "3600", "--seed", "7",
                 "--out", str(log), "--truth", str(truth)]) == 0
    assert main(["sessionize", "--input", str(log), "--timeout", "3600",
                 "--out", str(dump)]) == 0
    planted = json.loads(truth.read_text())["session_count"]
    assert planted == 396
    assert len(dump.read_text().splitlines()) == planted


def _dump_lines(corpus, tmp_path) -> list[str]:
    log, _ = corpus
    out = tmp_path / "good.jsonl"
    assert main(["sessionize", "--input", str(log), "--out", str(out)]) == 0
    return out.read_text().splitlines()


def _cluster_dump(tmp_path, lines: list[str]) -> int:
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return main(["cluster", "--from-sessions", str(path), "--repeats", "1"])


def test_dump_line_that_is_not_json_is_exit_3(corpus, tmp_path, capsys):
    lines = _dump_lines(corpus, tmp_path)
    lines[2] = lines[2][:-5]
    assert _cluster_dump(tmp_path, lines) == 3
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "line 3: not JSON" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("at_end", [False, True])
def test_dump_that_is_not_utf8_is_exit_3(corpus, tmp_path, capsys, at_end):
    text = "\n".join(_dump_lines(corpus, tmp_path)).encode() + b"\n"
    path = tmp_path / "bad.jsonl"
    path.write_bytes(text + b"\xff\xfe\n" if at_end else b"\xff\xfe" + text)
    assert main(["cluster", "--from-sessions", str(path), "--repeats", "1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "not UTF-8" in err
    assert len(err.splitlines()) == 1


def test_dump_line_nested_too_deep_is_exit_3(corpus, tmp_path, capsys):
    lines = _dump_lines(corpus, tmp_path)
    lines[2] = "[" * 100_000 + "]" * 100_000
    assert _cluster_dump(tmp_path, lines) == 3
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "line 3: not JSON (" in err
    assert len(err.splitlines()) == 1


def test_dump_line_missing_a_key_is_exit_3(corpus, tmp_path, capsys):
    lines = _dump_lines(corpus, tmp_path)
    record = json.loads(lines[4])
    del record["hits_vector"]
    lines[4] = json.dumps(record)
    assert _cluster_dump(tmp_path, lines) == 3
    err = capsys.readouterr().err
    assert "line 5: missing key 'hits_vector'" in err
    assert len(err.splitlines()) == 1


def test_dump_with_mixed_catalogs_is_exit_3(corpus, tmp_path, capsys):
    lines = _dump_lines(corpus, tmp_path)
    record = json.loads(lines[-1])
    record["catalog_size"] += 1
    lines[-1] = json.dumps(record)
    assert _cluster_dump(tmp_path, lines) == 3
    err = capsys.readouterr().err
    assert "cluster stage: catalog sizes differ" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("spare, code", [(0, 0), (-1, 3)])
def test_more_sessions_than_nest_labels_is_exit_3(spare, code, corpus, tmp_path, monkeypatch, capsys):
    # the real bound is millions of sessions; a lowered one takes the same path
    lines = _dump_lines(corpus, tmp_path)
    monkeypatch.setattr(antsess.antclust, "MAX_SESSIONS", len(lines) + spare)
    assert _cluster_dump(tmp_path, lines) == code
    err = capsys.readouterr().err
    if code:
        assert err == (
            f"input error: cluster stage: {len(lines)} sessions exceed the "
            f"{len(lines) - 1} that nest labels can tell apart\n"
        )


@pytest.mark.parametrize(
    "key, value",
    [
        ("time_vector", "x"),
        ("hits_vector", None),
        ("transaction_vector", [1]),
        ("history", "abc"),
        ("history", [0, "1"]),
        ("catalog_size", "50"),
        ("start_time", 1.5),
        ("total_time", True),
    ],
)
def test_dump_value_of_wrong_type_is_exit_3(key, value, corpus, tmp_path, capsys):
    lines = _dump_lines(corpus, tmp_path)
    for i, line in enumerate(lines):
        record = json.loads(line)
        if key.endswith("_vector"):
            record[key] = {page: value for page in record[key]}
        else:
            record[key] = value
        lines[i] = json.dumps(record)
    assert _cluster_dump(tmp_path, lines) == 3
    err = capsys.readouterr().err
    assert err.startswith("input error:") and f"line 1: {key}: expected" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("cluster", "client_id", 5),
        ("cluster", "client_id", None),
        ("cluster", "client_id", ["x"]),
        ("cluster", "client_id", {"a": 1}),
        ("cluster", "identity", [1]),
        ("cluster", "identity", 7),
    ],
)
def test_dump_identifier_of_wrong_type_is_exit_3(command, key, value, corpus, tmp_path, capsys):
    lines = _dump_lines(corpus, tmp_path)
    record = json.loads(lines[0])
    record[key] = value
    lines[0] = json.dumps(record)
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(lines) + "\n")
    assert main([command, "--from-sessions", str(path), "--repeats", "1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("input error:") and f"line 1: {key}: expected" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "key", ["history", "transaction_vector", "time_vector", "date_vector", "hits_vector"]
)
@pytest.mark.parametrize("page", [-3, "catalog_size", 999])
def test_dump_page_outside_the_catalog_is_exit_3(key, page, corpus, tmp_path, capsys):
    lines = _dump_lines(corpus, tmp_path)
    record = json.loads(lines[1])
    if page == "catalog_size":
        page = record["catalog_size"]
    if key == "history":
        record[key].append(page)
    else:
        record[key][str(page)] = 1
    lines[1] = json.dumps(record)
    assert _cluster_dump(tmp_path, lines) == 3
    err = capsys.readouterr().err
    assert err.startswith("input error:") and f"line 2: {key}: page {page} outside" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("key", ["transaction_vector", "time_vector", "hits_vector"])
def test_dump_vector_naming_a_page_twice_is_exit_3(key, corpus, tmp_path, capsys):
    lines = _dump_lines(corpus, tmp_path)
    record = json.loads(lines[1])
    page = next(iter(record[key]))
    record[key]["0" + page] = 7
    lines[1] = json.dumps(record)
    assert _cluster_dump(tmp_path, lines) == 3
    err = capsys.readouterr().err
    assert err.startswith("input error:") and f"line 2: {key}: page {page} named twice" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("key", ["time_vector", "catalog_size"])
def test_dump_object_naming_a_key_twice_is_exit_3(key, corpus, tmp_path, capsys):
    lines = _dump_lines(corpus, tmp_path)
    record = json.loads(lines[1])
    # the first of the two keys is the one json would drop
    name = next(iter(record[key])) if key.endswith("_vector") else key
    owner = f'"{key}":{{' if key.endswith("_vector") else "{"
    assert owner in lines[1]
    lines[1] = lines[1].replace(owner, f'{owner}"{name}":1,', 1)
    assert _cluster_dump(tmp_path, lines) == 3
    err = capsys.readouterr().err
    assert err.startswith("input error:") and err.endswith(f"line 2: key '{name}' named twice\n")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("command", ["cluster"])
@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_dump_non_finite_value_is_exit_3(command, value, corpus, tmp_path, capsys):
    lines = _dump_lines(corpus, tmp_path)
    record = json.loads(lines[1])
    page = next(iter(record["time_vector"]))
    record["time_vector"][page] = "VALUE"
    lines[1] = json.dumps(record).replace('"VALUE"', value)
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(lines) + "\n")
    assert main([command, "--from-sessions", str(path), "--repeats", "1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("input error:") and f"line 2: not JSON ({value} is not a finite" in err
    assert len(err.splitlines()) == 1


# Every CLI path ends in exit 0, 2 or 3 with at most one line of diagnosis,
# never a traceback: corrupted logs in each format, corrupted session dumps
# and flag values out of range, all small enough to run in a few seconds.

_INGEST_FLAGS = {
    "--timeout": ["0", "-1", "1", "1800"],
    "--exclude-ext": ["", "html", "CSS,js"],
    "--accept-status": ["", "abc", "2xx", "5xx,999"],
}
_CLUSTER_FLAGS = {
    "--similarity": ["cosine", "jaccard", "blend"],
    "--blend-weights": ["1,1,1", "0.5,0.5", "x,y,z", "-1,1,1", "0.2,0.5,0.3"],
    "--iter-multiplier": ["0", "-3", "1", "2"],
    "--init-meetings": ["0", "-1", "1", "5"],
    "--min-nest-fraction": ["-0.5", "1.0", "1.5", "nan", "0.0", "0.3"],
    "--repeats": ["0", "-1", "1", "2"],
    "--seed": ["-1", "0", "7"],
}
_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 60), st.floats(allow_nan=False),
    st.text(max_size=3), st.lists(st.integers(-1, 60), max_size=3),
    st.dictionaries(st.sampled_from(["0", "1", "x", "-1"]), st.integers(0, 9), max_size=2),
)


def _flags(data, table: dict) -> list[str]:
    if not data.draw(st.booleans()):
        return []
    chosen = data.draw(st.lists(st.sampled_from(sorted(table)), max_size=2, unique=True))
    # flag=value, so that argparse takes "-1,1,1" as a value, not as a flag
    return [f"{flag}={data.draw(st.sampled_from(table[flag]))}" for flag in chosen]


def _corrupt(data, lines: list[str]) -> list[str]:
    """Cut ``lines`` short and splice random text into a few of them."""
    lines = lines[: data.draw(st.integers(0, len(lines)))]
    if lines:
        edits = st.tuples(st.integers(0, len(lines) - 1), st.integers(0, 120),
                          st.integers(0, 8), st.text(max_size=4))
        for index, at, cut, text in data.draw(st.lists(edits, max_size=3)):
            lines[index] = lines[index][:at] + text + lines[index][at + cut:]
    return lines


def _retype(data, line: str) -> str:
    """A dump line with one value, or one vector entry, of a random JSON type."""
    record = json.loads(line)
    key = data.draw(st.sampled_from(sorted(record)))
    value = data.draw(_JSON_VALUES)
    if key.endswith("_vector") and data.draw(st.booleans()):
        record[key][next(iter(record[key]))] = value
    else:
        record[key] = value
    return json.dumps(record)


def test_every_cli_path_exits_0_2_or_3(tmp_path, capsys):
    clf = tmp_path / "base.log"
    assert main(["synth", "--transactions", "120", "--seed", "3", "--out", str(clf)]) == 0
    clf_lines = clf.read_text().splitlines()
    logs = {
        "clf": clf_lines,
        "combined": [f'{line} "-" "UA"' for line in clf_lines],
        "csv": [f"{r.client_id},{r.timestamp},{r.resource}" for r in parse_log(clf_lines).records],
    }
    dump = tmp_path / "base.jsonl"
    assert main(["sessionize", "--input", str(clf), "--out", str(dump)]) == 0
    dump_lines = dump.read_text().splitlines()
    log, sessions, out = tmp_path / "log", tmp_path / "sessions.jsonl", tmp_path / "out"

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def check(data):
        capsys.readouterr()  # drop what the set-up or a failed example wrote
        command = data.draw(st.sampled_from(["run", "sessionize", "cluster"]))
        if command in ("run", "sessionize"):
            fmt = data.draw(st.sampled_from(sorted(logs)))
            log.write_text("\n".join(_corrupt(data, logs[fmt])) + "\n")
            argv = [command, "--input", str(log), "--format", fmt, *_flags(data, _INGEST_FLAGS)]
        else:
            lines = _corrupt(data, dump_lines)
            if lines and data.draw(st.booleans()):
                index = data.draw(st.integers(0, len(lines) - 1))
                lines[index] = _retype(data, dump_lines[index])
            sessions.write_text("\n".join(lines) + "\n")
            argv = [command, "--from-sessions", str(sessions)]
        if command != "sessionize":
            argv += ["--repeats", "1", *_flags(data, _CLUSTER_FLAGS)]
        assert main([*argv, "--out", str(out)]) in (0, 2, 3)
        err = capsys.readouterr().err.splitlines()
        # one diagnosis line; a run over malformed lines may warn before it
        diagnosis = [line for line in err if not line.startswith("warning: skipped")]
        assert len(diagnosis) <= 1 and len(err) - len(diagnosis) <= 1

    check()
