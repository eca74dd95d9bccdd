from __future__ import annotations

import json

import pytest

from antsess.cli import main
from antsess.sessions import load_sessions_jsonl


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


def test_missing_input_is_exit_3(capsys):
    assert main(["run", "--input", "/nonexistent/log.txt"]) == 3
    assert "parse stage" in capsys.readouterr().err


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
    assert main(["run", "--seed", "1"]) == 2


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

    from_dump = tmp_path / "from_dump.csv"
    code = main(
        [
            "run", "--from-sessions", str(sessions_path), "--seed", "5", "--repeats", "1",
            "--dump-assignment", str(from_dump),
            "--report", "csv", "--omit-timings", "--out", str(tmp_path / "r2.csv"),
        ]
    )
    assert code == 0
    assert direct.read_bytes() == from_dump.read_bytes()

    # the dedicated cluster subcommand gives the same answer
    via_cluster = tmp_path / "via_cluster.csv"
    code = main(
        [
            "cluster", "--from-sessions", str(sessions_path), "--seed", "5",
            "--repeats", "1", "--dump-assignment", str(via_cluster),
            "--report", "csv", "--omit-timings", "--out", str(tmp_path / "r3.csv"),
        ]
    )
    assert code == 0
    assert direct.read_bytes() == via_cluster.read_bytes()


def test_sessionize_subcommand_dumps_loadable_sessions(corpus, tmp_path):
    log, truth = corpus
    out = tmp_path / "sessions.jsonl"
    code = main(["sessionize", "--input", str(log), "--out", str(out)])
    assert code == 0
    sessions = load_sessions_jsonl(out.read_text().splitlines())
    assert len(sessions) == json.loads(truth.read_text())["session_count"]


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


def test_unknown_arguments_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--bogus-flag"])
    assert exc.value.code == 2


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


def test_threads_flag_does_not_change_output(corpus, tmp_path):
    log, _ = corpus
    reports = []
    for threads in ("1", "4"):
        path = tmp_path / f"report_t{threads}.json"
        code = main(
            [
                "run", "--input", str(log), "--seed", "9", "--repeats", "1",
                "--threads", threads, "--report", "json", "--omit-timings",
                "--out", str(path),
            ]
        )
        assert code == 0
        reports.append(path.read_text())
    # threads is a cap, not a behaviour switch: identical artifacts
    a = json.loads(reports[0]); a["config"].pop("threads")
    b = json.loads(reports[1]); b["config"].pop("threads")
    assert a == b


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
