from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from antsess.cli import main
from antsess.logs import parse_log
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
    for argv, message in [
        (["run", "--bogus-flag"], "unrecognized arguments: --bogus-flag"),
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
    ],
)
def test_config_error_is_exit_2_before_input_is_read(flags, message, capsys):
    assert main(["run", "--input", "/nonexistent/log.txt", *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and message in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "flags",
    [
        ["--timeout", "5"],
        ["--format", "csv"],
        ["--exclude-ext", "html"],
        ["--accept-status", "2xx"],
        ["--dump-records", "records.jsonl"],
    ],
)
def test_ingest_flag_with_from_sessions_is_exit_2(flags, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--from-sessions", "missing.jsonl", *flags]) == 2
    err = capsys.readouterr().err
    assert err == (
        f"configuration error: {flags[0]} does not apply to --from-sessions"
        " (already sessionized)\n"
    )
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--input", "log.txt", "--threads", "2"],
        ["cluster", "--from-sessions", "s.jsonl", "--threads", "1"],
        ["sessionize", "--input", "log.txt", "--seed", "1"],
        ["sessionize", "--input", "log.txt", "--dump-sessions", "s.jsonl"],
    ],
)
def test_removed_flags_are_unknown(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_synth_infeasible_volume_is_exit_2(tmp_path, capsys):
    code = main(
        ["synth", "--transactions", "1", "--asset-ratio", "0.99",
         "--out", str(tmp_path / "log.txt")]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err == "configuration error: asset_ratio leaves no page transactions\n"
    assert not (tmp_path / "log.txt").exists()


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


@pytest.mark.parametrize("command", ["cluster", "run"])
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
        command = data.draw(st.sampled_from(["run", "sessionize", "cluster", "run-dump"]))
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
            argv = ["run" if command == "run-dump" else command, "--from-sessions", str(sessions)]
            if command == "run-dump":
                argv += _flags(data, {"--timeout": ["5"], "--format": ["csv"]})
        if command != "sessionize":
            argv += ["--repeats", "1", *_flags(data, _CLUSTER_FLAGS)]
        assert main([*argv, "--out", str(out)]) in (0, 2, 3)
        err = capsys.readouterr().err.splitlines()
        # one diagnosis line; a run over malformed lines may warn before it
        diagnosis = [line for line in err if not line.startswith("warning: skipped")]
        assert len(diagnosis) <= 1 and len(err) - len(diagnosis) <= 1

    check()
