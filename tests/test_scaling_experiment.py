from __future__ import annotations

import runpy
import sys
from pathlib import Path

import pytest

import antsess.synth

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "scaling_experiment.py"


@pytest.mark.parametrize("targets", [["5000"], ["5000", "5000"]])
def test_fewer_than_two_distinct_targets_is_exit_2_before_any_corpus(
    targets, monkeypatch, capsys
):
    def no_corpus(*args):
        raise AssertionError("a corpus was built")

    monkeypatch.setattr(antsess.synth, "generate", no_corpus)
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), "--targets", *targets])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPT), run_name="__main__")
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "configuration error: --targets needs at least two distinct values\n"
