"""Input handling of scripts/success_rate.py: every bad value exits 2 with a
message, never a traceback, and an explicit --s-size is the size used."""

import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import cyclogab

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "success_rate.py"
_spec = importlib.util.spec_from_file_location("success_rate", SCRIPT)
success_rate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(success_rate)

P63 = json.dumps({"n": 6, "k": 3, "zeros": [[1, 2], [3, 4], [5, 6]]})


@pytest.mark.parametrize("argv, message", [
    (["--s-size", "0"], "argument --s-size: must be >= 1, got 0"),
    (["--trials", "0"], "argument --trials: must be >= 1, got 0"),
    (["--trials", "-2"], "argument --trials: must be >= 1, got -2"),
    (["--jobs", "0"], "argument --jobs: must be >= 1, got 0"),
])
def test_bad_counts_refused_at_parse_time(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        success_rate.main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["--epsilon", "7"], "error: epsilon must be in (0, 1], got 7"),
    (["--zeros", "missing.json"], "error: [Errno 2]"),
    # refused before the k empty rows are built, with the CLI's message
    (["--k", "10000000"], "error: row count 10000000 exceeds the input bound MAX_ROWS = 24\n"),
    (["--zeros", "deep.json"], "error: deep.json: JSON nested too deeply\n"),
    # the CLI's input rules, read through cli._run_inputs and the library calls
    (["--zeros", "p63.json", "--k", "5"], "error: --k 5 does not match the pattern file (k=3)\n"),
    (["--zeros", "p63.json", "--n", "9"], "error: --n 9 does not match the pattern file (n=6)\n"),
    (["--prime", "7", "--n", "8"], "error: need n <= 6 for p=7, got n=8\n"),
    (["--prime", "12"], "error: conductor must be an odd prime, got 12\n"),
    (["--zeros", "bad-n.json"], "error: bad-n.json: field 'n' must be an integer, got 'x'\n"),
    # refused by the completion, once, before any draw
    (["--zeros", "infeasible.json", "--prime", "5"],
     "error: pattern must satisfy the support condition before completion\n"),
])
def test_bad_inputs_exit_2_with_a_message(capsys, tmp_path, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "deep.json").write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
    (tmp_path / "p63.json").write_text(P63, encoding="utf-8")
    (tmp_path / "bad-n.json").write_text('{"n": "x", "k": 2, "zeros": []}', encoding="utf-8")
    (tmp_path / "infeasible.json").write_text('{"n": 4, "k": 2, "zeros": [[1, 2], [1, 2]]}',
                                              encoding="utf-8")
    start = time.perf_counter()
    assert success_rate.main(argv) == 2
    assert time.perf_counter() - start < 1  # refused at once, before any draw
    assert capsys.readouterr().err.startswith(message)


def test_explicit_sample_size_is_used(capsys):
    # s = 5 against a bound of 12/5: every failure is within it
    assert success_rate.main(["--s-size", "5", "--trials", "3"]) == 0
    out = capsys.readouterr().out
    assert "sample set size    5\n" in out
    assert "trials             3 (seeds 0..2)" in out


def test_single_draws_stay_random(capsys):
    # the seeded random draws alone: construct's fixed points of attempt 0
    # would succeed in all 60 trials here
    assert success_rate.main(["--prime", "13", "--n", "12", "--k", "6", "--s-size", "2",
                              "--trials", "60"]) == 0
    out = capsys.readouterr().out
    assert "trials             60 (seeds 0..59)\n" in out
    assert "failures           9\n" in out


def test_pattern_file_run_in_two_worker_processes(tmp_path):
    # a child process: the workers import the script by its module name
    (tmp_path / "p63.json").write_text(P63, encoding="utf-8")
    argv = ["--zeros", "p63.json", "--s-size", "500", "--trials", "4", "--jobs", "2"]
    env = {**os.environ, "PYTHONPATH": str(Path(cyclogab.__file__).parents[1])}
    run = subprocess.run([sys.executable, str(SCRIPT), *argv], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("pattern            n=6 k=3 zeros=[[1, 2], [3, 4], [5, 6]]\n")
    assert "trials             4 (seeds 0..3)" in run.stdout
