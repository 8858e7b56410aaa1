import contextlib
import gc
import io
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cyclogab
from cyclogab import ConstructionResult, ExactMatrix, cli, gmmds, supports
from cyclogab.cli import main
from helpers import rebuild_result


def write_spec(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


@pytest.fixture
def good_spec(tmp_path):
    return write_spec(tmp_path / "good.json", {"n": 4, "k": 2, "zeros": [[1], [2]]})


@pytest.fixture
def bad_spec(tmp_path):
    return write_spec(tmp_path / "bad.json", {"n": 4, "k": 2, "zeros": [[1, 2], [1, 2]]})


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_ok(capsys, good_spec):
    code, out, _ = run(capsys, ["check", "--zeros", good_spec])
    assert code == 0
    report = json.loads(out)
    assert report == {"condition": True, "ell": 2}


def test_check_violation(capsys, bad_spec):
    code, out, _ = run(capsys, ["check", "--zeros", bad_spec])
    assert code == 1
    report = json.loads(out)
    assert report["condition"] is False
    assert report["ell"] == 4
    assert report["witness_omega"] == [1, 2]


def _limit_memory():
    # 1 GiB of address space, so a run that needs more fails at once instead
    # of swapping: a table of 1 << j over the wide pattern's union would need
    # about 10 GB
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def _run_child(*argv):
    """The CLI in a child process, under a 20 s timeout and that memory limit."""
    env = {**os.environ, "PYTHONPATH": str(Path(cyclogab.__file__).parents[1])}
    return subprocess.run(
        [sys.executable, "-c", "from cyclogab.cli import main; raise SystemExit(main())", *argv],
        env=env, capture_output=True, text=True, timeout=20, preexec_fn=_limit_memory)


def test_check_wide_pattern_in_time(tmp_path):
    # three zero sets over a union of 399 999 columns: the column masks are
    # built in time and memory linear in the width
    path = write_spec(tmp_path / "wide.json", {"n": 400_000, "k": 3, "zeros": [
        list(range(1, 200_000)), list(range(100_000, 300_000)), list(range(200_000, 400_000))]})
    child = _run_child("check", "--zeros", path)
    assert child.returncode == 1, child.stderr
    assert json.loads(child.stdout) == {"condition": False, "ell": 200_001, "witness_omega": [1]}


@pytest.mark.parametrize("n, zeros", [
    # k = 6 on 10 of 1024 columns, and six disjoint 5-column zero sets (the
    # symbolic expansion took about 10 s and 0.8 GB on the second)
    (1024, [[3, 5, 8, 9, 10], [1, 4, 6, 9, 10], [1, 2, 5, 7, 10],
            [1, 2, 3, 6, 8], [2, 3, 4, 7, 9], [3, 4, 5, 8, 10]]),
    (30, [list(range(5 * i + 1, 5 * i + 6)) for i in range(6)]),
], ids=["k6wide", "six-disjoint"])
def test_oracle_k6_patterns_in_time(tmp_path, n, zeros):
    path = write_spec(tmp_path / "k6.json", {"n": n, "k": 6, "zeros": zeros})
    child = _run_child("oracle", "--zeros", path)
    assert child.returncode == 0, child.stderr
    report = json.loads(child.stdout)
    assert report["det_p_nonzero"] is True and len(report["witness_point"]) == n


def test_check_empty_pattern_from_flags(capsys):
    code, out, _ = run(capsys, ["check", "--n", "5", "--k", "3"])
    assert code == 0
    assert json.loads(out)["ell"] == 3


def test_check_malformed_json(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, ["check", "--zeros", str(path)])
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("obj", [
    {"n": 4, "k": 2, "zeros": 5},
    [[1], [2]],
    {"n": 6.5, "k": 2, "zeros": [[1], [2]]},
    {"n": 4, "k": True, "zeros": [[1], [2]]},
    {"n": 4, "k": 2, "zeros": [["1"], [2]]},
])
def test_check_malformed_pattern_types(capsys, tmp_path, obj):
    path = write_spec(tmp_path / "typed.json", obj)
    code, _, err = run(capsys, ["check", "--zeros", path])
    assert code == 2
    assert "error" in err


def _set(path, value):
    """Mutator that sets obj[path[0]][path[1]]... to value and returns obj."""
    def mutate(obj):
        inner = obj
        for key in path[:-1]:
            inner = inner[key]
        inner[path[-1]] = value
        return obj
    return mutate


@pytest.mark.parametrize("mutate", [
    lambda obj: [],
    _set(["transform"], 5),
    _set(["context", "p"], 11.9),
    _set(["context", "p"], 10 ** 18 + 9),
    _set(["s_size"], True),
    _set(["points", "coords", 0, 0], 1.0),
    _set(["completed_zeros"], [[1.0], [2]]),
    _set(["transform", "rows"], "2"),
    _set(["transform", "entries", 0], ["1/0"] * 6),
    _set(["generator", "entries", 0], [1] * 6),
])
def test_certify_malformed_result_types(capsys, good_spec, tmp_path, mutate):
    out_dir = tmp_path / "run"
    run(capsys, ["construct", "--prime", "7", "--zeros", good_spec,
                 "--s-size", "200", "--seed", "1", "--out", str(out_dir)])
    obj = mutate(json.loads((out_dir / "result.json").read_text()))
    code, _, err = run(capsys, ["certify", write_spec(tmp_path / "typed.json", obj)])
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("path", [
    ["context"], ["spec"], ["completed_zeros"], ["points"], ["transform"], ["moore"],
    ["generator"], ["transform", "entries"], ["moore", "entries"], ["generator", "entries"],
])
def test_certify_names_missing_field(capsys, good_spec, tmp_path, path):
    def drop(obj):
        inner = obj
        for key in path[:-1]:
            inner = inner[key]
        del inner[path[-1]]
        return obj
    edited = _edited_result(capsys, good_spec, tmp_path, drop)
    code, out, err = run(capsys, ["certify", edited])
    assert code == 2 and out == ""
    assert err == f"error: {edited}: missing field {path[-1]!r}\n"


@pytest.mark.parametrize("mutate, reason", [
    (_set(["s_size"], 7), "sample set size"),
    (_set(["points", "sample_set_size"], 300), "sample set size"),
    (_set(["retries"], 65), "retries must lie in"),
    (_set(["retries"], -1), "retries must lie in"),
    (_set(["max_retries"], -1), "retries must lie in"),
    (_set(["seed"], 2), "points drawn with seed"),
    (_set(["points", "seed"], 5), "points drawn with seed"),
    (lambda obj: {**obj, "s_size": 7, "retries": 50, "max_retries": 3}, "sample set size"),
])
def test_certify_inconsistent_bookkeeping(capsys, good_spec, tmp_path, mutate, reason):
    # a result records attempt a's points with draw seed seed + a at the
    # stored sample set size (attempt 0: the fixed points), so a result whose
    # counters disagree with its points is refused on load
    out_dir = tmp_path / "run"
    run(capsys, ["construct", "--prime", "7", "--zeros", good_spec,
                 "--s-size", "200", "--seed", "1", "--out", str(out_dir)])
    obj = mutate(json.loads((out_dir / "result.json").read_text()))
    code, out, err = run(capsys, ["certify", write_spec(tmp_path / "edited.json", obj)])
    assert code == 2
    assert out == ""
    assert reason in err and "Traceback" not in err


def _edited_result(capsys, good_spec, tmp_path, mutate):
    out_dir = tmp_path / "run"
    run(capsys, ["construct", "--prime", "7", "--zeros", good_spec,
                 "--s-size", "200", "--seed", "1", "--out", str(out_dir)])
    obj = mutate(json.loads((out_dir / "result.json").read_text()))
    return write_spec(tmp_path / "edited.json", obj)


@pytest.mark.parametrize("mutate, reason", [
    (_set(["points", "coords", 1], [1] * 5), "expected 6 coefficients, got 5"),
    # 3.0 == 3 in Python: the stored shape is checked as an integer, not by value
    (_set(["moore", "rows"], 3.0), "field 'rows' must be an integer, got 3.0"),
    (_set(["generator", "cols"], 4.0), "field 'cols' must be an integer, got 4.0"),
    (lambda obj: _set(["points", "coords"], obj["points"]["coords"][:-1])(obj),
     "inconsistent shapes in construction result"),
    (_set(["completed_zeros"], [[], []]),
     "completed pattern must extend the input to k-1 zeros per row"),
    (_set(["points"], 5),
     "points must be a JSON object with keys coords, sample_set_size and seed"),
    (_set(["points", "coords", 0, 0], "3"), "point coords must be a list of lists of integers"),
    (_set(["points", "coords", 0, 0], 200), "point coordinates must be integers in [0, s_size)"),
    (_set(["transform", "entries"], 5), "matrix entries must be a list"),
    (_set(["context"], 5), "a context must be a JSON object with key p"),
])
def test_certify_refuses_malformed_stored_fields(capsys, good_spec, tmp_path, mutate, reason):
    path = _edited_result(capsys, good_spec, tmp_path, mutate)
    code, out, err = run(capsys, ["certify", path])
    assert code == 2 and out == ""
    assert reason in err and "Traceback" not in err


@pytest.mark.parametrize("matrix", ["moore", "generator"])
def test_certify_accepts_equal_value_spelled_otherwise(capsys, good_spec, tmp_path, matrix):
    def respell(obj):
        entry = obj[matrix]["entries"][0]
        num = int(entry[0].split("/")[0])
        entry[0] = f"{2 * num}/2"  # not canonical, but the same value
        return obj
    code, out, _ = run(capsys, ["certify", _edited_result(capsys, good_spec, tmp_path, respell)])
    assert code == 0 and json.loads(out)["passed"]
    # the digest is taken over the derived generator's strings, never the stored ones
    _, canonical, _ = run(capsys, ["certify", _edited_result(capsys, good_spec, tmp_path,
                                                             lambda obj: obj)])
    assert out == canonical


@pytest.mark.parametrize("argv", [
    ["construct", "--prime", "11", "--n", "6", "--k", "3", "--epsilon", "1e-20000"],
    ["construct", "--prime", "11", "--n", "6", "--k", "3", "--epsilon", "1e-5000",
     "--no-check-minors"],
    ["subcode", "--prime", "11", "--n", "6", "--k", "3", "--epsilon", "1e-2000"],
    ["construct", "--prime", "11", "--n", "6", "--k", "3", "--s-size", str(2 ** 256 + 1)],
    ["bound", "--n", "6", "--k", "3", "--epsilon", "1e-5000"],
    ["bound", "--n", "6", "--k", "3", "--epsilon", "1e-10000000"],
    ["construct", "--prime", "11", "--n", "6", "--k", "3", "--epsilon", "1e-10000000"],
])
def test_oversized_sample_set_refused(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert "exceeds MAX_SAMPLE_SIZE = 2^256" in err and "Traceback" not in err
    assert time.perf_counter() - start < 5  # refused before any draw


def test_largest_sample_set_accepted(capsys):
    code, out, _ = run(capsys, ["construct", "--prime", "7", "--n", "4", "--k", "2",
                                "--s-size", str(2 ** 256), "--seed", "3"])
    assert code == 0 and json.loads(out)["passed"]


def test_construct_rejects_huge_prime(capsys):
    code, _, err = run(capsys, ["construct", "--prime", "1000000000000000009", "--n", "4",
                                "--k", "2", "--s-size", "10"])
    assert code == 2
    assert "MAX_CONDUCTOR" in err


def test_construct_rejects_negative_retries(capsys, good_spec):
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--prime", "7", "--zeros", good_spec, "--s-size", "100",
              "--max-retries", "-1"])
    assert exc.value.code == 2
    assert "--max-retries" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["randomized"])
def test_oracle_rejects_large_n(capsys, tmp_path, mode):
    path = write_spec(tmp_path / "wide.json", {"n": 20_000_000, "k": 1, "zeros": [[]]})
    code, out, err = run(capsys, ["oracle", "--mode", mode, "--zeros", path])
    assert code == 2
    assert out == ""
    assert "MAX_ORACLE_N" in err
    code, _, _ = run(capsys, ["check", "--zeros", path])
    assert code == 0


@pytest.mark.parametrize("argv, reason", [
    (["check", "--n", "1000000000", "--k", "1000000000"], "MAX_ROWS"),
    (["oracle", "--sweep", "--n", "10000000", "--k", "2"], "MAX_ORACLE_N"),
    # one family of one (k-1)-subset passes the family guard, so n is
    # bounded first: the sweep would otherwise build all n columns
    (["oracle", "--sweep", "--n", "2000", "--k", "2001"], "MAX_ORACLE_N"),
    (["oracle", "--sweep", "--n", "8", "--k", "4"],
     "sweep of 9834496 families is above the guard"),
])
def test_huge_flag_sizes_refused(capsys, argv, reason):
    code, _, err = run(capsys, argv)
    assert code == 2
    assert reason in err


@pytest.mark.parametrize("with_file, flags, reason", [
    (True, ["--k", "4"], "--k 4 does not match the pattern file (k=3)"),
    (False, ["--n", "5"], "provide --zeros FILE, or both --n and --k for an empty pattern"),
])
def test_check_refuses_conflicting_or_missing_shape(capsys, tmp_path, with_file, flags, reason):
    path = write_spec(tmp_path / "k3.json", {"n": 6, "k": 3, "zeros": [[1], [2], [3]]})
    zeros = ["--zeros", path] if with_file else []
    code, out, err = run(capsys, ["check"] + zeros + flags)
    assert code == 2 and out == ""
    assert err == f"error: {reason}\n"


def test_oracle_sweep_refuses_a_pattern_file(capsys, tmp_path):
    # the sweep enumerates every family of --n/--k, so a pattern file would
    # be silently ignored
    path = write_spec(tmp_path / "p.json", {"n": 6, "k": 3, "zeros": [[1, 2], [3, 4], [5, 6]]})
    code, out, err = run(capsys, ["oracle", "--sweep", "--zeros", path])
    assert code == 2 and out == ""
    assert err == "error: --sweep takes no --zeros FILE: it enumerates every pattern of --n/--k\n"


def test_check_missing_file(capsys):
    code, _, err = run(capsys, ["check", "--zeros", "/nonexistent/zeros.json"])
    assert code == 2
    assert "error" in err


def test_bound(capsys):
    code, out, _ = run(capsys, ["bound", "--n", "6", "--k", "3", "--epsilon", "0.01"])
    assert code == 0
    assert json.loads(out)["s_size"] == 1200


def test_bound_rejects_bad_epsilon(capsys):
    for epsilon, reason in [("7", "epsilon must be in (0, 1]"),
                            ("1e+10000000", "epsilon must be in (0, 1]"),
                            ("0e-10000000", "epsilon must be in (0, 1]"),
                            ("1e-99999999999999999999", "decimal exponent out of range"),
                            ("1/0", "zero denominator")]:
        start = time.perf_counter()
        code, out, err = run(capsys, ["bound", "--n", "6", "--k", "3", "--epsilon", epsilon])
        assert code == 2 and out == ""
        assert reason in err and "Traceback" not in err
        assert time.perf_counter() - start < 1  # decided before any 10^e is built


@pytest.mark.parametrize("n, k", [("-5", "2"), ("3", "0"), ("3", "4")])
def test_bound_rejects_bad_shape(capsys, n, k):
    code, out, err = run(capsys, ["bound", "--n", n, "--k", k, "--epsilon", "0.01"])
    assert code == 2 and out == ""
    assert err == f"error: need 1 <= k <= n, got k={k}, n={n}\n"


@pytest.mark.parametrize("command", [
    ["check", "--zeros"], ["certify"], ["oracle", "--zeros"],
    ["subcode", "--prime", "5", "--epsilon", "0.01", "--zeros"]])
def test_deeply_nested_json_refused(capsys, tmp_path, command):
    # the JSON decoder recurses per level and would raise RecursionError
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
    code, out, err = run(capsys, command + [str(path)])
    assert code == 2 and out == ""
    assert err == f"error: {path}: JSON nested too deeply\n"


PATTERN_COMMANDS = {
    "check": ["check", "--zeros"], "oracle": ["oracle", "--zeros"],
    "construct": ["construct", "--prime", "5", "--epsilon", "0.01", "--zeros"],
    "subcode": ["subcode", "--prime", "5", "--epsilon", "0.01", "--zeros"]}
UNDECODABLE = {
    "truncated": (b'{"n": 4,\n',
                  "Expecting property name enclosed in double quotes: line 2 column 1"),
    "not-utf8": (b"\xff{}", "'utf-8' codec can't decode byte 0xff")}
MALFORMED_PATTERN = {
    "n-not-int": (b'{"n": "x", "k": 2, "zeros": []}', "field 'n' must be an integer, got 'x'"),
    "not-object": (b"[1]", "a pattern must be a JSON object with keys n, k and zeros"),
    "column-out-of-range": (b'{"n": 4, "k": 2, "zeros": [[5], []]}',
                            "row 1 has columns outside [1, 4]")}


@pytest.mark.parametrize("command, content, reason", [
    pytest.param(command, content, reason, id=f"{name}-{case}")
    for name, command in {**PATTERN_COMMANDS, "certify": ["certify"]}.items()
    for case, (content, reason) in UNDECODABLE.items()] + [
    pytest.param(command, content, reason, id=f"{name}-{case}")
    for name, command in PATTERN_COMMANDS.items()
    for case, (content, reason) in MALFORMED_PATTERN.items()])
def test_malformed_json_names_the_file(capsys, tmp_path, command, content, reason):
    # neither the decoder's message nor a field's says which input file is broken
    path = tmp_path / "broken.json"
    path.write_bytes(content)
    code, out, err = run(capsys, command + [str(path)])
    assert code == 2 and out == ""
    assert err.startswith(f"error: {path}: {reason}")


def test_repeated_calls_leave_nothing_behind(capsys, good_spec, tmp_path):
    # json's indent encoder leaves reference cycles on every call; the
    # ordinary collector frees them, so in-process calls hold no memory
    out = tmp_path / "run"
    calls = [
        ["check", "--n", "5", "--k", "3"],
        ["construct", "--prime", "7", "--zeros", good_spec, "--s-size", "200",
         "--out", str(out)],
        ["certify", str(out / "result.json")],
        ["oracle", "--zeros", good_spec, "--mode", "randomized"],
    ]

    def round_():
        assert [main(argv) for argv in calls] == [0, 0, 0, 0]
        capsys.readouterr()

    round_()  # warm up the caches every call shares
    gc.collect()
    before = len(gc.get_objects())
    for _ in range(100):
        round_()
    gc.collect()
    assert len(gc.get_objects()) <= before


def test_cached_parser_keeps_no_state_between_calls(capsys, good_spec, tmp_path):
    # one parser serves every call in the process; a usage error between
    # calls, and flags given to one call only, must not reach the next call
    def call(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def out(name):
        return ["--out", str(tmp_path / name)]

    construct = ["construct", "--prime", "7", "--zeros", good_spec]
    calls = [
        construct + ["--s-size", "300", "--seed", "5", "--max-retries", "3",
                     "--no-check-minors"] + out("a"),
        construct + ["--epsilon", "0.01", "--s-size", "10"],  # usage error
        construct + ["--epsilon", "0.01"] + out("b"),
        ["check", "--zeros", good_spec],
        ["bound", "--n", "4", "--k", "2"],  # usage error: --epsilon missing
        ["check", "--n", "4", "--k", "2"],
        ["certify", str(tmp_path / "a" / "result.json")] + out("c"),
        ["oracle", "--zeros", good_spec, "--mode", "randomized"],
    ]
    parser = cli._build_parser()
    shared = [call(argv) for argv in calls]
    assert cli._build_parser() is parser
    assert [code for code, _, _ in shared] == [0, 2, 0, 0, 2, 0, 0, 0]
    files = {name: (tmp_path / name / "result.json").read_bytes() for name in "ab"}
    result_b = json.loads(files["b"])
    assert (result_b["seed"], result_b["max_retries"]) == (0, 64)  # the defaults again
    for argv, seen in zip(calls, shared):
        cli._build_parser.cache_clear()  # a fresh parser for this call alone
        assert call(argv) == seen
    for name, data in files.items():
        assert (tmp_path / name / "result.json").read_bytes() == data


def test_construct_writes_files(capsys, good_spec, tmp_path):
    out_dir = tmp_path / "run"
    code, out, _ = run(capsys, ["construct", "--prime", "7", "--zeros", good_spec,
                                "--s-size", "200", "--seed", "1", "--out", str(out_dir)])
    assert code == 0
    cert = json.loads(out)
    assert cert["passed"] is True and cert["claimed_rank_distance"] == 3
    result = ConstructionResult.from_obj(
        json.loads((out_dir / "result.json").read_text()))
    assert result.spec.n == 4 and result.seed == 1
    assert json.loads((out_dir / "certificate.json").read_text()) == cert


json_text = st.one_of(st.text(max_size=6),
                      st.sampled_from(["", '"', "\\", "\x00", "\x1f", "\x7f", "\u2028", "é",
                                       "\U0001f600", '"a\\b"\n']))
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.integers(-10 ** 300, 10 ** 300),
              json_text),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(json_text, max_size=4),
                            st.dictionaries(json_text, inner, max_size=4)),
    max_leaves=24)


@given(json_values)
@settings(max_examples=300)
def test_dump_is_json_dumps(value):
    # every emitted file and printed report has the stdlib's indented bytes
    assert cli._dump(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("value", [1.5, (1, 2), {"a": [1, (2,)]}, {1: "a"}, [{"a": {1}}], b"x",
                                   Fraction(1, 2)])
def test_dump_refuses_other_types(value):
    with pytest.raises(TypeError):
        cli._dump(value)


def test_emitted_file_key_sets(capsys, good_spec, tmp_path):
    out_dir = tmp_path / "run"
    run(capsys, ["construct", "--prime", "7", "--zeros", good_spec,
                 "--s-size", "200", "--seed", "1", "--out", str(out_dir)])
    result = json.loads((out_dir / "result.json").read_text())
    assert set(result) == {"context", "spec", "completed_zeros", "s_size", "seed",
                           "max_retries", "retries", "points", "moore", "transform",
                           "generator", "epsilon"}
    assert set(result["points"]) == {"coords", "sample_set_size", "seed"}
    assert set(result["moore"]) == {"rows", "cols", "entries"}
    cert = json.loads((out_dir / "certificate.json").read_text())
    assert set(cert) == {"support_ok", "t_invertible", "points_independent",
                         "hamming_distance", "claimed_rank_distance",
                         "rank_distance_basis", "ell", "checked_minors",
                         "spec_sha256", "matrix_sha256", "passed"}


def test_certify_rejects_tampered_result(capsys, good_spec, tmp_path):
    out_dir = tmp_path / "run"
    run(capsys, ["construct", "--prime", "7", "--zeros", good_spec,
                 "--s-size", "200", "--seed", "1", "--out", str(out_dir)])
    obj = json.loads((out_dir / "result.json").read_text())
    # swap one generator entry for an unconstrained one: breaks G = T @ A
    obj["generator"]["entries"][1] = obj["generator"]["entries"][2]
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(obj), encoding="utf-8")
    code, _, err = run(capsys, ["certify", str(tampered)])
    assert code == 2
    assert "transform @ moore" in err


def test_certify_integers_spelled_otherwise(capsys, tmp_path):
    # integers spelled "n" or "n/d" in ways to_strings never writes (leading
    # zeros, "-0", no denominator, d dividing n, a negative d) load to the
    # same values, so the stored result certifies as the built one did
    out_dir = tmp_path / "run"
    code, _, _ = run(capsys, ["construct", "--prime", "13", "--n", "7", "--k", "3",
                              "--epsilon", "0.01", "--seed", "5", "--out", str(out_dir)])
    assert code == 0
    obj = json.loads((out_dir / "result.json").read_text())
    spellings = [lambda v: f"0{v}/1" if v > 0 else f"-0{-v}/1" if v else "-0/1",
                 lambda v: f"{v}", lambda v: f"{v}/01", lambda v: f"{6 * v}/6",
                 lambda v: f"{-v}/-1"]
    for name in ("moore", "transform", "generator"):
        obj[name]["entries"] = [[spellings[i % 5](int(s[:-2])) for i, s in enumerate(entry)]
                                for entry in obj[name]["entries"]]
    assert obj["transform"]["entries"][0][0] != json.loads(
        (out_dir / "result.json").read_text())["transform"]["entries"][0][0]
    path = tmp_path / "respelled.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    code, out, _ = run(capsys, ["certify", str(path)])
    assert code == 0
    assert out == (out_dir / "certificate.json").read_text()


def stored_with_transform(capsys, tmp_path, edit):
    """Build (13, 7, 3) at seed 5 under tmp_path/run, and store the result
    again with its transform rows passed through ``edit`` (G is derived from
    them on load); returns the new file and the build's certificate text."""
    out_dir = tmp_path / "run"
    code, _, _ = run(capsys, ["construct", "--prime", "13", "--n", "7", "--k", "3",
                              "--epsilon", "0.01", "--seed", "5", "--out", str(out_dir)])
    assert code == 0
    obj = json.loads((out_dir / "result.json").read_text())
    result = ConstructionResult.from_obj(obj)
    rows = edit(result.moore.ctx, result.transform.row_lists())
    edited = rebuild_result(result, transform=ExactMatrix.from_rows(result.moore.ctx, rows))
    path = tmp_path / "edited.json"
    path.write_text(json.dumps({**edited.to_obj(), "epsilon": obj["epsilon"]}), encoding="utf-8")
    return str(path), (out_dir / "certificate.json").read_text()


def test_certify_singular_transform_fails(capsys, tmp_path):
    # a stored result whose transform has two equal rows loads but fails its
    # certificate
    def repeat_row_0(ctx, rows):
        return [rows[0], rows[0], *rows[2:]]

    path, _ = stored_with_transform(capsys, tmp_path, repeat_row_0)
    code, out, _ = run(capsys, ["certify", path])
    assert code == 1
    assert '"t_invertible": false' in out
    assert json.loads(out)["passed"] is False


def stored_with_string(capsys, tmp_path, name, text):
    """The (13, 7, 3) result of ``stored_with_transform`` with the first
    coefficient string of matrix ``name`` replaced by ``text``."""
    path, _ = stored_with_transform(capsys, tmp_path, lambda ctx, rows: rows)
    obj = json.loads(Path(path).read_text())
    obj[name]["entries"][0][0] = text
    Path(path).write_text(json.dumps(obj), encoding="utf-8")
    return path


@pytest.mark.parametrize("name", ["transform", "moore", "generator"])
@pytest.mark.parametrize("text", ["1e100000000", "1/q", "7/2", "+3/1", "1/0"])
def test_certify_refuses_a_coefficient_that_is_not_an_integer(capsys, tmp_path, name, text):
    # a stored coefficient is "n" or "n/d" with d dividing n, nothing else:
    # an exponent is refused at once rather than expanded, and a value
    # outside Z[zeta] (1/q, 7/2) is refused, with the file and matrix named
    if text == "1/q":
        text = f"1/{cyclogab.GaloisContext(13).modulus}"
    path = stored_with_string(capsys, tmp_path, name, text)
    start = time.perf_counter()
    code, out, err = run(capsys, ["certify", path])
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert f"{path}: matrix '{name}': coefficient" in err
    assert "is not an integer n or n/d with d dividing n" in err


def test_construct_byte_identical_reruns(capsys, good_spec, tmp_path):
    args = ["construct", "--prime", "7", "--zeros", good_spec,
            "--epsilon", "0.05", "--seed", "3"]
    for label in ("a", "b"):
        code, _, _ = run(capsys, args + ["--out", str(tmp_path / label)])
        assert code == 0
    assert (tmp_path / "a" / "result.json").read_bytes() == \
        (tmp_path / "b" / "result.json").read_bytes()
    assert (tmp_path / "a" / "certificate.json").read_bytes() == \
        (tmp_path / "b" / "certificate.json").read_bytes()


def test_construct_refuses_violating_pattern(capsys, bad_spec):
    code, _, err = run(capsys, ["construct", "--prime", "7", "--zeros", bad_spec,
                                "--s-size", "100", "--seed", "0"])
    assert code == 1
    assert "subcode" in err


def test_construct_flag_validation(capsys, good_spec):
    code, _, err = run(capsys, ["construct", "--prime", "7", "--zeros", good_spec,
                                "--n", "5", "--s-size", "100"])
    assert code == 2
    assert "does not match" in err
    code, _, err = run(capsys, ["construct", "--prime", "5", "--n", "6", "--k", "2",
                                "--s-size", "100"])
    assert code == 2  # n > p - 1


def test_construct_epsilon_and_size_exclusive(capsys, good_spec):
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--prime", "7", "--zeros", good_spec,
              "--epsilon", "0.01", "--s-size", "10"])
    assert exc.value.code == 2


def test_certificate_file_is_the_printed_text(capsys, good_spec, bad_spec, tmp_path):
    runs = {
        "construct": ["construct", "--prime", "7", "--zeros", good_spec, "--s-size", "200",
                      "--seed", "1"],
        "subcode": ["subcode", "--prime", "5", "--zeros", bad_spec, "--s-size", "500",
                    "--seed", "3"],
        "certify": ["certify", str(tmp_path / "construct" / "result.json")],
    }
    for name, argv in runs.items():
        out_dir = tmp_path / name
        code, out, _ = run(capsys, argv + ["--out", str(out_dir)])
        assert code == 0
        assert (out_dir / "certificate.json").read_bytes() == out.encode("utf-8")


def test_certify_round_trips_stored_result(capsys, good_spec, tmp_path):
    out_dir = tmp_path / "run"
    run(capsys, ["construct", "--prime", "7", "--zeros", good_spec,
                 "--s-size", "200", "--seed", "1", "--out", str(out_dir)])
    code, out, _ = run(capsys, ["certify", str(out_dir / "result.json")])
    assert code == 0
    assert json.loads(out) == json.loads((out_dir / "certificate.json").read_text())


def test_subcode_end_to_end(capsys, bad_spec, tmp_path):
    out_dir = tmp_path / "sub"
    code, out, _ = run(capsys, ["subcode", "--prime", "5", "--zeros", bad_spec,
                                "--s-size", "500", "--seed", "3", "--out", str(out_dir)])
    assert code == 0
    cert = json.loads(out)
    assert cert["ell"] == 4 and cert["hamming_distance"] == 1 and cert["passed"] is True
    stored = json.loads((out_dir / "subcode.json").read_text())
    assert stored["certificate"] == cert
    padded = ConstructionResult.from_obj(stored["padded"])
    assert padded.spec.k == 4
    assert stored["generator_sub"] == padded.generator.submatrix(range(2), range(4)).to_obj()


@pytest.mark.parametrize("command, spec", [("construct", "good_spec"), ("subcode", "bad_spec")])
def test_construction_failure_exit(capsys, tmp_path, request, command, spec):
    # one sample value: every draw gives n equal points, so no draw succeeds
    out_dir = tmp_path / "run"
    code, out, err = run(capsys, [command, "--prime", "7", "--zeros", request.getfixturevalue(spec),
                                  "--s-size", "1", "--max-retries", "0", "--out", str(out_dir)])
    assert code == 1 and out == ""
    assert err.startswith("construction failed: ")
    assert not out_dir.exists()


@pytest.mark.parametrize("argv", [
    ["construct", "--prime", "7", "--n", "4", "--k", "2", "--s-size", "100"],
    ["subcode", "--prime", "7", "--n", "4", "--k", "2", "--s-size", "100"],
    ["certify", "result.json"],
])
def test_empty_out_refused(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", ""])
    assert exc.value.code == 2
    assert "--out: must name a directory" in capsys.readouterr().err


def test_oracle_default_mode_is_randomized(capsys, good_spec):
    # one decision route: the default and --mode randomized print the same
    code_d, out_d, _ = run(capsys, ["oracle", "--zeros", good_spec, "--seed", "5"])
    code_r, out_r, _ = run(capsys, ["oracle", "--zeros", good_spec,
                                    "--mode", "randomized", "--seed", "5"])
    assert code_d == code_r == 0 and out_d == out_r
    report = json.loads(out_r)
    assert report["condition"] is report["det_p_nonzero"] is True
    assert report["mode"] == "randomized" and report["witness_omega"] is None
    assert report["witness_point"] is not None


def test_oracle_refuses_mode_symbolic(capsys, good_spec):
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--zeros", good_spec, "--mode", "symbolic"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "invalid choice: 'symbolic'" in captured.err


@pytest.mark.parametrize("zeros, value, verdict, why", [
    # every point gives zero on a feasible pattern: undecided, not "zero"
    ([[1, 2], [1, 3], [2, 3]], False, None, "no point gave a nonzero value"),
    # a nonzero value at the cross-check point of a proved zero
    ([[1, 2], [1, 2], [3, 4]], True, True, "a proved verdict against the condition"),
], ids=["undecided", "contradiction"])
def test_oracle_disagreement_exits_1_with_a_line(capsys, monkeypatch, tmp_path,
                                                 zeros, value, verdict, why):
    monkeypatch.setattr(gmmds, "_det_nonzero_at", lambda _spec, _point: value)
    spec = write_spec(tmp_path / "p.json", {"n": 4, "k": 3, "zeros": zeros})
    code, out, err = run(capsys, ["oracle", "--zeros", spec])
    report = json.loads(out)
    assert code == 1
    assert report["det_p_nonzero"] is verdict and report["witness_omega"] is None
    assert report["condition"] is (verdict is None)
    assert err.count("\n") == 1 and err.startswith("oracle disagrees: condition ")
    assert f"det_p_nonzero {json.dumps(verdict)} ({why}" in err


def test_oracle_completes_underfull_pattern(capsys, tmp_path):
    spec = write_spec(tmp_path / "under.json", {"n": 4, "k": 3, "zeros": [[1], [], []]})
    code, out, err = run(capsys, ["oracle", "--zeros", spec])
    assert code == 0
    assert "completed" in err
    assert json.loads(out)["det_p_nonzero"] is True


def test_oracle_rejects_uncompletable_pattern(capsys, tmp_path):
    spec = write_spec(tmp_path / "stuck.json",
                      {"n": 4, "k": 3, "zeros": [[1, 2], [1, 2], []]})
    code, out, err = run(capsys, ["oracle", "--zeros", spec])
    # complete_sets refuses the infeasible pattern as its first step
    assert code == 2 and out == ""
    assert err == "error: pattern must satisfy the support condition before completion\n"


@pytest.mark.parametrize("argv, zeros, computations", [
    # the input pattern and its completion, each checked once however often
    # check_condition, complete_sets and oracle_report ask
    (["oracle", "--mode", "randomized"], [[1], [], [2]], 2),
    (["construct", "--prime", "7", "--s-size", "200"], [[1], [], [2]], 2),
    # the witness pass reuses the values that decided ell
    (["check"], [[1, 2], [1, 2], []], 1),
])
def test_one_group_value_computation_per_pattern(capsys, monkeypatch, tmp_path,
                                                 argv, zeros, computations):
    calls = []
    real = supports._top_values

    def counted(groups, k):
        calls.append(k)
        return real(groups, k)
    monkeypatch.setattr(supports, "_top_values", counted)
    spec = write_spec(tmp_path / "p.json", {"n": 5, "k": 3, "zeros": zeros})
    main(argv + ["--zeros", spec])
    capsys.readouterr()
    assert len(calls) == computations


def test_oracle_sweep(capsys):
    code, out, _ = run(capsys, ["oracle", "--sweep"])
    assert code == 0
    table = json.loads(out)
    assert table["families"] == table["agree"] == 216


@pytest.mark.parametrize("shape", [["--n", "0", "--k", "0"], ["--n", "3", "--k", "0"],
                                   ["--n", "-1", "--k", "2"]])
def test_oracle_sweep_rejects_bad_shape(capsys, shape):
    # an explicit 0 must not fall back to the default 4/3 sweep
    code, out, err = run(capsys, ["oracle", "--sweep", *shape])
    assert code == 2 and not out
    assert "need 1 <= k <= n" in err


def test_oracle_violating_pattern_exit(capsys, tmp_path):
    # completed (one zero per row for k=2) yet violating: both rows share it
    spec = write_spec(tmp_path / "shared.json", {"n": 4, "k": 2, "zeros": [[1], [1]]})
    code, out, err = run(capsys, ["oracle", "--zeros", spec])
    assert code == 1 and err == ""
    report = json.loads(out)
    assert report["condition"] is False and report["det_p_nonzero"] is False
    assert report["witness_omega"] == [1, 2] and report["witness_point"] is None


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(min_value=-2, max_value=30) | st.integers()
    | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=10)


@st.composite
def small_patterns(draw):
    k = draw(st.integers(min_value=1, max_value=6))
    n = draw(st.integers(min_value=k, max_value=10))
    zeros = draw(st.lists(st.lists(st.integers(min_value=1, max_value=n), max_size=k),
                          min_size=k, max_size=k))
    return {"n": n, "k": k, "zeros": zeros}


PATTERN_OBJECTS = st.one_of(
    small_patterns(),
    st.fixed_dictionaries({"n": JSON_VALUES, "k": JSON_VALUES, "zeros": JSON_VALUES}),
    JSON_VALUES)


@pytest.mark.parametrize("command", [["check"], ["oracle", "--mode", "randomized"]])
@given(obj=PATTERN_OBJECTS)
@settings(max_examples=60, deadline=None)
def test_cli_fuzz_exit_codes(command, obj):
    # any JSON value as a pattern file: exit 0, 1 or 2, never an exception
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pattern.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(command + ["--zeros", str(path)])
    assert code in (0, 1, 2)
