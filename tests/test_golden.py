"""Byte identity of the files the CLI emits.

One fixed construct, subcode and certify run at p = 11, n = 6, k = 3, one
construct at p = 17, n = 12, k = 6 (transform rows of five points, so
``bordered_minor_row`` takes three division steps and its odd-count sign),
both on the fixed points of draw attempt 0, and one construct at p = 7,
n = 6, k = 3 on a pattern where those points fail (so the random draw of
attempt 1 is pinned too), must reproduce these sha256 digests exactly; any
change of the points, the field representation, the elimination or the JSON
layout that moves a single output byte fails here.
"""

import contextlib
import hashlib
import io
import json

from cyclogab.cli import main

STAIRCASE = {"n": 6, "k": 3, "zeros": [[1, 2], [3, 4], [5, 6]]}
SHARED_PAIR = {"n": 6, "k": 3, "zeros": [[1, 2], [1, 2], [3]]}
PLANTED = {"n": 6, "k": 3, "zeros": [[1, 6], [2, 5], [3, 4]]}  # singular T on the fixed points

GOLDEN = {
    "construct/stdout": "44e7f89a65a0eab4b116d21f7269485d1ef196fe364e0d5a8017c6256d22c879",
    "construct/result.json": "9daf22e22461bbd494e9a5d04bf93f9a63ff2d6d329a6ec3acab8c1a222b990d",
    "construct/certificate.json": "44e7f89a65a0eab4b116d21f7269485d1ef196fe364e0d5a8017c6256d22c879",
    "subcode/stdout": "ffd2dab4479e48e950c22f34e6169dad921a3c484950bd553bf495f874f39688",
    "subcode/subcode.json": "92fa5bf089674d6596df041c7a77694c9998266e8c3c31ec50b14703f6f8d608",
    "subcode/certificate.json": "ffd2dab4479e48e950c22f34e6169dad921a3c484950bd553bf495f874f39688",
    "certify/stdout": "44e7f89a65a0eab4b116d21f7269485d1ef196fe364e0d5a8017c6256d22c879",
    "certify/certificate.json": "44e7f89a65a0eab4b116d21f7269485d1ef196fe364e0d5a8017c6256d22c879",
}

GOLDEN_K6 = {
    "construct/stdout": "49a7bdf96d6288aac179d75a60612dd54df292d05dffa0227b324e65adca6c54",
    "construct/certificate.json": "49a7bdf96d6288aac179d75a60612dd54df292d05dffa0227b324e65adca6c54",
    "construct/result.json": "b53c4a42d0832abd2ec2ea5b48caec68b9abce9cf4d8aab84bc0fc786b5b1ee1",
}

GOLDEN_PLANTED = {
    "construct/stdout": "b641ffbd3d6d68aebe86c1e30b2679bbe8952fbef3c832637db6f4561a845cf8",
    "construct/certificate.json": "b641ffbd3d6d68aebe86c1e30b2679bbe8952fbef3c832637db6f4561a845cf8",
    "construct/result.json": "576e2db0926897f718aa935001b4ca9d1768e711edcc657c6498dcb467d66fb8",
}


def _run(argv: list[str]) -> tuple[int, bytes]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue().encode("utf-8")


def _recorder(tmp_path, digests: dict[str, str]):
    """A function that runs one command with --out and adds the sha256 of its
    stdout and of every file it wrote to digests."""
    def record(name: str, argv: list[str], expect: int) -> None:
        out_dir = tmp_path / name
        code, stdout = _run(argv + ["--out", str(out_dir)])
        assert code == expect, name
        digests[f"{name}/stdout"] = hashlib.sha256(stdout).hexdigest()
        for path in sorted(out_dir.iterdir()):
            digests[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return record


def emitted_digests(tmp_path) -> dict[str, str]:
    """sha256 of stdout and of every file written by the three fixed runs."""
    digests = {}
    record = _recorder(tmp_path, digests)
    staircase = tmp_path / "staircase.json"
    staircase.write_text(json.dumps(STAIRCASE), encoding="utf-8")
    shared = tmp_path / "shared.json"
    shared.write_text(json.dumps(SHARED_PAIR), encoding="utf-8")
    run_args = ["--prime", "11", "--epsilon", "0.01", "--seed", "7"]
    record("construct", ["construct", "--zeros", str(staircase)] + run_args, 0)
    record("subcode", ["subcode", "--zeros", str(shared)] + run_args, 0)
    record("certify", ["certify", str(tmp_path / "construct" / "result.json")], 0)
    return digests


def test_emitted_bytes_are_pinned(tmp_path):
    assert emitted_digests(tmp_path) == GOLDEN


def test_k6_construct_bytes_are_pinned(tmp_path):
    digests = {}
    _recorder(tmp_path, digests)("construct", [
        "construct", "--prime", "17", "--n", "12", "--k", "6", "--epsilon", "0.01",
        "--seed", "7"], 0)
    assert digests == GOLDEN_K6


def test_fallback_draw_bytes_are_pinned(tmp_path):
    planted = tmp_path / "planted.json"
    planted.write_text(json.dumps(PLANTED), encoding="utf-8")
    digests = {}
    _recorder(tmp_path, digests)("construct", [
        "construct", "--prime", "7", "--zeros", str(planted), "--epsilon", "0.01",
        "--seed", "7"], 0)
    assert json.loads((tmp_path / "construct" / "result.json").read_text())["retries"] == 1
    assert digests == GOLDEN_PLANTED
