"""Byte identity of the files the CLI emits.

One fixed construct, subcode and certify run at p = 11, n = 6, k = 3, and one
construct at p = 17, n = 12, k = 6 (transform rows of five points, so
``bordered_minor_row`` takes three division steps and its odd-count sign),
must reproduce these sha256 digests exactly; any change of the field
representation, the elimination or the JSON layout that moves a single
output byte fails here.
"""

import contextlib
import hashlib
import io
import json

from cyclogab.cli import main

STAIRCASE = {"n": 6, "k": 3, "zeros": [[1, 2], [3, 4], [5, 6]]}
SHARED_PAIR = {"n": 6, "k": 3, "zeros": [[1, 2], [1, 2], [3]]}

GOLDEN = {
    "construct/stdout": "fdc63ccc637bdc5129131386331c81689b0bc483401b954aa1506be0d9aac5d7",
    "construct/result.json": "31b3c1168469288e179d3e0b5b8bd66dd069eef0daec884ba4047fd52e70e4b0",
    "construct/certificate.json": "fdc63ccc637bdc5129131386331c81689b0bc483401b954aa1506be0d9aac5d7",
    "subcode/stdout": "4a799ddec249a5f88b159be5d014053b07b59537db96049e270267a41b116be8",
    "subcode/subcode.json": "4ccfc078872c7bd39af5bf9f98b43b22a81177d6b4f85288c21bfdc670a7b9d9",
    "subcode/certificate.json": "4a799ddec249a5f88b159be5d014053b07b59537db96049e270267a41b116be8",
    "certify/stdout": "fdc63ccc637bdc5129131386331c81689b0bc483401b954aa1506be0d9aac5d7",
    "certify/certificate.json": "fdc63ccc637bdc5129131386331c81689b0bc483401b954aa1506be0d9aac5d7",
}

GOLDEN_K6 = {
    "construct/stdout": "97cd4c2e59abfd99a8e214c4d6fe33cdaa49403fb51d87b1ad8c6d5c5ef39900",
    "construct/certificate.json": "97cd4c2e59abfd99a8e214c4d6fe33cdaa49403fb51d87b1ad8c6d5c5ef39900",
    "construct/result.json": "94bc2908f9da15b3c2c629a68cd1bc92bf39f471db20e7c84476040e2261f9dd",
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
