"""Byte identity of the files the CLI emits.

One fixed construct, subcode and certify run at p = 11, n = 6, k = 3 must
reproduce these sha256 digests exactly; any change of the field
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


def _run(argv: list[str]) -> tuple[int, bytes]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue().encode("utf-8")


def emitted_digests(tmp_path) -> dict[str, str]:
    """sha256 of stdout and of every file written by the three fixed runs."""
    digests = {}

    def record(name: str, argv: list[str], expect: int) -> None:
        out_dir = tmp_path / name
        code, stdout = _run(argv + ["--out", str(out_dir)])
        assert code == expect, name
        digests[f"{name}/stdout"] = hashlib.sha256(stdout).hexdigest()
        for path in sorted(out_dir.iterdir()):
            digests[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()

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
