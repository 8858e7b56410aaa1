"""One message and one exit code per input bound, at every entry that reaches it.

Each bound is checked once, by the library call that owns it: k <= MAX_ROWS
by ``SupportSpec`` (before it reads a row), n <= p - 1 by ``construct``,
``sample_points`` and ``moore_matrix``, and a negative retry budget and an
infeasible pattern by ``construct``.  The CLI commands and
scripts/success_rate.py print that message as raised; every refusal comes
before any draw attempt and within a second."""

import importlib.util
import itertools
import json
import time
from pathlib import Path

import pytest

import cyclogab
from cyclogab import (InfeasiblePattern, SupportSpec, build_subcode, construct, moore_matrix,
                      sample_points)
from cyclogab.cli import main
from conftest import CONTEXTS
from helpers import outcome

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "success_rate.py"
_spec = importlib.util.spec_from_file_location("success_rate", SCRIPT)
success_rate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(success_rate)

HUGE = 10 ** 9
K_BOUND = f"row count {HUGE} exceeds the input bound MAX_ROWS = 24"
N_BOUND = "need n <= 6 for p=7, got n=8"
RETRIES = "need max_retries >= 0, got -1"
INFEASIBLE = ("support condition violated by rows [1, 2]; "
              "a full-distance code does not exist, build a subcode instead")
UNCOMPLETED = "pattern must satisfy the support condition before completion"
# required dimension 200001 for the three zero sets of wide.json
WIDE_L_BOUND = "row count 200001 exceeds the input bound MAX_ROWS = 24"

FILES = {
    "huge.json": {"n": HUGE, "k": HUGE, "zeros": []},
    "huge-result.json": {"context": {"p": 7}, "spec": {"n": HUGE, "k": HUGE, "zeros": []}},
    "infeasible.json": {"n": 4, "k": 2, "zeros": [[1, 2], [1, 2]]},
    "infeasible-wide.json": {"n": 8, "k": 2, "zeros": [[1, 2], [1, 2]]},
    # infeasible over a union of 399 999 columns: the minor-sweep budget and
    # the subcode padding must refuse it without a sum over its n
    "wide.json": {"n": 400_000, "k": 3, "zeros": [
        list(range(1, 200_000)), list(range(100_000, 300_000)), list(range(200_000, 400_000))]},
}
RUN = ["--prime", "7", "--s-size", "100"]

# (command line, exit code, stderr): the CLI in-process, then success_rate.py
COMMANDS = [
    # k <= MAX_ROWS, owned by SupportSpec
    (["check", "--n", str(HUGE), "--k", str(HUGE)], 2, f"error: {K_BOUND}"),
    (["check", "--zeros", "huge.json"], 2, f"error: huge.json: {K_BOUND}"),
    (["construct", *RUN, "--n", str(HUGE), "--k", str(HUGE)], 2, f"error: {K_BOUND}"),
    (["subcode", *RUN, "--zeros", "huge.json"], 2, f"error: huge.json: {K_BOUND}"),
    (["certify", "huge-result.json"], 2, f"error: huge-result.json: {K_BOUND}"),
    (["oracle", "--n", str(HUGE), "--k", str(HUGE)], 2, f"error: {K_BOUND}"),
    (["success_rate.py", "--k", str(HUGE)], 2, f"error: {K_BOUND}"),
    # n <= p - 1, owned by construct, sample_points and moore_matrix
    (["construct", *RUN, "--n", "8", "--k", "3"], 2, f"error: {N_BOUND}"),
    (["construct", "--prime", "7", "--epsilon", "0.01", "--n", "8", "--k", "3"], 2,
     f"error: {N_BOUND}"),
    # an infeasible pattern that is also too wide is an input error first
    (["construct", *RUN, "--zeros", "infeasible-wide.json"], 2, f"error: {N_BOUND}"),
    (["subcode", *RUN, "--n", "8", "--k", "3"], 2, f"error: {N_BOUND}"),
    (["subcode", *RUN, "--zeros", "infeasible-wide.json"], 2, f"error: {N_BOUND}"),
    # subcode pads an infeasible pattern to its required dimension first
    (["subcode", *RUN, "--zeros", "wide.json"], 2, f"error: {WIDE_L_BOUND}"),
    (["certify", "wide-result.json"], 2, f"error: wide-result.json: {N_BOUND}"),
    (["success_rate.py", "--prime", "7", "--n", "8"], 2, f"error: {N_BOUND}"),
    # success_rate.py completes the pattern before its first draw reads n
    (["success_rate.py", "--prime", "7", "--zeros", "infeasible-wide.json"], 2,
     f"error: {UNCOMPLETED}"),
    # a negative retry budget, owned by construct
    (["construct", *RUN, "--n", "4", "--k", "2", "--max-retries", "-1"], 2, f"error: {RETRIES}"),
    (["subcode", *RUN, "--n", "4", "--k", "2", "--max-retries", "-1"], 2, f"error: {RETRIES}"),
    (["subcode", *RUN, "--zeros", "infeasible.json", "--max-retries", "-1"], 2,
     f"error: {RETRIES}"),
    # an infeasible pattern, owned by construct: a verdict naming the witness rows
    (["construct", *RUN, "--zeros", "infeasible.json"], 1, f"construction failed: {INFEASIBLE}"),
]


@pytest.fixture(scope="module")
def input_dir(tmp_path_factory):
    """The input files, written once: no refusal writes a file."""
    path = tmp_path_factory.mktemp("inputs")
    for name, obj in FILES.items():
        (path / name).write_text(json.dumps(obj), encoding="utf-8")
    # a stored (7, 6, 2) result widened to n = 8 points: the spec and both
    # extra points are well-formed, so only the Moore matrix refuses it
    wide = construct(SupportSpec(6, 2, [(), ()]), CONTEXTS[7], 100, 0).to_obj()
    wide["spec"]["n"] = 8
    wide["points"]["coords"] += [[0, 0, 1, 1, 0, 0], [0, 1, 0, 0, 1, 0]]
    (path / "wide-result.json").write_text(json.dumps(wide), encoding="utf-8")
    return path


@pytest.fixture
def inputs(input_dir, monkeypatch):
    """The input files in the working directory, and no draw attempt allowed."""
    monkeypatch.chdir(input_dir)

    def no_attempt(*args):
        raise AssertionError("a draw attempt was made")
    monkeypatch.setattr(cyclogab.construction, "_attempt", no_attempt)
    monkeypatch.setattr(success_rate, "_attempt", no_attempt)


@pytest.mark.parametrize("argv, code, err", COMMANDS, ids=[" ".join(c[0]) for c in COMMANDS])
def test_command_refusals(inputs, capsys, argv, code, err):
    entry = success_rate.main if argv[0] == "success_rate.py" else main
    start = time.perf_counter()
    got = entry(argv[1:] if entry is success_rate.main else argv)
    assert time.perf_counter() - start < 1
    assert (got, *capsys.readouterr()) == (code, "", err + "\n")


ctx7 = CONTEXTS[7]
P42 = SupportSpec(4, 2, [(), ()])

# (call, (exception type, message)): the owners themselves
LIBRARY = [
    (lambda: SupportSpec(HUGE, HUGE, itertools.repeat(())), (ValueError, K_BOUND)),
    (lambda: SupportSpec.from_obj(FILES["huge.json"]), (ValueError, K_BOUND)),
    (lambda: construct(SupportSpec(8, 3, [()] * 3), ctx7, 100, 0), (ValueError, N_BOUND)),
    (lambda: construct(SupportSpec.from_obj(FILES["infeasible-wide.json"]), ctx7, 100, 0),
     (ValueError, N_BOUND)),
    (lambda: sample_points(ctx7, 8, 100, 0), (ValueError, N_BOUND)),
    (lambda: moore_matrix([ctx7.one()] * 8, 2), (ValueError, N_BOUND)),
    (lambda: construct(P42, ctx7, 100, 0, max_retries=-1), (ValueError, RETRIES)),
    (lambda: build_subcode(P42, ctx7, 100, 0, max_retries=-1), (ValueError, RETRIES)),
    (lambda: construct(SupportSpec.from_obj(FILES["infeasible.json"]), ctx7, 100, 0),
     (InfeasiblePattern, INFEASIBLE)),
]


@pytest.mark.parametrize("call, expected", LIBRARY, ids=[
    "SupportSpec-k", "from_obj-k", "construct-n", "construct-infeasible-wide", "sample_points-n",
    "moore_matrix-n", "construct-retries", "build_subcode-retries", "construct-infeasible"])
def test_library_refusals(inputs, call, expected):
    assert outcome(call) == expected


def test_infeasible_pattern_is_a_value_error():
    # library callers that catch ValueError for bad input keep catching it
    assert issubclass(InfeasiblePattern, ValueError) and "InfeasiblePattern" in cyclogab.__all__


@pytest.mark.parametrize("message", ["exceeds the input bound MAX_ROWS", "need n <= {",
                                     "need max_retries >= 0", "support condition violated by"])
def test_each_message_has_one_home(message):
    texts = [path.read_text(encoding="utf-8")
             for path in Path(cyclogab.__file__).parent.glob("*.py")]
    assert sum(text.count(message) for text in texts) == 1
