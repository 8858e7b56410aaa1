"""The five records: value semantics, and a CLI import that stays light."""

import subprocess
import sys
from pathlib import Path

import pytest

from cyclogab import (SupportSpec, build_subcode, certify_mrd, complete_sets, construct,
                      oracle_report)
from helpers import rebuild_result

STAIRCASE = SupportSpec(6, 3, [(1, 2), (3, 4), (5, 6)])


def test_cli_import_loads_no_dataclasses():
    # every CLI call is its own process; dataclasses pulls in inspect, ast,
    # dis and tokenize, about half the import time and 1 MB of memory
    src = Path(__file__).resolve().parent.parent / "src"
    heavy = ["dataclasses", "inspect", "ast", "dis", "tokenize"]
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import cyclogab.cli; "
            "print(sorted(set(sys.argv[2:]) & set(sys.modules)))")
    child = subprocess.run([sys.executable, "-S", "-c", code, str(src), *heavy],
                           capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    assert child.stdout == "[]\n"


def twins(ctx11):
    """Pairs of records built twice from the same inputs, one per record class."""
    result = construct(STAIRCASE, ctx11, 1200, seed=1)
    infeasible = SupportSpec(4, 2, [(1, 2), (1, 2)])
    completed = complete_sets(STAIRCASE)
    return [
        (STAIRCASE, SupportSpec.from_obj(STAIRCASE.to_obj()), "zeros", ()),
        (result, rebuild_result(result), "seed", 2),
        (certify_mrd(result), certify_mrd(result), "ell", 3),
        (build_subcode(infeasible, ctx11, 500, seed=3),
         build_subcode(infeasible, ctx11, 500, seed=3), "generator", None),
        (oracle_report(completed, seed=4), oracle_report(completed, seed=4), "condition", False),
    ]


def test_records_are_values(ctx11):
    names = []
    for a, b, field, value in twins(ctx11):
        assert a is not b and a == b and hash(a) == hash(b)
        names.append(type(a).__name__)
        assert repr(a).startswith(f"{names[-1]}(")
        with pytest.raises(AttributeError):
            setattr(a, field, value)
        with pytest.raises(AttributeError):
            delattr(a, field)
        assert a == b  # the refused assignment and deletion changed nothing
    assert names == ["SupportSpec", "ConstructionResult", "Certificate", "SubcodeResult",
                     "OracleReport"]


def test_records_differ_by_a_field(ctx11):
    result = construct(STAIRCASE, ctx11, 1200, seed=1)
    assert rebuild_result(result, seed=2) != result
    assert SupportSpec(6, 3, [(1, 2), (3, 4), (5,)]) != STAIRCASE
    cert = certify_mrd(result)
    assert cert._replace(ell=3) != cert and cert._replace(ell=3).ell == 3
    assert cert.passed


def test_support_spec_keeps_its_group_values_out_of_equality():
    # the cached group values live on the object but are not a field
    a, b = SupportSpec(6, 3, [(1, 2), (3, 4), (5, 6)]), SupportSpec.from_obj(STAIRCASE.to_obj())
    assert a._group_values and "_group_values" in vars(a) and "_group_values" not in vars(b)
    assert a == b and hash(a) == hash(b)
    assert repr(a) == repr(b) == (
        "SupportSpec(n=6, k=3, zeros=(frozenset({1, 2}), frozenset({3, 4}), "
        "frozenset({5, 6})))")
