"""No floating point in the library: a walk over the syntax trees of every
module of ``cyclogab`` refuses float literals, ``float(...)`` calls and the
float functions and constants of ``math``.  ``isinstance(x, float)`` (the
name, not a call) and ``math.ceil`` of a ``Fraction`` stay allowed."""

import ast
from pathlib import Path

import pytest

import cyclogab

FLOAT_MATH = {"log", "log2", "log10", "log1p", "sqrt", "exp", "pow", "fsum", "inf", "nan"}


def float_uses(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"line {node.lineno}: literal {node.value!r}")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "float":
            found.append(f"line {node.lineno}: float() call")
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id == "math" and node.attr in FLOAT_MATH:
            found.append(f"line {node.lineno}: math.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [f"line {node.lineno}: from math import {a.name}"
                      for a in node.names if a.name in FLOAT_MATH]
    return found


@pytest.mark.parametrize("path", sorted(Path(cyclogab.__file__).parent.glob("*.py")),
                         ids=lambda path: path.name)
def test_library_is_float_free(path):
    assert float_uses(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source", ["x = 0.5", "x = 1e3", "x = 2j", "y = float(s)",
                                    "y = math.log2(n)", "y = math.inf", "from math import sqrt"])
def test_guard_refuses(source):
    assert len(float_uses(source)) == 1


@pytest.mark.parametrize("source", ["k = math.ceil(Fraction(7, 2))", "ok = isinstance(x, float)",
                                    "q = pow(a, -1, m)", "g = math.gcd(a, b)"])
def test_guard_allows(source):
    assert float_uses(source) == []
