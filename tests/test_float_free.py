"""No floating point in the library or its scripts: a walk over the syntax
trees of every module of ``cyclogab`` and of ``scripts/`` refuses float
literals, ``float(...)`` calls, the float functions and constants of ``math``
and true division ``/``, which turns two ints into a float.
``isinstance(x, float)`` (the name, not a call), ``math.ceil`` of a
``Fraction`` and a division with a ``Fraction(...)`` call for an operand stay
allowed; a path is joined with ``Path.joinpath``, never with ``/``."""

import ast
from pathlib import Path

import pytest

import cyclogab

FLOAT_MATH = {"log", "log2", "log10", "log1p", "sqrt", "exp", "pow", "fsum", "inf", "nan"}


def _is_fraction_call(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
        and node.func.id == "Fraction"


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
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            left, right = ((node.left, node.right) if isinstance(node, ast.BinOp)
                           else (node.target, node.value))
            if not (_is_fraction_call(left) or _is_fraction_call(right)):
                found.append(f"line {node.lineno}: true division")
    return found


SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("path", sorted(Path(cyclogab.__file__).parent.glob("*.py"))
                         + sorted(SCRIPTS.glob("*.py")), ids=lambda path: path.name)
def test_library_is_float_free(path):
    assert float_uses(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source", ["x = 0.5", "x = 1e3", "x = 2j", "y = float(s)",
                                    "y = math.log2(n)", "y = math.inf", "from math import sqrt",
                                    "x = a / b", "x /= 2",
                                    "def f(out: Path | None): return out / name"])
def test_guard_refuses(source):
    assert len(float_uses(source)) == 1


@pytest.mark.parametrize("source", ["k = math.ceil(Fraction(7, 2))", "ok = isinstance(x, float)",
                                    "q = pow(a, -1, m)", "g = math.gcd(a, b)",
                                    "y = Fraction(a) / b"])
def test_guard_allows(source):
    assert float_uses(source) == []
