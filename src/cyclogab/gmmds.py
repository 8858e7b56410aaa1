"""Polynomial oracle for zero-pattern feasibility (the GM-MDS criterion).

For a completed pattern, row i of the k x k coefficient matrix lists the
coefficients (lowest degree first) of prod over the row's constrained
columns t of (X - a_t), as polynomials in one variable a_t per column.  The
pattern is feasible exactly when the determinant of that matrix is not the
zero polynomial, which cross-validates the combinatorial subset check by an
entirely different route.  Every verdict carries its proof.

Zero: the witness rows Omega of a failed condition share columns I with
|I| + |Omega| > k.  Each such row is a polynomial of degree at most k - 1
divisible by prod_{t in I}(X - a_t): for any a_t the rows lie in a space of
dimension k - |I| < |Omega|, so they are dependent.  The oracle recounts
|I| + |Omega| from the zero sets, not through the matching code of
``supports``, and evaluates one seeded point, which must give zero; a
nonzero value there is a nonzero verdict against the condition.

Nonzero: a point, out of at most RANDOM_TRIALS uniform ones with coordinates
in a set of size max(1, 50*k*(k-1)), where the matrix is nonsingular.  The
integer matrix is first eliminated mod the prime DET_MODULUS = 2^61 - 1 by
``_eliminate(rows, DET_MODULUS)``, where full rank proves the value nonzero;
any other outcome (q may divide it) is decided over Z by ``_eliminate(rows)``.

Undecided (None): neither proof.  The determinant has total degree at most
k*(k-1)/2, so a nonzero one vanishes at a point with probability at most
1/100; such a pattern is a counterexample candidate to the condition's
sufficiency, not a proved zero.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import NamedTuple, Sequence

from .linalg import _eliminate
from .supports import SupportSpec, _check_shape, check_condition

RANDOM_TRIALS = 16
MAX_ORACLE_N = 1024  # every evaluation draws an n-coordinate point
DET_MODULUS = 2**61 - 1  # a prime: full rank mod it proves a nonzero determinant


def _root_product(roots: Sequence[int]) -> list[int]:
    """Coefficients of prod (X - a) over ``roots``, lowest degree first."""
    coeffs = [1]
    for a in roots:
        lifted = [0] * (len(coeffs) + 1)
        for d, c in enumerate(coeffs):
            lifted[d + 1] += c
            lifted[d] -= c * a
        coeffs = lifted
    return coeffs


def _det_nonzero_at(spec: SupportSpec, point: Sequence[int]) -> bool:
    """Whether the coefficient matrix is nonsingular at the integer point:
    proved by full rank mod DET_MODULUS, else decided by exact Bareiss."""
    rows = [_root_product([point[t - 1] for t in sorted(z)]) for z in spec.zeros]
    k = len(rows)
    return _eliminate(rows, DET_MODULUS)[0] == k or _eliminate(rows)[0] == k


def _proves_zero(spec: SupportSpec, omega: frozenset[int]) -> bool:
    """Whether the 1-based rows omega hold so many common zero columns that
    they are dependent: |common| + |omega| > k."""
    if not omega or not omega <= frozenset(range(1, spec.k + 1)):
        return False
    common = frozenset.intersection(*[spec.zeros[i - 1] for i in omega])
    return len(common) + len(omega) > spec.k


class OracleReport(NamedTuple):
    """Outcome of one oracle run next to the combinatorial check."""

    condition: bool
    det_nonzero: bool | None
    witness_point: tuple[int, ...] | None
    witness_omega: frozenset[int] | None

    def to_obj(self) -> dict:
        omega, point = self.witness_omega, self.witness_point
        return {
            "condition": self.condition,
            "det_p_nonzero": self.det_nonzero,
            "mode": "randomized",
            "witness_omega": sorted(omega) if omega is not None else None,
            "witness_point": list(point) if point is not None else None,
        }


def check_oracle_size(n: int) -> None:
    """Refuse a column count above MAX_ORACLE_N before anything is allocated."""
    if n > MAX_ORACLE_N:
        raise ValueError(f"the oracle supports n <= MAX_ORACLE_N = {MAX_ORACLE_N}, got n={n}")


def det_is_nonzero(spec: SupportSpec, seed: int = 0
                   ) -> tuple[bool | None, tuple[int, ...] | None, frozenset[int] | None]:
    """Decide whether the coefficient determinant is a nonzero polynomial.

    Returns (True, point, None) with a point of nonzero value, (False, None,
    omega) with the witness rows that prove the zero polynomial, or (None,
    None, None) when neither proof was found (see the module docstring).
    """
    check_oracle_size(spec.n)
    if not spec.is_completed():
        raise ValueError("pattern must be completed (k-1 zeros per row) first")
    ok, omega = check_condition(spec)
    proved_zero = not ok and _proves_zero(spec, omega)
    size = max(1, 50 * spec.k * (spec.k - 1))
    rng = random.Random(seed)
    for _ in range(1 if proved_zero else RANDOM_TRIALS):
        point = tuple([rng.randrange(size) for _ in range(spec.n)])
        if _det_nonzero_at(spec, point):
            return True, point, None
    return (False, None, omega) if proved_zero else (None, None, None)


def oracle_report(spec: SupportSpec, seed: int = 0) -> OracleReport:
    """Run the determinant oracle and pair it with the combinatorial check."""
    nonzero, witness, omega = det_is_nonzero(spec, seed=seed)
    condition, _ = check_condition(spec)
    return OracleReport(condition=condition, det_nonzero=nonzero, witness_point=witness,
                        witness_omega=omega)


def sweep_agreement(n: int = 4, k: int = 3, seed: int = 0) -> dict:
    """Compare oracle and combinatorial check over every family of
    (k-1)-subsets of [n]; returns counts plus any disagreeing patterns."""
    check_oracle_size(n)
    _check_shape(n, k)
    per_row = math.comb(n, k - 1)
    if per_row ** k > 100_000:
        raise ValueError(f"sweep of {per_row ** k} families is above the guard")
    families = itertools.product(itertools.combinations(range(1, n + 1), k - 1), repeat=k)
    total = 0
    agree = 0
    disagreements = []
    for zeros in families:
        spec = SupportSpec(n, k, zeros)
        report = oracle_report(spec, seed=seed)
        total += 1
        if report.condition == report.det_nonzero:
            agree += 1
        else:
            disagreements.append(spec.to_obj())
    return {"n": n, "k": k, "mode": "randomized", "families": total, "agree": agree,
            "disagreements": disagreements}
