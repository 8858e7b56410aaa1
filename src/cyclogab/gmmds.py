"""Polynomial oracle for zero-pattern feasibility (the GM-MDS criterion).

For a completed pattern, row i of the k x k coefficient matrix lists the
coefficients (lowest degree first) of prod over the row's constrained
columns t of (X - a_t), as polynomials in one variable a_t per column.  The
pattern is feasible exactly when the determinant of that matrix is not the
zero polynomial, which cross-validates the combinatorial subset check by an
entirely different route.

Two decision modes: full symbolic expansion (small k only), and randomized
evaluation at uniform integer points.  A symbolic monomial lists only the
variables it uses, so the expansion costs what k and the columns in the
zero sets cost, whatever n is.  The randomized mode has one-sided
error: a "nonzero" verdict always carries a witness point, while a "zero"
verdict can be wrong with probability at most 1/100 per trial because the
determinant has total degree at most k*(k-1)/2.

At each random point the integer matrix is first eliminated modulo the
prime DET_MODULUS = 2^61 - 1.  Full rank there proves the determinant
nonzero, since it is then nonzero mod q.  Any other outcome proves nothing
(q may divide a nonzero determinant), so that point is decided by exact
fraction-free elimination over Z; the verdict and the witness point are the
ones exact arithmetic alone gives.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Sequence

from .linalg import _eliminate, _int_quotient, _mod_reducer
from .supports import SupportSpec, _check_shape, check_condition

SYMBOLIC_MAX_K = 6
RANDOM_TRIALS = 16
MAX_ORACLE_N = 1024  # the randomized mode draws an n-coordinate point per trial
DET_MODULUS = 2**61 - 1  # a prime: full rank mod it proves a nonzero determinant


class SparsePoly:
    """Multivariate polynomial over Z: sparse map from monomials to integer
    coefficients; zero coefficients are never stored.  A monomial is the
    sorted tuple of its variable indices, one entry per unit of degree
    (a_0^2 a_3 is (0, 0, 3)), so it holds only the variables it uses."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None) -> None:
        merged: dict[tuple[int, ...], int] = {}
        for mono, c in (terms or {}).items():
            mono = tuple(sorted(mono))
            if mono and mono[0] < 0:
                raise ValueError(f"negative variable index in monomial {mono}")
            merged[mono] = merged.get(mono, 0) + c
        self.terms = {m: c for m, c in merged.items() if c}

    @classmethod
    def _sorted(cls, terms: dict) -> SparsePoly:
        """Wrap terms whose monomials are already sorted, dropping zeros."""
        poly = cls.__new__(cls)
        poly.terms = {m: c for m, c in terms.items() if c}
        return poly

    @classmethod
    def zero(cls) -> SparsePoly:
        return cls()

    @classmethod
    def const(cls, value: int) -> SparsePoly:
        return cls({(): value})

    @classmethod
    def variable(cls, index: int) -> SparsePoly:
        return cls({(index,): 1})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other) -> SparsePoly:
        if isinstance(other, int):
            other = SparsePoly.const(other)
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            terms[mono] = terms.get(mono, 0) + c
        return SparsePoly._sorted(terms)

    __radd__ = __add__

    def __neg__(self) -> SparsePoly:
        return SparsePoly._sorted({m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> SparsePoly:
        return self + (-other if isinstance(other, SparsePoly) else SparsePoly.const(-other))

    def __mul__(self, other) -> SparsePoly:
        if isinstance(other, int):
            return SparsePoly._sorted({m: c * other for m, c in self.terms.items()})
        terms: dict[tuple[int, ...], int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(sorted(m1 + m2))
                terms[mono] = terms.get(mono, 0) + c1 * c2
        return SparsePoly._sorted(terms)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        return f"SparsePoly(terms={len(self.terms)})"


def _root_product(roots: Sequence, zero, one) -> list:
    """Coefficients of prod (X - a) over ``roots``, lowest degree first, in
    the ring of ``zero`` and ``one``."""
    coeffs = [one]
    for a in roots:
        lifted = [zero] * (len(coeffs) + 1)
        for d, c in enumerate(coeffs):
            lifted[d + 1] = lifted[d + 1] + c
            lifted[d] = lifted[d] - c * a
        coeffs = lifted
    return coeffs


def support_polynomial_matrix(spec: SupportSpec) -> list[list[SparsePoly]]:
    """The k x k coefficient matrix of a completed pattern.

    Row i holds the coefficients of prod_{t in zeros_i} (X - a_t) by
    increasing degree, so column k is identically one and column j has
    entries of degree k - j.
    """
    if not spec.is_completed():
        raise ValueError("pattern must be completed (k-1 zeros per row) first")
    zero, one = SparsePoly.zero(), SparsePoly.const(1)
    return [_root_product([SparsePoly.variable(t - 1) for t in sorted(z)], zero, one)
            for z in spec.zeros]


def symbolic_det(matrix: Sequence[Sequence[SparsePoly]]) -> SparsePoly:
    """Determinant by cofactor expansion with memoized column-subset minors."""
    memo: dict[tuple[int, ...], SparsePoly] = {(): SparsePoly.const(1)}

    def minor(i: int, cols: tuple[int, ...]) -> SparsePoly:
        cached = memo.get(cols)
        if cached is not None:
            return cached
        acc = SparsePoly.zero()
        for pos, c in enumerate(cols):
            entry = matrix[i][c]
            if entry.is_zero:
                continue
            term = entry * minor(i + 1, cols[:pos] + cols[pos + 1:])
            acc = acc - term if pos % 2 else acc + term
        memo[cols] = acc
        return acc

    return minor(0, tuple(range(len(matrix))))


def _det_nonzero_at(spec: SupportSpec, point: Sequence[int]) -> bool:
    """Whether the coefficient matrix is nonsingular at the integer point:
    proved by full rank mod DET_MODULUS, else decided by exact Bareiss."""
    rows = [_root_product([point[t - 1] for t in sorted(z)], 0, 1) for z in spec.zeros]
    q = DET_MODULUS
    if _eliminate([[c % q for c in row] for row in rows], _mod_reducer(q))[0] == len(rows):
        return True
    return _eliminate(rows, _int_quotient)[0] == len(rows)


@dataclass(frozen=True)
class OracleReport:
    """Outcome of one oracle run next to the combinatorial check."""

    condition: bool
    det_nonzero: bool
    mode: str
    witness_point: tuple[int, ...] | None

    def to_obj(self) -> dict:
        return {
            "condition": self.condition,
            "det_p_nonzero": self.det_nonzero,
            "mode": self.mode,
            "witness_point": list(self.witness_point) if self.witness_point is not None else None,
        }


def check_oracle_size(n: int) -> None:
    """Refuse a column count above MAX_ORACLE_N before anything is allocated."""
    if n > MAX_ORACLE_N:
        raise ValueError(f"the oracle supports n <= MAX_ORACLE_N = {MAX_ORACLE_N}, got n={n}")


def det_is_nonzero(spec: SupportSpec, mode: str = "symbolic",
                   seed: int = 0) -> tuple[bool, tuple[int, ...] | None]:
    """Decide whether the coefficient determinant is a nonzero polynomial.

    Symbolic mode expands the determinant fully (k <= 6).  Randomized mode
    evaluates at RANDOM_TRIALS uniform points with coordinates in a set of size
    max(1, 50*k*(k-1)) and answers True on the first nonzero value, returned
    as the witness.
    """
    check_oracle_size(spec.n)
    if not spec.is_completed():
        raise ValueError("pattern must be completed (k-1 zeros per row) first")
    if mode == "symbolic":
        if spec.k > SYMBOLIC_MAX_K:
            raise ValueError(f"symbolic mode supports k <= {SYMBOLIC_MAX_K}, got k={spec.k}")
        det = symbolic_det(support_polynomial_matrix(spec))
        return not det.is_zero, None
    if mode == "randomized":
        size = max(1, 50 * spec.k * (spec.k - 1))
        rng = random.Random(seed)
        for _ in range(RANDOM_TRIALS):
            point = tuple([rng.randrange(size) for _ in range(spec.n)])
            if _det_nonzero_at(spec, point):
                return True, point
        return False, None
    raise ValueError(f"unknown mode {mode!r}")


def oracle_report(spec: SupportSpec, mode: str = "symbolic", seed: int = 0) -> OracleReport:
    """Run the determinant oracle and pair it with the combinatorial check."""
    nonzero, witness = det_is_nonzero(spec, mode=mode, seed=seed)
    condition, _ = check_condition(spec)
    return OracleReport(condition=condition, det_nonzero=nonzero, mode=mode,
                        witness_point=witness)


def sweep_agreement(n: int = 4, k: int = 3, mode: str = "symbolic", seed: int = 0) -> dict:
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
        report = oracle_report(spec, mode=mode, seed=seed)
        total += 1
        if report.condition == report.det_nonzero:
            agree += 1
        else:
            disagreements.append(spec.to_obj())
    return {"n": n, "k": k, "mode": mode, "families": total, "agree": agree,
            "disagreements": disagreements}
