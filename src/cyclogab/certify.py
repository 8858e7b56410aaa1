"""Exact verification and distance certification of constructed codes.

Rank distance over an infinite field cannot be measured by enumerating
codewords, so it is certified instead: the certificate records which exact
premises were checked (prescribed zeros hold, the row transform is
invertible, the evaluation points are independent) and claims the
Singleton-achieving value on the strength of the defining property of
Gabidulin codes over cyclic extensions.  The Hamming distance, which the
claim forces to be maximal as well, IS measured exactly through a sweep of
column-subset ranks, giving a falsifiable consequence for every claim.

Every full-rank verdict over Q(zeta_p) (T, each minor of the sweep) is
proved by an F_q image of full rank (``cyclotomic.fq_rows``) or by the
exact ``_eliminate(rows)``; any other image is decided again exactly, so
verdicts, ``checked_minors`` and the certificate bytes do not depend on the
fast path.  q depends only on p and is not recorded.  Point independence is
the exact rank over Z of the points' integer coordinates, by the same call.

The sweep reduces G to F_q once and walks the column subsets depth-first, so
subsets sharing a prefix share its reduction and each subset of a
rank-(k-1) prefix costs one dot product; a prefix that reaches rank k has
its extensions counted, not visited, and every subset the walk reaches in
full, its image known to be deficient, goes to the exact elimination alone.
Visit order, exact calls, the count and the budget error are those of one
F_q elimination per subset of the image.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
from typing import NamedTuple, Sequence

from .construction import ConstructionResult, construct, is_independent
from .linalg import ExactMatrix, _eliminate
from .cyclotomic import GaloisContext, fq_rows
from .supports import SupportSpec, required_dimension

DEFAULT_MAX_CHECKS = 100_000


def _sha256_of(obj: dict) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")
    ).hexdigest()


class Certificate(NamedTuple):
    """Exactly checked premises plus the distance claims they support.

    ``claimed_rank_distance`` is only set together with ``rank_distance_basis``
    naming what backs it ("gabidulin-theorem" for a full-distance build,
    "subcode-sandwich" when the value is pinned between the host code's
    guarantee and the measured Hamming distance).  ``hamming_distance`` is
    None when the minor sweep was skipped.
    """

    support_ok: bool
    t_invertible: bool
    points_independent: bool
    hamming_distance: int | None
    claimed_rank_distance: int | None
    rank_distance_basis: str | None
    ell: int | None
    checked_minors: int
    spec_sha256: str
    matrix_sha256: str

    @property
    def passed(self) -> bool:
        if not (self.support_ok and self.t_invertible and self.points_independent):
            return False
        if self.hamming_distance is None:
            return self.claimed_rank_distance is not None
        return self.claimed_rank_distance == self.hamming_distance

    def to_obj(self) -> dict:
        return {**self._asdict(), "passed": self.passed}


def verify_support(matrix: ExactMatrix, spec: SupportSpec) -> bool:
    """True iff every constrained entry of the matrix is exactly zero."""
    if matrix.rows != spec.k or matrix.cols != spec.n:
        raise ValueError(
            f"shape mismatch: matrix {matrix.rows}x{matrix.cols} vs pattern {spec.k}x{spec.n}")
    return all(not matrix[i, c - 1] for i, z in enumerate(spec.zeros) for c in z)


def _extend_annihilator(ann: list[list[int]], col: Sequence[int], q: int) -> list[list[int]]:
    """A basis of the annihilator in F_q^k of span + col, given one of the
    span's: ``ann`` itself when col lies in the span, else one vector fewer,
    each made orthogonal to col by a combination with the first vector that
    is not (no division)."""
    dots = [sum(map(operator.mul, h, col)) % q for h in ann]
    j = next((i for i, d in enumerate(dots) if d), None)
    if j is None:
        return ann
    d, pivot = dots[j], ann[j]
    return [h if not e else [(d * a - e * b) % q for a, b in zip(h, pivot)]
            for i, (h, e) in enumerate(zip(ann, dots)) if i != j]


def _distance_sweep(matrix: ExactMatrix, max_checks: int) -> tuple[int, int]:
    """Exact Hamming distance of the row space and the number of column
    subsets examined.

    A nonzero codeword vanishing on a column set J exists iff the columns in
    J have rank below k, and such J are closed under taking subsets; the
    distance is therefore n - s + 1 for the first size s at which every
    s-subset has full rank.  Each size visits its subsets in the order of
    ``itertools.combinations`` and stops at the first deficient one.

    The matrix is reduced to F_q once, and the subsets of a size are walked
    depth-first, so subsets sharing a prefix share its reduction.  A prefix
    is held as a basis of the annihilator of its span in F_q^k, kept
    fraction-free: a column outside the span removes one vector, so the
    prefix has rank k minus their number, and with rank k-1 the one vector
    left is the normal that decides each further column by a dot product.
    Once a prefix reaches rank k every extension is proved full, and is
    counted with ``math.comb`` unvisited.  The walk therefore reaches a leaf
    (a whole s-subset) only when its image has rank below k, and decides
    that subset by the exact elimination over Q(zeta_p) alone.  A
    rank-deficient matrix ends every size at its first leaf, so it is
    refused after n - k + 1 exact ranks (or by the budget, if that is
    smaller).  Otherwise verdicts, exact calls and the count, budget error
    included, are those of one F_q elimination per subset.
    """
    k, n = matrix.rows, matrix.cols
    q = matrix.ctx.modulus
    rows = matrix.row_lists()
    columns = list(zip(*fq_rows(matrix.ctx, rows)))
    checks = 0

    def count(subsets: int) -> None:
        nonlocal checks
        checks += subsets
        if checks > max_checks:
            raise ValueError(f"column-subset budget {max_checks} exceeded")

    def full_at(s: int) -> bool:
        # depth-first over the s-subsets; anns[d] annihilates the first d columns
        prefix: list[int] = []
        anns = [[[int(i == j) for j in range(k)] for i in range(k)]]
        c = 0  # next candidate column at depth len(prefix)
        while True:
            ann, left = anns[-1], s - len(prefix)
            if not left:  # a leaf whose image has rank below k: decide exactly
                count(1)
                if _eliminate([[row[c] for c in prefix] for row in rows])[0] < k:
                    return False
            elif c <= n - left:
                if len(ann) == 1 and sum(map(operator.mul, ann[0], columns[c])) % q:
                    count(math.comb(n - c - 1, left - 1))  # rank k: all extensions proved
                else:
                    anns.append(_extend_annihilator(ann, columns[c], q))
                    prefix.append(c)
                c += 1
                continue
            if not prefix:
                return True
            c = prefix.pop() + 1
            anns.pop()

    for s in range(k, n + 1):
        if full_at(s):
            return n - s + 1, checks
    raise ValueError("matrix is rank-deficient; its rows do not generate a k-dimensional code")


def hamming_distance(matrix: ExactMatrix, max_checks: int = DEFAULT_MAX_CHECKS) -> int:
    """Exact minimum Hamming weight over the nonzero row space."""
    return _distance_sweep(matrix, max_checks)[0]


def _certify(result: ConstructionResult, generator: ExactMatrix, spec: SupportSpec,
             distance: int, basis: str, ell: int | None, check_minors: bool) -> Certificate:
    """Check the three premises exactly and claim ``distance`` under ``basis``;
    with ``check_minors`` the measured Hamming distance must equal it."""
    support_ok = verify_support(generator, spec)
    t_invertible = result.transform.rank() == result.transform.rows
    points_independent = is_independent(result.points)

    hamming: int | None = None
    claimed: int | None = None
    tag: str | None = None
    checks = 0
    if support_ok and t_invertible and points_independent:
        if check_minors:
            hamming, checks = _distance_sweep(generator, DEFAULT_MAX_CHECKS)
        if hamming is None or hamming == distance:
            claimed, tag = distance, basis

    return Certificate(
        support_ok=support_ok,
        t_invertible=t_invertible,
        points_independent=points_independent,
        hamming_distance=hamming,
        claimed_rank_distance=claimed,
        rank_distance_basis=tag,
        ell=ell,
        checked_minors=checks,
        spec_sha256=_sha256_of(spec.to_obj()),
        matrix_sha256=_sha256_of(generator.to_obj()),
    )


def certify_mrd(result: ConstructionResult, check_minors: bool = True) -> Certificate:
    """Re-verify a construction from scratch and certify its distances.

    All three premises are recomputed exactly; nothing is trusted from the
    build.  When they hold, the rank distance n-k+1 is claimed under the
    "gabidulin-theorem" tag, and with ``check_minors`` the Hamming distance
    is measured and must confirm the same value.  Failed premises produce a
    failing certificate rather than an exception.
    """
    spec = result.completed
    return _certify(result, result.generator, spec, spec.n - spec.k + 1,
                    "gabidulin-theorem", None, check_minors)


class SubcodeResult(NamedTuple):
    """A k-row generator cut from a higher-dimensional build, certified."""

    generator: ExactMatrix
    certificate: Certificate
    padded: ConstructionResult

    def to_obj(self) -> dict:
        return {
            "generator_sub": self.generator.to_obj(),
            "certificate": self.certificate.to_obj(),
            "padded": self.padded.to_obj(),
        }


def build_subcode(spec: SupportSpec, ctx: GaloisContext, s_size: int, seed: int,
                  max_retries: int = 64, check_minors: bool = True) -> SubcodeResult:
    """Best achievable code for an infeasible pattern: pad with empty rows to
    the required dimension L, build at dimension L, and keep the first k rows.

    The returned certificate carries L in ``ell``; the cut rows inherit zeros
    from the padded build, and the measured Hamming distance must equal
    n - L + 1, which pins the rank distance to the same value.  Feasible
    patterns (L <= k) degenerate to the full-distance path.
    """
    ell = required_dimension(spec)
    if ell <= spec.k:
        result = construct(spec, ctx, s_size, seed, max_retries)
        cert = certify_mrd(result, check_minors)._replace(ell=ell)
        return SubcodeResult(result.generator, cert, result)
    if ell > spec.n:
        raise ValueError(
            f"required dimension {ell} exceeds n={spec.n}; no nontrivial code fits this pattern")

    padded = SupportSpec(spec.n, ell, tuple(spec.zeros) + (frozenset(),) * (ell - spec.k))
    result = construct(padded, ctx, s_size, seed, max_retries)
    sub = result.generator.submatrix(range(spec.k), range(spec.n))
    cert = _certify(result, sub, spec, spec.n - ell + 1, "subcode-sandwich", ell, check_minors)
    return SubcodeResult(sub, cert, result)
