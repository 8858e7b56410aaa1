"""Independent oracles used to cross-check the library from a second route."""

import cmath
from fractions import Fraction
from itertools import combinations, permutations

from cyclogab import (CompletionError, ConstructionResult, CycloElement, ExactMatrix, SupportSpec,
                      check_condition, linalg)
from cyclogab.cyclotomic import fq_rows
from cyclogab.linalg import _eliminate


def embed(elem, power: int = 1) -> complex:
    """Numerical image of an element under zeta -> exp(2*pi*i*power/p)."""
    z = cmath.exp(2j * cmath.pi * power / elem.ctx.p)
    return sum(float(c) * z ** i for i, c in enumerate(elem.coeffs))


def close(a: complex, b: complex, tol: float = 1e-8) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


class FractionElement:
    """Reference value of Q(zeta_p) held as a plain tuple of Fractions, with
    every operation written the textbook way: products reduce each term by
    zeta^(p-1) = -(1 + ... + zeta^(p-2)), automorphisms map basis elements one
    by one, and the inverse solves a * x = 1 by Gaussian elimination."""

    def __init__(self, ctx, coeffs):
        self.ctx = ctx
        self.coeffs = tuple(Fraction(c) for c in coeffs)
        assert len(self.coeffs) == ctx.m

    def _zeta(self, t):
        m, t = self.ctx.m, t % self.ctx.p
        return FractionElement(self.ctx, [-1] * m if t == m else [int(i == t) for i in range(m)])

    def scale(self, s):
        return FractionElement(self.ctx, [c * s for c in self.coeffs])

    def __add__(self, other):
        return FractionElement(self.ctx, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        total = FractionElement(self.ctx, [0] * self.ctx.m)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                total = total + self._zeta(i + j).scale(a * b)
        return total

    def aut(self, e):
        shift = pow(self.ctx.g, e, self.ctx.p)
        total = FractionElement(self.ctx, [0] * self.ctx.m)
        for i, c in enumerate(self.coeffs):
            total = total + self._zeta(shift * i).scale(c)
        return total

    def inverse(self):
        m = self.ctx.m
        cols = [(self * self._zeta(j)).coeffs for j in range(m)]
        aug = [[cols[j][i] for j in range(m)] + [Fraction(int(i == 0))] for i in range(m)]
        for c in range(m):
            piv = next(r for r in range(c, m) if aug[r][c])
            aug[c], aug[piv] = aug[piv], aug[c]
            aug[c] = [v / aug[c][c] for v in aug[c]]
            for r in range(m):
                if r != c and aug[r][c]:
                    f = aug[r][c]
                    aug[r] = [v - f * w for v, w in zip(aug[r], aug[c])]
        return FractionElement(self.ctx, [row[m] for row in aug])

    def __bool__(self):
        return any(self.coeffs)

    def fq_image(self):
        """Image under zeta -> omega in F_q of a value of Z[zeta], the domain
        of the map."""
        assert all(c.denominator == 1 for c in self.coeffs)
        p, q = self.ctx.p, self.ctx.modulus
        a = 2
        while pow(a, (q - 1) // p, q) == 1:
            a += 1
        omega = pow(a, (q - 1) // p, q)
        return sum(c.numerator * pow(omega, i, q) for i, c in enumerate(self.coeffs)) % q

    def to_strings(self):
        return [f"{c.numerator}/{c.denominator}" for c in self.coeffs]


def reference_aut(elem, e: int) -> tuple[int, ...]:
    """Coefficients of the image under zeta -> zeta^(g^e), by the defining
    loop: each basis exponent i goes to g^e * i mod p, and the coefficient
    landing on zeta^(p-1) is subtracted from all the others."""
    ctx = elem.ctx
    e %= ctx.m
    if e == 0:
        return elem.coeffs
    shift = pow(ctx.g, e, ctx.p)
    out = [0] * ctx.m
    tail = 0  # accumulated coefficient of zeta^(p-1)
    for i, c in enumerate(elem.coeffs):
        if not c:
            continue
        t = (shift * i) % ctx.p
        if t < ctx.m:
            out[t] += c
        else:
            tail += c
    return tuple(v - tail for v in out)


def zeta(ctx, power: int = 1):
    """zeta^power in the power basis; zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2))."""
    t = power % ctx.p
    return ctx.element([-1] * ctx.m if t == ctx.m else [int(i == t) for i in range(ctx.m)])


def rebuild_result(result: ConstructionResult, **changes) -> ConstructionResult:
    """``result`` with the named fields changed, built again through the
    constructor, so its checks run and moore and generator are derived anew."""
    fields = {name: getattr(result, name) for name in result._fields}
    return ConstructionResult(**{**fields, **changes})


def outcome(call):
    """What ``call()`` gives: its value, or the type and message of the
    exception it raised."""
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


def identity(ctx, n: int) -> ExactMatrix:
    one, zero = ctx.one(), ctx.zero()
    return ExactMatrix(ctx, n, n, [one if i == j else zero for i in range(n) for j in range(n)])


def zero_matrix(ctx, rows: int, cols: int) -> ExactMatrix:
    zero = ctx.zero()
    return ExactMatrix(ctx, rows, cols, [zero] * (rows * cols))


def transpose(matrix: ExactMatrix) -> ExactMatrix:
    return ExactMatrix(matrix.ctx, matrix.cols, matrix.rows,
                       [matrix[i, j] for j in range(matrix.cols) for i in range(matrix.rows)])


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
    def zero(cls) -> "SparsePoly":
        return cls()

    @classmethod
    def const(cls, value: int) -> "SparsePoly":
        return cls({(): value})

    @classmethod
    def variable(cls, index: int) -> "SparsePoly":
        return cls({(index,): 1})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other) -> "SparsePoly":
        if isinstance(other, int):
            other = SparsePoly.const(other)
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            terms[mono] = terms.get(mono, 0) + c
        return SparsePoly(terms)

    __radd__ = __add__

    def __neg__(self) -> "SparsePoly":
        return SparsePoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "SparsePoly":
        return self + (-other if isinstance(other, SparsePoly) else SparsePoly.const(-other))

    def __mul__(self, other) -> "SparsePoly":
        if isinstance(other, int):
            return SparsePoly({m: c * other for m, c in self.terms.items()})
        terms: dict[tuple[int, ...], int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(sorted(m1 + m2))
                terms[mono] = terms.get(mono, 0) + c1 * c2
        return SparsePoly(terms)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))


def support_polynomial_matrix(spec: SupportSpec) -> list[list[SparsePoly]]:
    """The k x k coefficient matrix of a completed pattern, symbolically.

    Row i holds the coefficients of prod_{t in zeros_i} (X - a_t) by
    increasing degree, with a_t the variable of index t - 1, so column k is
    identically one and column j has entries of degree k - j.
    """
    if not spec.is_completed():
        raise ValueError("pattern must be completed (k-1 zeros per row) first")
    matrix = []
    for z in spec.zeros:
        coeffs = [SparsePoly.const(1)]
        for t in sorted(z):  # multiply by (X - a_t)
            lifted = [SparsePoly.zero()] * (len(coeffs) + 1)
            for d, c in enumerate(coeffs):
                lifted[d + 1] = lifted[d + 1] + c
                lifted[d] = lifted[d] - c * SparsePoly.variable(t - 1)
            coeffs = lifted
        matrix.append(coeffs)
    return matrix


def symbolic_det(matrix) -> SparsePoly:
    """Determinant by cofactor expansion with memoized column-subset minors:
    the reference against which the oracle's proved verdicts are checked.
    Its cost has no budget, so it serves small k only."""
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


def reference_det_nonzero(spec: SupportSpec) -> bool:
    """Whether the symbolic determinant of a completed pattern is nonzero."""
    return not symbolic_det(support_polynomial_matrix(spec)).is_zero


def violates(spec: SupportSpec, rows) -> bool:
    """Whether the 1-based rows share so many zero columns that
    |common| + |rows| > k, counted with plain sets."""
    rows = sorted(rows)
    if not rows or rows[0] < 1 or rows[-1] > spec.k:
        return False
    common = set(spec.zeros[rows[0] - 1])
    for i in rows[1:]:
        common &= spec.zeros[i - 1]
    return len(common) + len(set(rows)) > spec.k


def total_degree(poly) -> int:
    """Largest monomial degree of a SparsePoly; -1 for the zero polynomial.
    A monomial lists one variable index per unit of degree."""
    return max((len(m) for m in poly.terms), default=-1)


def evaluate(poly, point):
    """Value of a SparsePoly at a point; variable i takes the value point[i]."""
    total = 0
    for mono, c in poly.terms.items():
        val = c
        for i in mono:
            val *= point[i]
        total += val
    return total


def column_subset(matrix: ExactMatrix, cols) -> ExactMatrix:
    """The matrix restricted to the given columns, in their order."""
    return matrix.submatrix(range(matrix.rows), cols)


def perm_sign(perm) -> int:
    inversions = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm))
                     if perm[i] > perm[j])
    return -1 if inversions % 2 else 1


def leibniz_det(matrix: ExactMatrix):
    """Brute-force determinant as a signed sum over all permutations."""
    n = matrix.rows
    ctx = matrix.ctx
    total = ctx.zero()
    for perm in permutations(range(n)):
        prod = ctx.one()
        for i, j in enumerate(perm):
            prod = prod * matrix[i, j]
        total = total + prod if perm_sign(perm) > 0 else total - prod
    return total


def brute_condition(spec: SupportSpec) -> bool:
    """Direct enumeration of every nonempty row subset, no dedup, no memo."""
    for r in range(1, spec.k + 1):
        for omega in combinations(range(spec.k), r):
            common = set(spec.zeros[omega[0]])
            for i in omega[1:]:
                common &= spec.zeros[i]
            if len(common) + len(omega) > spec.k:
                return False
    return True


def brute_required_dimension(spec: SupportSpec) -> int:
    best = 0
    for r in range(1, spec.k + 1):
        for omega in combinations(range(spec.k), r):
            common = set(spec.zeros[omega[0]])
            for i in omega[1:]:
                common &= spec.zeros[i]
            best = max(best, len(common) + len(omega))
    return best


def reference_complete_sets(spec: SupportSpec) -> SupportSpec:
    """The completion greedy by full condition checks: rows in increasing
    order, and for each missing zero the least column whose addition leaves
    the whole pattern feasible.  ``complete_sets`` must pick the same."""
    if not check_condition(spec)[0]:
        raise ValueError("pattern must satisfy the support condition before completion")
    zeros = [set(z) for z in spec.zeros]
    for i in range(spec.k):
        while len(zeros[i]) < spec.k - 1:
            for c in range(1, spec.n + 1):
                if c in zeros[i]:
                    continue
                candidate = SupportSpec(spec.n, spec.k,
                                        [z | {c} if t == i else z for t, z in enumerate(zeros)])
                if check_condition(candidate)[0]:
                    zeros[i].add(c)
                    break
            else:
                raise CompletionError(f"no admissible column for row {i + 1}")
    if all(len(z) == len(orig) for z, orig in zip(zeros, spec.zeros)):
        return spec
    return SupportSpec(spec.n, spec.k, zeros)


def subset_values(spec: SupportSpec):
    """Yield (value, rows) over nonempty row subsets in increasing order of
    their group mask (bit b for the b-th distinct zero set, in first-row
    order), with memoized intersections along the subset lattice; value is
    |common columns| + |rows| with every copy of each chosen zero set.

    The walk visits all 2^d group masks; it is the reference that the
    matching-based check in ``supports`` must match in verdict, witness
    and ell.
    """
    groups: dict[frozenset[int], list[int]] = {}
    for i, z in enumerate(spec.zeros, start=1):
        groups.setdefault(z, []).append(i)
    zs, members = list(groups), list(groups.values())
    d = len(zs)
    inter: list[frozenset[int]] = [frozenset()] * (1 << d)
    count = [0] * (1 << d)
    for mask in range(1, 1 << d):
        low = mask & -mask
        li = low.bit_length() - 1
        rest = mask ^ low
        inter[mask] = inter[rest] & zs[li] if rest else zs[li]
        count[mask] = count[rest] + len(members[li])
        rows = frozenset(r for b in range(d) if mask >> b & 1 for r in members[b])
        yield len(inter[mask]) + count[mask], rows


def enumerated_condition(spec: SupportSpec) -> tuple[bool, frozenset[int] | None]:
    """Verdict and witness (the first violating row set of the walk)."""
    for value, rows in subset_values(spec):
        if value > spec.k:
            return False, rows
    return True, None


def enumerated_required_dimension(spec: SupportSpec) -> int:
    return max(value for value, _ in subset_values(spec))


def gaussian_rank(rows) -> int:
    """Rank by textbook Gaussian elimination with field division; entries are
    Fractions or elements, which are divided as ``FractionElement``s."""
    rows = [[FractionElement(e.ctx, e.coeffs) if isinstance(e, CycloElement) else e
             for e in row] for row in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][c]:
                pivot = rows[rank][c]
                f = rows[i][c] / pivot if isinstance(pivot, Fraction) \
                    else rows[i][c] * pivot.inverse()
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def moore_block(ctx, points, rows):
    """rows x len(points) Moore matrix: entry (r, j) is aut^r of point j; unlike
    ``moore_matrix`` it takes any number of points and rows."""
    return ExactMatrix.from_rows(ctx, [[x.aut(r) for x in points] for r in range(rows)])


def bordered_minor_determinants(block: ExactMatrix):
    """The k signed maximal minors of a k x (k-1) block as k determinants:
    entry j is (-1)^j times the determinant of the block without row j."""
    rows = block.row_lists()
    out = []
    for j in range(block.rows):
        d = ExactMatrix(block.ctx, block.rows - 1, block.cols,
                        [e for row in rows[:j] + rows[j + 1:] for e in row]).det()
        out.append(d if j % 2 == 0 else -d)
    return tuple(out)


def cofactor_det(rows, one):
    """Determinant by first-row cofactor expansion over any commutative ring."""
    if not rows:
        return one
    total = one - one
    for j, head in enumerate(rows[0]):
        term = head * cofactor_det([row[:j] + row[j + 1:] for row in rows[1:]], one)
        total = total - term if j % 2 else total + term
    return total


def coordinate_rank(points) -> int:
    """Rank over Q of the rational coordinate vectors of the points.

    Linear independence of field elements over Q is equivalent to full rank
    here, which gives a route to the independence decision that never touches
    Moore matrices or automorphisms.
    """
    return gaussian_rank([[Fraction(c) for c in x.coeffs] for x in points])


def brute_hamming_distance(matrix: ExactMatrix) -> int:
    """Distance via the largest rank-deficient column set, scanning all subsets."""
    k, n = matrix.rows, matrix.cols
    widest = k - 1  # any k-1 columns are trivially rank-deficient for k rows
    for size in range(k, n + 1):
        for cols in combinations(range(n), size):
            if column_subset(matrix, cols).rank() < k:
                widest = max(widest, size)
    return n - widest


def patch_exact_eliminate(monkeypatch, modules, fn) -> None:
    """Send every exact ``_eliminate(rows)`` call (no modulus) that the modules
    make to fn(rows); calls with a modulus run unchanged."""
    for module in modules:
        monkeypatch.setattr(module, "_eliminate",
                            lambda rows, q=None: _eliminate(rows, q) if q else fn(rows))


def proves_full_row_rank(image, q: int) -> bool:
    """True when an F_q image has full row rank: a proof that the exact
    matrix has full row rank.  False means unknown, never rank-deficient."""
    return _eliminate(image, q)[0] == len(image)


def refuse_rank_deficient(matrix: ExactMatrix) -> None:
    """The reference sweep's check before any subset: an F_q proof of full
    row rank, else one exact rank, which must reach k."""
    if not proves_full_row_rank(fq_rows(matrix.ctx, matrix.row_lists()), matrix.ctx.modulus) \
            and matrix.rank() < matrix.rows:
        raise ValueError("matrix is rank-deficient; its rows do not generate a k-dimensional code")


def reference_distance_sweep(matrix: ExactMatrix, max_checks: int) -> tuple[int, int]:
    """(distance, checks) of ``certify._distance_sweep`` by one F_q elimination
    per column subset: each size s visits its subsets in combinations order
    and stops at the first one whose columns of the matrix's image do not
    prove full rank and whose exact rank (``linalg._eliminate(rows)``, looked up
    at each call) is below k; the budget error fires at subset max_checks + 1.
    A rank-deficient matrix is refused first (``refuse_rank_deficient``), so
    here the budget error never hides that refusal."""
    k, n = matrix.rows, matrix.cols
    q = matrix.ctx.modulus
    refuse_rank_deficient(matrix)
    image = fq_rows(matrix.ctx, matrix.row_lists())
    checks = 0
    for s in range(k, n + 1):
        for cols in combinations(range(n), s):
            checks += 1
            if checks > max_checks:
                raise ValueError(f"column-subset budget {max_checks} exceeded")
            if not proves_full_row_rank([[row[c] for c in cols] for row in image], q) \
                    and linalg._eliminate(column_subset(matrix, cols).row_lists())[0] < k:
                break
        else:
            return n - s + 1, checks
    raise AssertionError("unreachable: a full-rank matrix has full rank at s = n")
