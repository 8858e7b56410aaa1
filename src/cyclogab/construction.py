"""Moore matrices, independence testing, and the generator build.

The build takes n evaluation points, stacks their automorphism orbit into a
Moore matrix, and multiplies by a row-transform whose entries are signed
maximal minors, which forces the requested zeros identically.  An attempt
succeeds when the transform is invertible and the points are linearly
independent over Q (full rank of their integer coordinate matrix); both
premises are decided exactly on every attempt, so the points only set the
cost.  Attempt 0 takes the fixed points 1, zeta, ..., zeta^(n-1) of the
power basis, whose coordinates are unit vectors and whose generator has
small coefficients; they fail only for rare patterns (at p = 7, n = 6,
k = 3 the zeros {1, 6}, {2, 5}, {3, 4} make their transform singular).
Later attempts draw integer coordinates from {0, ..., s_size - 1}, where a
single draw fails with probability at most (n + k*(k-1)) / s_size, so the
retry loop below almost never runs past attempt 1 for adequately large
sample sets.

A ``ConstructionResult`` records its points once and derives the Moore
matrix and the generator from its points and transform; loading a stored
result checks the stored copies (the points' sample set size and seed, and
both matrices) against the derived ones.
"""

from __future__ import annotations

import decimal
import math
import random
import re
from fractions import Fraction
from typing import Sequence, Union

from .cyclotomic import CycloElement, GaloisContext, _element
from .linalg import ExactMatrix, _eliminate, bordered_minor_row
from .supports import (SupportSpec, _check_shape, _int_field, _is_int, _is_int_rows, _Record,
                       _require_int, check_condition, complete_sets)


# Largest accepted sample-set size.  G's coefficients have about
# k * log10(s_size) digits, about 1900 at 2^256 (78 digits) and
# k = MAX_ROWS = 24, so every accepted shape stays below CPython's 4300-digit
# limit on converting an integer to a string and can be written.
MAX_SAMPLE_SIZE = 2 ** 256


def _check_sample_size(s_size: int) -> None:
    """Refuse a sample-set size outside [1, MAX_SAMPLE_SIZE] with ValueError."""
    if s_size < 1:
        raise ValueError(f"sample set size must be >= 1, got {s_size}")
    if s_size > MAX_SAMPLE_SIZE:  # reported by size: str() of it may itself fail
        raise ValueError(f"sample set size of {s_size.bit_length()} bits exceeds "
                         "MAX_SAMPLE_SIZE = 2^256: the generator's coefficients "
                         "would grow past what can be written")


class RetriesExhausted(RuntimeError):
    """Every allowed draw produced a degenerate transform or dependent points."""


class InfeasiblePattern(ValueError):
    """The pattern violates the support condition: no full-distance code has it."""


def _check_width(ctx: GaloisContext, n: int) -> None:
    """Refuse n > p - 1 points, which are dependent over Q, with ValueError."""
    if n > ctx.m:
        raise ValueError(f"need n <= {ctx.m} for p={ctx.p}, got n={n}")


def _parse_epsilon(epsilon: Union[float, str, Fraction]) -> Fraction:
    """epsilon as an exact Fraction in (0, 1]; anything else raises ValueError.

    A string keeps the value ``Fraction`` gives it, but ``Fraction`` builds
    10^e for a decimal exponent e, in time and memory that grow with e, so
    the exponent is read first through ``decimal.Decimal``: a string whose
    value is not positive, at least 10, or below 10^-80 (its sample set
    would be above 10^80 > MAX_SAMPLE_SIZE) is refused without building it.
    Floats are read with decimal semantics ("0.01" means exactly 1/100).
    """
    if isinstance(epsilon, float):
        epsilon = str(epsilon)
    if isinstance(epsilon, str):
        try:
            approx = decimal.Decimal(epsilon)
        except decimal.InvalidOperation:
            # Decimal reads every decimal Fraction reads, save an exponent of 19+ digits
            if re.search(r"[eE][-+]?[\d_]{19}", epsilon):
                raise ValueError(f"epsilon {epsilon} has a decimal exponent out of range; "
                                 "epsilon must be in (0, 1]") from None
            approx = None  # a ratio such as "1/100", or no number at all
        if approx is not None and approx.is_finite():
            if approx <= 0 or approx.adjusted() >= 1:
                raise ValueError(f"epsilon must be in (0, 1], got {epsilon}")
            if approx.adjusted() < -80:
                raise ValueError("epsilon below 10^-80 needs a sample set size that exceeds "
                                 "MAX_SAMPLE_SIZE = 2^256: the generator's coefficients "
                                 "would grow past what can be written")
    try:
        eps = Fraction(epsilon)
    except ZeroDivisionError:
        raise ValueError(f"epsilon {epsilon} has a zero denominator") from None
    if not 0 < eps <= 1:
        raise ValueError(f"epsilon must be in (0, 1], got {epsilon}")
    return eps


def required_sample_size(n: int, k: int, epsilon: Union[float, str, Fraction]) -> int:
    """Smallest sample-set size with failure bound (n + k*(k-1)) / size <= epsilon.

    epsilon is read by ``_parse_epsilon``, so the ceiling is exact; a shape
    outside 1 <= k <= n, an epsilon outside (0, 1], or a size above
    MAX_SAMPLE_SIZE raises ValueError.
    """
    _check_shape(n, k)
    eps = _parse_epsilon(epsilon)
    s_size = math.ceil(Fraction(n + k * (k - 1)) / eps)
    _check_sample_size(s_size)
    return s_size


def sample_points(ctx: GaloisContext, n: int, s_size: int, seed: int) -> tuple[CycloElement, ...]:
    """Draw n points with iid uniform coordinates in {0, ..., s_size - 1}.

    Coordinate j of a point is its coefficient of basis element j.  The
    stream order is row-major (point index outer, basis index inner), so a
    seed pins the draw bit-for-bit.

    The points are dependent with probability at most
    (s^n - 1) / ((s - 1) s^m) < s^(n-m) / (s - 1), for s = s_size >= 2 and
    m = p - 1.  A d-dimensional subspace of Q^m holds at most s^d points of
    {0, ..., s-1}^m, since it projects injectively onto d pivot
    coordinates.  So point i + 1 lies in the span of the first i with
    probability at most s^i / s^m, and the sum over i = 0 .. n-1 is the
    bound.  This bounds the independence premise only; the invertibility
    of the transform stays under the paper's (n + k*(k-1)) / s_size.
    """
    _check_sample_size(s_size)
    _check_width(ctx, n)
    rng = random.Random(seed)
    return tuple([_element(ctx, [rng.randrange(s_size) for _ in range(ctx.m)])
                  for _ in range(n)])


def moore_matrix(points: Sequence[CycloElement], rows: int) -> ExactMatrix:
    """Matrix whose (i, j) entry is the (i-1)-th automorphism power of point j."""
    if not points:
        raise ValueError("need at least one point")
    ctx = points[0].ctx
    if any(x.ctx.p != ctx.p for x in points):
        raise ValueError("context mismatch among points")
    n = len(points)
    if not 1 <= rows <= ctx.m:
        raise ValueError(f"need 1 <= rows <= {ctx.m} for p={ctx.p}, got {rows}")
    _check_width(ctx, n)
    data = [tuple(points)]
    for _ in range(rows - 1):
        data.append(tuple([x.aut(1) for x in data[-1]]))
    return ExactMatrix.from_rows(ctx, data)


def is_independent(points: Sequence[CycloElement]) -> bool:
    """True iff the points are linearly independent over Q, decided as full
    row rank of the n x (p-1) integer matrix of their coordinates."""
    if not points:
        raise ValueError("need at least one point")
    rows = [x.coeffs for x in points]
    return _eliminate(rows)[0] == len(rows)


class ConstructionResult(_Record):
    """Outcome of a successful build.  ``moore`` is the automorphism orbit of
    the points and ``generator`` is exactly transform @ moore; both are
    derived on creation, never passed in.  The points are recorded once,
    every coordinate an integer in [0, s_size); they come from attempt
    ``retries`` of ``construct`` (at most ``max_retries``): the fixed power
    basis points at 0, the draw of sample seed ``seed + retries`` after.
    s_size, seed, max_retries and retries must be plain ints."""

    spec: SupportSpec
    completed: SupportSpec
    points: tuple[CycloElement, ...]
    transform: ExactMatrix
    s_size: int
    seed: int
    max_retries: int
    retries: int
    moore: ExactMatrix
    generator: ExactMatrix
    _fields = ("spec", "completed", "points", "transform", "s_size", "seed", "max_retries",
               "retries")

    def __init__(self, spec: SupportSpec, completed: SupportSpec,
                 points: tuple[CycloElement, ...], transform: ExactMatrix, s_size: int,
                 seed: int, max_retries: int, retries: int) -> None:
        for name, value in (("s_size", s_size), ("seed", seed), ("max_retries", max_retries),
                            ("retries", retries)):
            _require_int(name, value)
        n, k = spec.n, spec.k
        if (transform.rows, transform.cols) != (k, k) or len(points) != n:
            raise ValueError("inconsistent shapes in construction result")
        if any(not all(0 <= v < s_size for v in x.coeffs) for x in points):
            raise ValueError("point coordinates must be integers in [0, s_size)")
        if not (completed.is_completed()
                and all(a <= b for a, b in zip(spec.zeros, completed.zeros))):
            raise ValueError("completed pattern must extend the input to k-1 zeros per row")
        if not 0 <= retries <= max_retries:
            raise ValueError(f"retries must lie in [0, max_retries = {max_retries}], "
                             f"got {retries}")
        moore = moore_matrix(points, k)
        vars(self).update(spec=spec, completed=completed, points=points, transform=transform,
                          s_size=s_size, seed=seed, max_retries=max_retries, retries=retries,
                          moore=moore, generator=transform @ moore)

    def to_obj(self) -> dict:
        return {
            "context": self.moore.ctx.to_obj(),
            "spec": self.spec.to_obj(),
            "completed_zeros": [sorted(z) for z in self.completed.zeros],
            "s_size": self.s_size,
            "seed": self.seed,
            "max_retries": self.max_retries,
            "retries": self.retries,
            "points": {
                "coords": [list(x.coeffs) for x in self.points],
                "sample_set_size": self.s_size,
                "seed": self.seed + self.retries,
            },
            "moore": self.moore.to_obj(),
            "transform": self.transform.to_obj(),
            "generator": self.generator.to_obj(),
        }

    @classmethod
    def from_obj(cls, obj: dict) -> ConstructionResult:
        """Load a stored result; a missing field raises KeyError naming it,
        other malformed input, a stored sample set size or draw seed of the
        points that disagrees with ``s_size`` or ``seed + retries``, and
        stored ``moore`` or ``generator`` matrices that differ from the ones
        derived from the points and the transform, raise ValueError."""
        if not isinstance(obj, dict):
            raise ValueError("a construction result must be a JSON object")
        ctx = GaloisContext.from_obj(obj["context"])
        spec = SupportSpec.from_obj(obj["spec"])
        completed = SupportSpec.from_obj(
            {"n": spec.n, "k": spec.k, "zeros": obj["completed_zeros"]})
        points = obj["points"]
        if not isinstance(points, dict):
            raise ValueError("points must be a JSON object with keys coords, "
                             "sample_set_size and seed")
        coords = points.get("coords")
        if not _is_int_rows(coords):
            raise ValueError("point coords must be a list of lists of integers")
        for row in coords:
            if len(row) != ctx.m:
                raise ValueError(f"expected {ctx.m} coefficients, got {len(row)}")
        drawn_size, drawn_seed = _int_field(points, "sample_set_size"), _int_field(points, "seed")
        transform = _load_matrix(ctx, obj, "transform")
        s_size = _int_field(obj, "s_size")
        if drawn_size != s_size:
            raise ValueError(f"s_size {s_size} differs from the sample set size "
                             f"{drawn_size} of the points")
        result = cls(
            spec=spec,
            completed=completed,
            points=tuple([_element(ctx, row) for row in coords]),
            transform=transform,
            s_size=s_size,
            seed=_int_field(obj, "seed"),
            max_retries=_int_field(obj, "max_retries"),
            retries=_int_field(obj, "retries"),
        )
        if drawn_seed != result.seed + result.retries:
            raise ValueError(f"points drawn with seed {drawn_seed}, but draw attempt "
                             f"{result.retries} of seed {result.seed} uses "
                             f"{result.seed + result.retries}")
        if _load_matrix(ctx, obj, "moore", result.moore) != result.moore:
            raise ValueError("stored moore matrix must be the automorphism orbit of the points")
        if _load_matrix(ctx, obj, "generator", result.generator) != result.generator:
            raise ValueError("stored generator must equal transform @ moore exactly")
        return result


def _load_matrix(ctx: GaloisContext, obj: dict, name: str,
                 derived: ExactMatrix | None = None) -> ExactMatrix:
    """``ExactMatrix.from_obj`` of obj[name], whose ValueError names the
    matrix.  A stored copy of ``derived`` holding exactly what ``to_obj``
    writes is not parsed and loads as ``derived``; an equal value spelled
    otherwise is parsed, so the caller's comparison still holds."""
    stored = obj[name]
    if derived is not None and stored == derived.to_obj() \
            and _is_int(stored["rows"]) and _is_int(stored["cols"]):
        return derived
    try:
        return ExactMatrix.from_obj(ctx, stored)
    except ValueError as exc:
        raise ValueError(f"matrix {name!r}: {exc}") from None


def _power_points(ctx: GaloisContext, n: int) -> tuple[CycloElement, ...]:
    """The fixed points 1, zeta, ..., zeta^(n-1) of attempt 0: point j's
    coordinates are the unit vector e_j, which lies in {0, ..., s_size - 1}^m
    for every s_size >= 2."""
    return tuple([_element(ctx, [int(i == j) for i in range(ctx.m)]) for j in range(n)])


def _attempt(completed: SupportSpec, points: Sequence[CycloElement]) -> ExactMatrix | None:
    """The transform of one attempt on the given points of a completed
    pattern, or None when it is singular or the points are dependent; both
    premises are decided exactly."""
    ctx = points[0].ctx
    rows = [bordered_minor_row(ctx, [points[c - 1] for c in sorted(z)]) for z in completed.zeros]
    transform = ExactMatrix.from_rows(ctx, rows)
    if transform.rank() == completed.k and is_independent(points):
        return transform
    return None


def construct(spec: SupportSpec, ctx: GaloisContext, s_size: int, seed: int,
              max_retries: int = 64) -> ConstructionResult:
    """Build a k x n generator matrix realizing the zero pattern.

    The pattern is padded to k-1 zeros per row first (feasibility permitting).
    Attempt 0 takes the fixed points ``_power_points(ctx, n)`` when s_size >= 2
    (at s_size = 1 it draws like the others); attempt a >= 1 draws with
    sample seed ``seed + a``.  The first attempt with an invertible transform
    and independent points wins, and ``retries`` records its index, so
    ``retries == 0`` with s_size >= 2 means the fixed points.  The draws are
    the paper's randomized construction, a fallback for the rare patterns
    where the fixed points fail: each single draw succeeds with probability
    at least 1 - (n + k*(k-1)) / s_size.  A non-int (or bool) s_size, seed or
    max_retries, an s_size outside [1, MAX_SAMPLE_SIZE], a negative
    max_retries and n > p - 1 raise ValueError before any attempt, in that
    order, and then a pattern that violates the support condition raises
    InfeasiblePattern (a ValueError) naming its witness rows.
    """
    for name, value in (("s_size", s_size), ("seed", seed), ("max_retries", max_retries)):
        _require_int(name, value)
    _check_sample_size(s_size)
    if max_retries < 0:
        raise ValueError(f"need max_retries >= 0, got {max_retries}")
    _check_width(ctx, spec.n)
    ok, witness = check_condition(spec)
    if not ok:
        raise InfeasiblePattern(
            f"support condition violated by rows {sorted(witness or ())}; "
            "a full-distance code does not exist, build a subcode instead")
    completed = complete_sets(spec)
    for attempt in range(max_retries + 1):
        if attempt == 0 and s_size >= 2:
            pts = _power_points(ctx, spec.n)
        else:
            pts = sample_points(ctx, spec.n, s_size, seed + attempt)
        transform = _attempt(completed, pts)
        if transform is not None:
            return ConstructionResult(
                spec=spec,
                completed=completed,
                points=pts,
                transform=transform,
                s_size=s_size,
                seed=seed,
                max_retries=max_retries,
                retries=attempt,
            )
    raise RetriesExhausted(
        f"no successful draw in {max_retries + 1} attempts (s_size={s_size}); "
        "the sample set is almost certainly too small")
