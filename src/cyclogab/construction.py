"""Moore matrices, independence testing, and the randomized generator build.

The build draws integer coordinates for n evaluation points, stacks their
automorphism orbit into a Moore matrix, and multiplies by a row-transform
whose entries are signed maximal minors, which forces the requested zeros
identically.  A draw succeeds when the transform is invertible and the
points are linearly independent over Q (full rank of their integer
coordinate matrix); a single draw fails with probability
at most (n + k*(k-1)) / s_size, so the retry loop below almost never runs
for adequately large sample sets.

A ``ConstructionResult`` records its draw once and derives the Moore matrix
and the generator from its points and transform; loading a stored result
checks the stored copies (the points' sample set size and seed, and both
matrices) against the derived ones.
"""

from __future__ import annotations

import decimal
import math
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence, Union

from .cyclotomic import CycloElement, GaloisContext, _element
from .linalg import ExactMatrix, _eliminate, _int_quotient, bordered_minor_row
from .supports import (SupportSpec, _check_shape, _int_field, _is_int, _is_int_rows,
                       check_condition, complete_sets)


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
    """
    _check_sample_size(s_size)
    if n > ctx.m:
        raise ValueError(f"need n <= {ctx.m} for p={ctx.p}, got n={n}")
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
    if n > ctx.m:
        raise ValueError(f"need n <= {ctx.m} for p={ctx.p}, got n={n}")
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
    return _eliminate(rows, _int_quotient)[0] == len(rows)


@dataclass(frozen=True)
class ConstructionResult:
    """Outcome of a successful build.  ``moore`` is the automorphism orbit of
    the points and ``generator`` is exactly transform @ moore; both are
    derived on creation, never passed in.  The draw is recorded once: the
    points, every coordinate an integer in [0, s_size), come from attempt
    ``retries`` (sample seed ``seed + retries``, at most ``max_retries``)."""

    spec: SupportSpec
    completed: SupportSpec
    points: tuple[CycloElement, ...]
    transform: ExactMatrix
    s_size: int
    seed: int
    max_retries: int
    retries: int
    moore: ExactMatrix = field(init=False)
    generator: ExactMatrix = field(init=False)

    def __post_init__(self) -> None:
        n, k = self.spec.n, self.spec.k
        if (self.transform.rows, self.transform.cols) != (k, k) \
                or len(self.points) != n:
            raise ValueError("inconsistent shapes in construction result")
        if any(not all(0 <= v < self.s_size for v in x.coeffs) for x in self.points):
            raise ValueError("point coordinates must be integers in [0, s_size)")
        if not (self.completed.is_completed()
                and all(a <= b for a, b in zip(self.spec.zeros, self.completed.zeros))):
            raise ValueError("completed pattern must extend the input to k-1 zeros per row")
        if not 0 <= self.retries <= self.max_retries:
            raise ValueError(f"retries must lie in [0, max_retries = {self.max_retries}], "
                             f"got {self.retries}")
        moore = moore_matrix(self.points, k)
        object.__setattr__(self, "moore", moore)
        object.__setattr__(self, "generator", self.transform @ moore)

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


def construct(spec: SupportSpec, ctx: GaloisContext, s_size: int, seed: int,
              max_retries: int = 64) -> ConstructionResult:
    """Build a k x n generator matrix realizing the zero pattern.

    The pattern is padded to k-1 zeros per row first (feasibility permitting).
    Draw attempt a uses sample seed ``seed + a``; the first draw with an
    invertible transform and independent points wins, and ``retries`` records
    how many redraws that took.  The retry loop is a determinization wrapper:
    each single draw already succeeds with probability at least
    1 - (n + k*(k-1)) / s_size.
    """
    if spec.n > ctx.m:
        raise ValueError(f"need n <= {ctx.m} for p={ctx.p}, got n={spec.n}")
    ok, witness = check_condition(spec)
    if not ok:
        raise ValueError(
            f"support condition violated by rows {sorted(witness or ())}; "
            "a full-distance code does not exist, build a subcode instead")
    completed = complete_sets(spec)
    col_sets = [sorted(z) for z in completed.zeros]
    for attempt in range(max_retries + 1):
        pts = sample_points(ctx, spec.n, s_size, seed + attempt)
        t_rows = [bordered_minor_row(ctx, [pts[c - 1] for c in cols])
                  for cols in col_sets]
        transform = ExactMatrix.from_rows(ctx, t_rows)
        if transform.rank() == spec.k and is_independent(pts):
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
