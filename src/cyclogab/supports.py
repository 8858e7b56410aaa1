"""Zero-pattern bookkeeping for support-constrained generator matrices.

A pattern assigns each of the k rows a set of columns that must hold exact
zeros.  A pattern is feasible for a full-distance code iff every nonempty
set of rows satisfies: (number of commonly constrained columns) + (number of
rows) <= k.  Columns are 1-based everywhere, matching the file format.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

MAX_ROWS = 24  # enumeration guard: the subset sweep is exponential in k


class CompletionError(RuntimeError):
    """No admissible column was found while padding a pattern; this signals
    an internal bug or a violated precondition, not a property of the input."""


@dataclass(frozen=True)
class SupportSpec:
    """Zero pattern: k row sets of 1-based column indices inside [1, n]."""

    n: int
    k: int
    zeros: tuple[frozenset[int], ...]

    def __init__(self, n: int, k: int, zeros: Iterable[Iterable[int]]) -> None:
        zs = tuple(frozenset(int(c) for c in z) for z in zeros)
        if k < 1 or n < k:
            raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
        if len(zs) != k:
            raise ValueError(f"expected {k} zero sets, got {len(zs)}")
        for i, z in enumerate(zs, start=1):
            if any(c < 1 or c > n for c in z):
                raise ValueError(f"row {i} has columns outside [1, {n}]")
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "k", int(k))
        object.__setattr__(self, "zeros", zs)

    def to_obj(self) -> dict:
        return {"n": self.n, "k": self.k, "zeros": [sorted(z) for z in self.zeros]}

    @classmethod
    def from_obj(cls, obj: dict) -> SupportSpec:
        """Pattern from parsed JSON; anything but integer n and k and a list of
        lists of integer columns raises ValueError."""
        if not isinstance(obj, dict):
            raise ValueError("a pattern must be a JSON object with keys n, k and zeros")
        n, k, zeros = _int_field(obj, "n"), _int_field(obj, "k"), obj.get("zeros")
        if not _is_int_rows(zeros):
            raise ValueError("pattern field 'zeros' must be a list of lists of integer columns")
        return cls(n, k, zeros)

    def is_completed(self) -> bool:
        return all(len(z) == self.k - 1 for z in self.zeros)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_int_rows(value) -> bool:
    """True iff value is a list of lists of integers."""
    return isinstance(value, list) and all(
        isinstance(row, list) and all(_is_int(v) for v in row) for row in value)


def _int_field(obj: dict, key: str) -> int:
    """obj[key] when it is an integer (not a bool, float or string), else ValueError."""
    value = obj.get(key)
    if not _is_int(value):
        raise ValueError(f"field {key!r} must be an integer, got {value!r}")
    return value


def _distinct_groups(spec: SupportSpec) -> list[tuple[frozenset[int], tuple[int, ...]]]:
    # Identical rows are merged: including one of them in a row subset never
    # beats including all of them, so the sweep only visits distinct sets.
    groups: dict[frozenset[int], list[int]] = {}
    for i, z in enumerate(spec.zeros, start=1):
        groups.setdefault(z, []).append(i)
    return sorted(((z, tuple(rows)) for z, rows in groups.items()),
                  key=lambda item: item[1][0])


def _subset_values(spec: SupportSpec):
    """Yield (value, rows) over nonempty row subsets, visiting distinct zero
    sets with memoized intersections along the subset lattice; value is
    |common columns| + |rows| maximized over duplicates."""
    if spec.k > MAX_ROWS:
        raise ValueError(f"row count {spec.k} exceeds the enumeration guard {MAX_ROWS}")
    groups = _distinct_groups(spec)
    d = len(groups)
    inter: list[frozenset[int] | None] = [None] * (1 << d)
    count: list[int] = [0] * (1 << d)
    for mask in range(1, 1 << d):
        low = mask & -mask
        li = low.bit_length() - 1
        rest = mask ^ low
        if rest:
            inter[mask] = inter[rest] & groups[li][0]  # type: ignore[operator]
            count[mask] = count[rest] + len(groups[li][1])
        else:
            inter[mask] = groups[li][0]
            count[mask] = len(groups[li][1])
        rows = frozenset(r for b in range(d) if mask >> b & 1 for r in groups[b][1])
        yield len(inter[mask]) + count[mask], rows  # type: ignore[arg-type]


def check_condition(spec: SupportSpec) -> tuple[bool, frozenset[int] | None]:
    """Decide pattern feasibility; on failure also return a violating row set."""
    for value, rows in _subset_values(spec):
        if value > spec.k:
            return False, rows
    return True, None


def required_dimension(spec: SupportSpec) -> int:
    """Smallest code dimension at which the pattern becomes feasible.

    Equals the maximum over nonempty row subsets of |common columns| + |rows|;
    the pattern is feasible at dimension k exactly when this is <= k.
    """
    return max(value for value, _ in _subset_values(spec))


def complete_sets(spec: SupportSpec) -> SupportSpec:
    """Pad every zero set of a feasible pattern to exactly k-1 columns.

    Greedy and deterministic: rows in increasing index order, candidate
    columns in increasing index order, keeping the first candidate that
    leaves the pattern feasible.  Each kept candidate is re-verified with the
    full condition check rather than trusted.
    """
    ok, _ = check_condition(spec)
    if not ok:
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
