"""Zero-pattern bookkeeping for support-constrained generator matrices.

A pattern assigns each of the k rows a set of columns that must hold exact
zeros.  A pattern is feasible for a full-distance code iff every nonempty
set of rows satisfies: (number of commonly constrained columns) + (number of
rows) <= k.  Columns are 1-based everywhere, matching the file format.

The condition is decided in polynomial time.  Rows with identical zero sets
form one group, and groups are ordered by their first row.  For each group
h, the best row set made of h and some earlier groups is a maximum
independent set of a bipartite graph (earlier rows against the zero columns
of h, joined where a row has no zero), found by one maximum matching
(Koenig-Egervary).  The required dimension is the best of these values.  A
violated condition is witnessed by the violating row set whose group mask
(bit b for group b) is the least integer, found with at most one more
matching per group.

Three exact shortcuts save matchings and their steps.  A row set made of the
forced rows, some free rows and columns from a mask has value at most
forced + (free rows) + |columns|; when that count bound is at most k, no
graph is built and no matching runs.  Kuhn's search stops once its matching
brings the value down to k, and once every column of the mask is matched.
The first two report any value at most k as k: every caller only compares a
value with k, and the required dimension is at least k anyway (all k rows
give |common zeros| + k).  The group values are computed once per pattern
object and kept on it, so repeated checks of one pattern (construction,
completion, the oracle, the witness pass of ``check``) cost one computation.

Completion pads each zero set of a feasible pattern to k-1 columns.  Adding
column c to row i can only break the condition for row sets made of i and
rows that already hold c, and for those the common zeros grow by exactly c.
So c is admissible iff the best such set, with row i and column c counted as
forced, has value at most k: at most one matching per candidate, over column
masks of the zero sets.  The rows holding each column are kept as a bit mask,
so the count bound is decided from their number before any list is built.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain
from typing import Iterable

MAX_ROWS = 24  # input bound on k; the check itself is polynomial in k
_ZEROS_TYPE_ERROR = "pattern field 'zeros' must be a list of lists of integer columns"
_ROW_TYPES = {list, tuple, set, frozenset}  # rows that can be read twice
_TABLE_WIDTH = 1024  # widest union of zero sets whose masks come from a table of 1 << j


class CompletionError(RuntimeError):
    """Padding a pattern found no admissible column, or the padded pattern
    failed its final check; this signals an internal bug or a violated
    precondition, not a property of the input."""


class _Record:
    """Value semantics over the fields named in ``_fields``: records of one
    class with equal fields are equal and hash alike, the repr names the class
    and its fields, and assigning or deleting an attribute raises AttributeError."""

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")


class SupportSpec(_Record):
    """Zero pattern: k <= MAX_ROWS row sets of 1-based column indices inside [1, n]."""

    n: int
    k: int
    zeros: tuple[frozenset[int], ...]
    _fields = ("n", "k", "zeros")

    def __init__(self, n: int, k: int, zeros: Iterable[Iterable[int]]) -> None:
        # check the types (plain ints), the bound on k before any row is read,
        # the shape, the row count and the column range
        n, k = _require_int("n", n), _require_int("k", k)
        if k > MAX_ROWS:
            raise ValueError(f"row count {k} exceeds the input bound MAX_ROWS = {MAX_ROWS}")
        try:
            rows = [*zeros]
        except TypeError:  # zeros is not iterable
            raise ValueError(_ZEROS_TYPE_ERROR) from None
        if not ({*map(type, rows)} <= _ROW_TYPES
                and {*map(type, chain.from_iterable(rows))} <= {int}):
            raise ValueError(_ZEROS_TYPE_ERROR)
        # a list first: tuple() over a map grows by resizing, which raised peak RSS
        zs = tuple([frozenset(z) for z in rows])
        _check_shape(n, k)
        if len(zs) != k:
            raise ValueError(f"expected {k} zero sets, got {len(zs)}")
        for i, z in enumerate(zs, start=1):
            if z and (min(z) < 1 or max(z) > n):
                raise ValueError(f"row {i} has columns outside [1, {n}]")
        vars(self).update(n=n, k=k, zeros=zs)

    def to_obj(self) -> dict:
        return {"n": self.n, "k": self.k, "zeros": [sorted(z) for z in self.zeros]}

    @classmethod
    def from_obj(cls, obj: dict) -> SupportSpec:
        """Pattern from parsed JSON; anything but integer n and k and a list of
        lists of integer columns raises ValueError."""
        if not isinstance(obj, dict):
            raise ValueError("a pattern must be a JSON object with keys n, k and zeros")
        return cls(obj.get("n"), obj.get("k"), obj.get("zeros"))

    def is_completed(self) -> bool:
        return all(len(z) == self.k - 1 for z in self.zeros)

    @cached_property
    def _group_values(self) -> tuple[list[tuple[int, tuple[int, ...]]], list[int]]:
        """The groups of ``_groups`` and their ``_top_values``, computed on
        first use and kept on this object (outside the compared fields)."""
        groups = _groups(self)
        return groups, _top_values(groups, self.k)


def _check_shape(n: int, k: int) -> None:
    """Refuse a code shape outside 1 <= k <= n with ValueError."""
    if k < 1 or n < k:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_int_rows(value) -> bool:
    """True iff value is a list of plain lists of plain integers, one set of
    types per level: JSON decodes to no other list or int type, and a bool
    or any other subclass is refused."""
    return (isinstance(value, list) and {*map(type, value)} <= {list}
            and {*map(type, chain.from_iterable(value))} <= {int})


def _require_int(key: str, value) -> int:
    """value when it is an integer (not a bool, float or string), else ValueError."""
    if not _is_int(value):
        raise ValueError(f"field {key!r} must be an integer, got {value!r}")
    return value


def _int_field(obj: dict, key: str) -> int:
    return _require_int(key, obj.get(key))


def _column_mask(columns: Iterable[int], width: int) -> int:
    """Integer with bit j set for each column index j in [0, width)."""
    bits = bytearray(width // 8 + 1)
    for j in columns:
        bits[j >> 3] |= 1 << (j & 7)
    return int.from_bytes(bits, "little")


def _groups(spec: SupportSpec) -> list[tuple[int, tuple[int, ...]]]:
    """(column mask, rows) per distinct zero set, in first-row order.

    Column c is bit j of a mask when c is the j-th smallest column of the
    union of the zero sets, so masks are as wide as the input, whatever n is.
    A mask is the sum of its columns' entries in one table of 1 << j.  That
    table holds width^2 / 2 bits, so a union wider than ``_TABLE_WIDTH``
    builds each mask in a bytearray instead, linear in the width.
    """
    rows: dict[frozenset[int], list[int]] = {}
    for i, z in enumerate(spec.zeros, start=1):
        rows.setdefault(z, []).append(i)
    columns = sorted(frozenset().union(*rows))
    width = len(columns)
    if width > _TABLE_WIDTH:
        index = dict(zip(columns, range(width)))
        return [(_column_mask(map(index.__getitem__, z), width), tuple(r))
                for z, r in rows.items()]
    bit = dict(zip(columns, map((1).__lshift__, range(width))))
    return [(sum(map(bit.__getitem__, z)), tuple(r)) for z, r in rows.items()]


def _matching_size(adjacency: list[int], columns: int, need: int) -> int:
    """Size of a maximum matching between left vertices and column bits, or
    ``need`` once a matching that large is found; adjacency[u] is the column
    mask of vertex u, inside ``columns``.  A greedy pass gives each vertex its
    lowest free column, then Kuhn's augmenting paths start from the vertices
    it leaves unmatched.  Both stop once every column is matched."""
    owner: dict[int, int] = {}  # matched column bit -> its left vertex
    taken = 0  # mask of the matched columns
    seen = 0  # matched columns already reached by the current search

    def augment(u: int) -> bool:
        nonlocal taken, seen
        free = adjacency[u] & ~taken
        if free:
            bit = free & -free
            taken |= bit
            owner[bit] = u
            return True
        options = adjacency[u] & ~seen
        seen |= options
        while options:
            bit = options & -options
            options ^= bit
            if augment(owner[bit]):
                owner[bit] = u
                return True
        return False

    size = 0
    waiting = []  # vertices the greedy pass leaves unmatched
    for u, mask in enumerate(adjacency):  # greedy pass: the lowest free column
        if size == need or taken == columns:
            return size
        free = mask & ~taken
        if free:
            bit = free & -free
            taken |= bit
            owner[bit] = u
            size += 1
        else:
            waiting.append(u)
    for u in waiting:  # Kuhn's search only from the vertices left over
        if size == need or taken == columns:
            break
        seen = 0
        size += augment(u)
    return size


def _best_value(columns: int, forced: int, masks: list[int], k: int) -> int:
    """Largest forced + |rows of S| + |columns common to every zero set of S|
    over the subsets S of the free rows, whose zero sets have the column
    masks ``masks``, with columns drawn from the mask ``columns``; k in its
    place when it is at most k.

    A row set S and columns C lying in all its zero sets form an independent
    set of the bipartite graph joining each free row to the columns of the
    mask it has no zero in, so by Koenig-Egervary the largest |S| + |C| is
    the vertex count (the count bound) minus a maximum matching.  The count
    bound is checked before the graph is built, and the matching stops once
    it brings the value down to k.
    """
    bound = forced + len(masks) + columns.bit_count()
    if bound <= k:
        return k
    return bound - _matching_size([columns & ~mask for mask in masks], columns, bound - k)


def _top_values(groups: list[tuple[int, tuple[int, ...]]], k: int) -> list[int]:
    """For each group h, the largest value of a row set whose groups are h
    and some of the earlier ones (k when that is at most k)."""
    values: list[int] = []
    earlier: list[int] = []  # the column mask of every row of the earlier groups
    for columns, rows in groups:
        values.append(_best_value(columns, len(rows), earlier, k))
        earlier += [columns] * len(rows)
    return values


def check_condition(spec: SupportSpec) -> tuple[bool, frozenset[int] | None]:
    """Decide pattern feasibility; on failure also return a violating row set.

    The witness is the violating row set whose group mask (bit b for group
    b) is the least integer.  Its last group is the first h with a value
    above k; then each earlier group, latest first, is left out whenever a
    violating set remains without it, and kept otherwise.
    """
    groups, values = spec._group_values
    k = spec.k
    top = next((h for h, value in enumerate(values) if value > k), None)
    if top is None:
        return True, None
    columns, rows = groups[top][0], list(groups[top][1])
    earlier = [mask for mask, members in groups[:top] for _ in members]
    for mask, members in reversed(groups[:top]):
        del earlier[-len(members):]  # now the rows of the groups before this one
        if _best_value(columns, len(rows), earlier, k) <= k:
            columns &= mask
            rows += members
    return False, frozenset(rows)


def required_dimension(spec: SupportSpec) -> int:
    """Smallest code dimension at which the pattern becomes feasible.

    Equals the maximum over nonempty row subsets of |common columns| + |rows|;
    the pattern is feasible at dimension k exactly when this is <= k.
    """
    return max(spec._group_values[1])


def complete_sets(spec: SupportSpec) -> SupportSpec:
    """Pad every zero set of a feasible pattern to exactly k-1 columns.

    Greedy and deterministic: rows in increasing index order, candidate
    columns in increasing index order, keeping the first admissible
    candidate.  A candidate costs at most one matching (see the module
    docstring), and the completed pattern gets one full condition check,
    which raises CompletionError if it fails.  Returns ``spec`` itself when every row
    already has k-1 zeros.
    """
    ok, _ = check_condition(spec)
    if not ok:
        raise ValueError("pattern must satisfy the support condition before completion")
    if spec.is_completed():
        return spec
    k = spec.k
    index: dict[int, int] = {}  # column -> its mask bit, numbered on first sight
    masks = [sum(1 << index.setdefault(c, len(index)) for c in z) for z in spec.zeros]
    holders: dict[int, int] = {}  # column -> bit j for each row j whose zero set holds it
    for j, z in enumerate(spec.zeros):
        for c in z:
            holders[c] = holders.get(c, 0) | 1 << j
    zeros = [set(z) for z in spec.zeros]
    for i, z in enumerate(zeros):
        # a growing zero set only raises these values, so a rejected column
        # stays rejected and the scan never restarts
        for c in range(1, spec.n + 1):
            if len(z) == k - 1:
                break
            if c in z:
                continue
            held = holders.get(c, 0)
            # the count bound of _best_value, checked before the holders' list is built
            if 2 + held.bit_count() + len(z) > k and _best_value(
                    masks[i], 2, [masks[j] for j in range(k) if held >> j & 1], k) > k:
                continue
            z.add(c)
            masks[i] |= 1 << index.setdefault(c, len(index))
            holders[c] = held | 1 << i
        if len(z) < k - 1:
            raise CompletionError(f"no admissible column for row {i + 1}")
    done = SupportSpec(spec.n, k, zeros)
    if not check_condition(done)[0]:
        raise CompletionError("the completed pattern fails the support condition")
    return done
