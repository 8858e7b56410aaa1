"""Dense exact linear algebra over Z[zeta_p], whose ranks are those over Q(zeta_p).

Every exact rank and determinant question goes through one fraction-free
(Bareiss) elimination, ``_eliminate``, which keeps intermediate entries equal
to minors of the input and so bounds coefficient blowup.  Only the per-row
reduction depends on the ring: exact ``//`` over Z, ``% q`` over F_q, and
``cyclotomic.exact_divider`` of the previous pivot over Z[zeta_p].  Zero
tests compare coefficient vectors, so they are exact.  The matrix
product hands rows and columns to ``cyclotomic.dot_products``, which
computes each entry as one packed big-integer sum of products, exact at any
coefficient size.

The transform rows (maximal minors of a Moore block) take no determinant:
``bordered_minor_row`` builds them by condensation in O(k^2) ring products.

``ExactMatrix.rank`` is the one full-rank decision.  It eliminates the
matrix's F_q image (``cyclotomic.fq_rows``) first: an image of rank
min(rows, cols) proves that rank, because some maximal minor of the matrix
then has a nonzero image.  Any other outcome only means "unknown", and the
exact elimination over Z[zeta_p] (``_exact_rank``) decides.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from .cyclotomic import CycloElement, GaloisContext, dot_products, exact_divider, fq_rows
from .supports import _int_field


class ExactMatrix:
    """Immutable dense matrix over Z[zeta_p], entries stored row-major."""

    __slots__ = ("ctx", "rows", "cols", "entries", "_strings")

    def __init__(self, ctx: GaloisContext, rows: int, cols: int,
                 entries: Iterable[CycloElement]) -> None:
        es = tuple(entries)
        if len(es) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(es)}")
        for e in es:
            if not isinstance(e, CycloElement) or e.ctx.p != ctx.p:
                raise ValueError("all entries must share the matrix context")
        self.ctx = ctx
        self.rows = rows
        self.cols = cols
        self.entries = es
        self._strings: tuple[tuple[str, ...], ...] | None = None

    @classmethod
    def from_rows(cls, ctx: GaloisContext, rows: Sequence[Sequence[CycloElement]]) -> ExactMatrix:
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        return cls(ctx, r, c, [e for row in rows for e in row])

    def __getitem__(self, key: tuple[int, int]) -> CycloElement:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(key)
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[CycloElement, ...]:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def col(self, j: int) -> tuple[CycloElement, ...]:
        return tuple([self.entries[i * self.cols + j] for i in range(self.rows)])

    def row_lists(self) -> list[list[CycloElement]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> ExactMatrix:
        return ExactMatrix(self.ctx, len(row_idx), len(col_idx),
                           [self[i, j] for i in row_idx for j in col_idx])

    def __matmul__(self, other: ExactMatrix) -> ExactMatrix:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.ctx.p != other.ctx.p:
            raise ValueError("context mismatch")
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        cols = [other.col(j) for j in range(other.cols)]
        return ExactMatrix(self.ctx, self.rows, other.cols,
                           dot_products(self.ctx, self.row_lists(), cols))

    def det(self) -> CycloElement:
        """Exact determinant of a square matrix, a value of Z[zeta_p]."""
        if self.rows != self.cols:
            raise ValueError(f"determinant needs a square matrix, got {self.rows}x{self.cols}")
        if not self.rows:  # _eliminate's signed last pivot is the int 1 here
            return self.ctx.one()
        rank, last = _eliminate(self.row_lists(), _cyclo_quotient)
        return last if rank == self.rows else self.ctx.zero()

    def rank(self) -> int:
        """Exact rank; full rank is proved in F_q when the image has it."""
        rows, full = self.row_lists(), min(self.rows, self.cols)
        if _eliminate(fq_rows(self.ctx, rows), _mod_reducer(self.ctx.modulus))[0] == full:
            return full
        return _exact_rank(rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (self.ctx.p == other.ctx.p and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __hash__(self) -> int:
        return hash((self.ctx.p, self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        return f"ExactMatrix(p={self.ctx.p}, {self.rows}x{self.cols})"

    def to_obj(self) -> dict:
        """Fresh lists over the entries' ``to_strings``, which are built once
        (as tuples, so no caller can change them) and reused by every call:
        writing, comparing with a stored copy and hashing share one conversion."""
        if self._strings is None:
            self._strings = tuple([tuple(e.to_strings()) for e in self.entries])
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [list(s) for s in self._strings],
        }

    @classmethod
    def from_obj(cls, ctx: GaloisContext, obj: dict) -> ExactMatrix:
        """Inverse of ``to_obj``; malformed input raises ValueError."""
        if not isinstance(obj, dict):
            raise ValueError("a matrix must be a JSON object with keys rows, cols and entries")
        items = obj["entries"]
        if not isinstance(items, list):
            raise ValueError("matrix entries must be a list")
        return cls(ctx, _int_field(obj, "rows"), _int_field(obj, "cols"),
                   [CycloElement.from_strings(ctx, item) for item in items])


def _eliminate(rows: Iterable[Sequence], reducer: Callable) -> tuple[int, object]:
    """Rank and signed last pivot of a matrix given as rows (left unchanged).

    A fraction-free elimination with row pivoting that skips pivot-free columns:
    each row below the pivot becomes pivot * row - lead * pivot_row, right of
    the pivot column, passed through ``reducer(prev)``.  Exact division by
    the previous pivot ``prev`` (Bareiss) keeps every entry a minor of the
    input, so a square matrix of full rank ends with its determinant as the
    signed last pivot; reducing mod a prime instead keeps only the rank.
    """
    work = [list(row) for row in rows]
    nr = len(work)
    rank, sign, prev, last = 0, 1, None, 1
    for c in range(len(work[0]) if nr else 0):
        piv = next((i for i in range(rank, nr) if work[i][c]), None)
        if piv is None:
            continue
        if piv != rank:
            work[rank], work[piv] = work[piv], work[rank]
            sign = -sign
        last = work[rank][c]
        if rank + 1 < nr:
            reduce = reducer(prev)
            tail = work[rank][c + 1:]
            for i in range(rank + 1, nr):
                lead = work[i][c]
                work[i][c + 1:] = reduce([last * a - lead * b
                                          for a, b in zip(work[i][c + 1:], tail)])
        prev = last
        rank += 1
        if rank == nr:
            break
    return rank, last if sign == 1 else -last


def _int_quotient(prev: int | None) -> Callable[[list[int]], list[int]]:
    """Reducer over Z: exact integer division by the previous pivot."""
    return lambda row: row if prev is None else [v // prev for v in row]


def _mod_reducer(q: int) -> Callable:
    """Reducer over F_q: no division, since a unit pivot keeps the rank."""
    return lambda prev: lambda row: [v % q for v in row]


def _cyclo_quotient(prev: CycloElement | None) -> Callable[[list], list]:
    """Reducer over Z[zeta_p]: exact division by the previous pivot, whose
    norm and conjugate product are computed once for all its rows."""
    return (lambda row: row) if prev is None else exact_divider(prev)


def _exact_rank(rows: Sequence[Sequence[CycloElement]]) -> int:
    """Rank over Z[zeta_p] by the exact elimination alone, with no F_q attempt."""
    return _eliminate(rows, _cyclo_quotient)[0]


def bordered_minor_row(ctx: GaloisContext,
                       points: Sequence[CycloElement]) -> tuple[CycloElement, ...]:
    """The k signed maximal minors of the k x (k-1) Moore block of the points:
    entry j is det[e_j | block], so the row annihilates the block exactly.

    The row is (-1)^(k-1) c, where D(U, y) = sum_r c_r aut^r(y) is the Moore
    determinant of the points U followed by y.  c grows one point x at a time
    by condensation (Desnanot-Jacobi on the Moore matrix of U, x, y):
    D(U, x, y) aut(D(U)) = D(U, x) aut(D(U, y)) - aut(D(U, x)) D(U, y), an
    exact division by aut of the lead D(U); for the second point the 2 x 2
    minors give c with no division.  A lead of 0 means U is dependent over
    Q, and then so is every extension, so every entry is 0.
    """
    zero = ctx.zero()
    c = [ctx.one()]
    for step, x in enumerate(points):
        lead = c[-1]
        if not lead:
            return (zero,) * (len(points) + 1)
        a = sum((coef * x.aut(r) for r, coef in enumerate(c)), zero)
        if step == 1:
            c = [a.aut(1), points[0].aut(2) * x - points[0] * x.aut(2), a]
        else:
            a_aut = a.aut(1)
            shifted = [zero] + [e.aut(1) for e in c]
            c = [a * s - a_aut * e for s, e in zip(shifted, c + [zero])]
            c = exact_divider(lead.aut(1))(c) if step else c  # the first lead is 1
    return tuple([-e for e in c]) if len(points) % 2 else tuple(c)
