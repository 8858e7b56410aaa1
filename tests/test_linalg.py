from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclogab import ExactMatrix, bordered_minor_row
from cyclogab.linalg import _eliminate
from conftest import CONTEXTS, elements, small_integers
from helpers import (FractionElement, bordered_minor_determinants, cofactor_det,
                     column_subset, coordinate_rank, gaussian_rank, identity, leibniz_det,
                     moore_block, outcome, transpose, zero_matrix, zeta)


def matrices(p, rows, cols):
    ctx = CONTEXTS[p]
    return st.lists(elements(p), min_size=rows * cols, max_size=rows * cols).map(
        lambda es: ExactMatrix(ctx, rows, cols, es))


def test_det_identity(ctx5):
    assert identity(ctx5, 3).det() == ctx5.one()


def test_det_of_empty_matrix(ctx5):
    assert ExactMatrix(ctx5, 0, 0, []).det() == ctx5.one()


def test_det_zero_column(ctx5):
    z, o = ctx5.zero(), ctx5.one()
    m = ExactMatrix.from_rows(ctx5, [[z, o, o], [z, o, z], [z, z, o]])
    assert not m.det()


def test_det_cyclotomic_example(ctx5):
    # det [[z, z^2], [z^2, z^4]] = 1 - z^4 = 2 + z + z^2 + z^3
    m = ExactMatrix.from_rows(ctx5, [[zeta(ctx5, 1), zeta(ctx5, 2)],
                                     [zeta(ctx5, 2), zeta(ctx5, 4)]])
    assert m.det() == ctx5.element([2, 1, 1, 1])


def test_det_rejects_non_square(ctx5):
    with pytest.raises(ValueError):
        zero_matrix(ctx5, 2, 3).det()


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_det_matches_leibniz_sizes_1_to_4(data):
    n = data.draw(st.integers(min_value=1, max_value=4))
    m = data.draw(matrices(5, n, n))
    assert m.det() == leibniz_det(m)


@given(st.data())
@settings(max_examples=8, deadline=None)
def test_det_matches_leibniz_sizes_5_to_6(data):
    n = data.draw(st.integers(min_value=5, max_value=6))
    m = data.draw(matrices(3, n, n))
    assert m.det() == leibniz_det(m)


def test_det_bareiss_handles_zero_pivots(ctx5):
    z, o = ctx5.zero(), ctx5.one()
    # leading column forces a swap, middle column has no pivot at all
    rows = [[z, o, z, o, z],
            [o, z, z, z, o],
            [z, z, z, o, o],
            [o, o, z, z, z],
            [z, o, z, z, o]]
    m = ExactMatrix.from_rows(ctx5, rows)
    assert m.det() == leibniz_det(m)


def test_rank_examples(ctx5):
    assert zero_matrix(ctx5, 3, 4).rank() == 0
    assert identity(ctx5, 4).rank() == 4
    row = [ctx5.one(), zeta(ctx5, 1), zeta(ctx5, 2)]
    scaled = [zeta(ctx5, 1) * e for e in row]
    assert ExactMatrix.from_rows(ctx5, [row, scaled]).rank() == 1


@given(st.data())
@settings(max_examples=20, deadline=None)
def test_rank_transpose_invariant(data):
    rows = data.draw(st.integers(min_value=1, max_value=3))
    cols = data.draw(st.integers(min_value=1, max_value=3))
    m = data.draw(matrices(5, rows, cols))
    assert m.rank() == transpose(m).rank()


def rank_mod(rows, q):
    """Rank over F_q by Gaussian elimination with modular inverses."""
    rows = [[v % q for v in row] for row in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], -1, q)
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] * inv
            rows[i] = [(a - f * b) % q for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def shaped_rows(draw, entries, max_side, combine):
    """A rows x cols list of drawn entries, 0 <= rows, cols <= max_side;
    sometimes row 3 is replaced by combine(row 1, row 2) to force a rank drop."""
    r = draw(st.integers(min_value=0, max_value=max_side))
    c = draw(st.integers(min_value=0, max_value=max_side))
    rows = [[draw(entries) for _ in range(c)] for _ in range(r)]
    if r >= 3 and draw(st.booleans()):
        rows[2] = [combine(a, b) for a, b in zip(rows[0], rows[1])]
    return rows


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_eliminate_over_integers_and_fq(data):
    # sparse entries give zero pivots and pivot-free columns
    entries = st.sampled_from([0, 0, 0, 1, -1, 2, -3, 5])
    rows = shaped_rows(data.draw, entries, 5, lambda a, b: a + 2 * b)
    before = [row[:] for row in rows]
    rank, last = _eliminate(rows)
    assert rows == before
    assert rank == gaussian_rank([[Fraction(v) for v in row] for row in rows])
    if rows and len(rows) == len(rows[0]):
        assert (last if rank == len(rows) else 0) == cofactor_det(rows, 1)
    for q in (2, 3, 7, CONTEXTS[5].modulus):
        assert _eliminate(rows, q)[0] == rank_mod(rows, q)


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_eliminate_over_cyclotomic(data):
    # every pivot after the first divides exactly, non-units included
    p = data.draw(st.sampled_from([5, 11]))
    ctx = CONTEXTS[p]
    entries = st.one_of(st.just(ctx.zero()), elements(p))
    rows = shaped_rows(data.draw, entries, 5 if p == 5 else 4, lambda a, b: a - b * zeta(ctx, 2))
    rank, last = _eliminate(rows)
    assert rank == gaussian_rank(rows)
    if rows and len(rows) == len(rows[0]):
        assert (last if rank == len(rows) else ctx.zero()) == cofactor_det(rows, ctx.one())


def test_eliminate_mod_q_reduces_its_input():
    # every entry of column 0 is a multiple of 7: none may be a pivot mod 7
    rows = [[7, 1, 2], [-14, 2, 11], [21, 3, 6]]
    assert _eliminate(rows)[0] == 2
    assert _eliminate(rows, 7) == (1, 1)
    assert rank_mod(rows, 7) == 1


def test_bordered_minor_row_k2(ctx5):
    # the Moore block of one point x is [[x], [aut(x)]]
    x = ctx5.element([3, 1, 0, 0])
    assert bordered_minor_row(ctx5, [x]) == (x.aut(1), -x)


def test_bordered_minor_row_k1(ctx5):
    assert bordered_minor_row(ctx5, []) == (ctx5.one(),)


def test_bordered_minor_row_zero_column(ctx5):
    # a zero point is a zero column of the block, in first and in last place
    for pts in ([ctx5.zero(), ctx5.one()], [ctx5.one(), zeta(ctx5, 1), ctx5.zero()]):
        assert all(not e for e in bordered_minor_row(ctx5, pts))


def test_bordered_minor_row_context_check(ctx5, ctx7):
    with pytest.raises(ValueError):
        bordered_minor_row(ctx5, [ctx7.one()])


def minor_row_points(draw, p, k):
    """k-1 points of Z[zeta_p]: drawn values, sometimes with a zero point, a
    repeated point or an integer combination of earlier points planted."""
    ctx = CONTEXTS[p]
    pts = [draw(elements(p)) for _ in range(k - 1)]
    if k >= 3:
        i = draw(st.integers(min_value=1, max_value=k - 2))
        plant = draw(st.sampled_from(["none", "zero", "repeat", "combination"]))
        if plant == "zero":
            pts[i] = ctx.zero()
        elif plant == "repeat":
            pts[i] = pts[i - 1]
        elif plant == "combination":
            pts[i] = sum((x * draw(small_integers()) for x in pts[:i]), ctx.zero())
    return pts


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_bordered_row_matches_determinant_oracle(data):
    p = data.draw(st.sampled_from([3, 5, 7, 11, 13]))
    k = data.draw(st.integers(min_value=1, max_value=6))
    ctx = CONTEXTS[p]
    pts = minor_row_points(data.draw, p, k)
    v = bordered_minor_row(ctx, pts)
    assert v == bordered_minor_determinants(moore_block(ctx, pts, k))
    # the row vanishes exactly when the points are dependent over Q
    assert any(v) == (coordinate_rank(pts) == len(pts))


@given(st.data())
@settings(max_examples=15, deadline=None)
def test_bordered_row_equals_bordered_determinants(data):
    # definitional oracle: entry j is the determinant of the Moore block with
    # the j-th standard basis vector glued on as a first column
    k = data.draw(st.integers(min_value=1, max_value=4))
    ctx = CONTEXTS[5]
    pts = minor_row_points(data.draw, 5, k)
    block = moore_block(ctx, pts, k)
    v = bordered_minor_row(ctx, pts)
    for j in range(k):
        basis_col = [ctx.one() if i == j else ctx.zero() for i in range(k)]
        bordered = ExactMatrix.from_rows(
            ctx, [[basis_col[i], *block.row(i)] for i in range(k)])
        assert v[j] == leibniz_det(bordered)


@given(st.data())
@settings(max_examples=20, deadline=None)
def test_bordered_row_annihilates_block(data):
    p = data.draw(st.sampled_from([3, 5, 7, 11, 13]))
    k = data.draw(st.integers(min_value=2, max_value=6))
    ctx = CONTEXTS[p]
    pts = minor_row_points(data.draw, p, k)
    v = bordered_minor_row(ctx, pts)
    block = moore_block(ctx, pts, k)
    assert ExactMatrix(ctx, 1, k, v) @ block == zero_matrix(ctx, 1, k - 1)


def test_matmul_and_identity(ctx5):
    m = ExactMatrix.from_rows(ctx5, [[zeta(ctx5, 1), ctx5.one()],
                                     [ctx5.zero(), zeta(ctx5, 3)]])
    eye = identity(ctx5, 2)
    assert m @ eye == m
    assert eye @ m == m
    with pytest.raises(ValueError):
        m @ zero_matrix(ctx5, 3, 2)


def test_submatrix_and_indexing(ctx5):
    es = [ctx5.from_rational(i) for i in range(6)]
    m = ExactMatrix(ctx5, 2, 3, es)
    assert m[1, 2] == ctx5.from_rational(5)
    sub = m.submatrix([1], [0, 2])
    assert sub.row(0) == (ctx5.from_rational(3), ctx5.from_rational(5))
    assert column_subset(m, [1]).col(0) == (ctx5.from_rational(1), ctx5.from_rational(4))


def test_matrix_hash_follows_equality(ctx5):
    rows = [[ctx5.from_rational(1), zeta(ctx5, 1)], [ctx5.zero(), ctx5.from_rational(3)]]
    a = ExactMatrix.from_rows(ctx5, rows)
    b = ExactMatrix.from_rows(ctx5, [list(row) for row in rows])
    assert a == b and hash(a) == hash(b)
    assert len({a, b, transpose(a)}) == 2


def test_matrix_serialization_round_trip(ctx5):
    m = ExactMatrix.from_rows(ctx5, [[zeta(ctx5, 1), ctx5.element([1, -2, 0, 3])],
                                     [ctx5.zero(), ctx5.one()]])
    obj = m.to_obj()
    assert obj["rows"] == 2 and obj["cols"] == 2
    assert ExactMatrix.from_obj(ctx5, obj) == m


def test_entry_context_enforced(ctx5, ctx7):
    with pytest.raises(ValueError):
        ExactMatrix(ctx5, 1, 1, [ctx7.one()])


C5, C7 = CONTEXTS[5], CONTEXTS[7]


@pytest.mark.parametrize("call, expected", [
    (lambda: ExactMatrix(C5, 2, 2, [C5.one()] * 3), (ValueError, "expected 4 entries, got 3")),
    (lambda: ExactMatrix.from_rows(C5, [[C5.one(), C5.one()], [C5.one()]]),
     (ValueError, "ragged rows")),
    (lambda: identity(C5, 2)[2, 0], (IndexError, "(2, 0)")),
    (lambda: identity(C5, 2) @ identity(C7, 2), (ValueError, "context mismatch")),
    (lambda: identity(C5, 2) @ 3,
     (TypeError, "unsupported operand type(s) for @: 'ExactMatrix' and 'int'")),
    (lambda: identity(C5, 2).__eq__(3), NotImplemented),
], ids=["entry-count", "ragged", "index-past-shape", "matmul-two-conductors", "matmul-int",
        "eq-int"])
def test_matrix_guards(call, expected):
    assert outcome(call) == expected


@pytest.mark.parametrize("rows, cols", [(1.0, 1), (1, True), ("1", 1)])
def test_shape_must_be_integers(ctx5, rows, cols):
    with pytest.raises(ValueError, match="must be an integer"):
        ExactMatrix(ctx5, rows, cols, [ctx5.one()])


def reference_matmul(lhs: ExactMatrix, rhs: ExactMatrix):
    """Schoolbook product of Fraction-coefficient references, row-major."""
    ctx = lhs.ctx
    out = []
    for i in range(lhs.rows):
        for j in range(rhs.cols):
            acc = FractionElement(ctx, [0] * ctx.m)
            for t in range(lhs.cols):
                acc = acc + FractionElement(ctx, lhs[i, t].coeffs) * FractionElement(
                    ctx, rhs[t, j].coeffs)
            out.append(acc)
    return out


def assert_product_matches(lhs, rhs):
    got = lhs @ rhs
    assert (got.rows, got.cols) == (lhs.rows, rhs.cols)
    for entry, want in zip(got.entries, reference_matmul(lhs, rhs), strict=True):
        assert entry.coeffs == want.coeffs


def coefficient_matrices(ctx, rows, cols):
    """Matrices with zero entries and coefficients up to 2^70."""
    num = st.one_of(st.integers(-2 ** 70, 2 ** 70), st.sampled_from([2 ** 70, -2 ** 70]))
    coeffs = st.lists(num, min_size=ctx.m, max_size=ctx.m)
    entry = st.one_of(st.just(ctx.zero()), coeffs.map(ctx.element))
    return st.lists(entry, min_size=rows * cols, max_size=rows * cols).map(
        lambda es: ExactMatrix(ctx, rows, cols, es))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_matmul_matches_schoolbook_reference(data):
    p = data.draw(st.sampled_from([3, 5, 7, 13]))
    ctx, side = CONTEXTS[p], 2 if p == 13 else 3
    r, inner, c = (data.draw(st.integers(min_value=0, max_value=side)) for _ in range(3))
    lhs = data.draw(coefficient_matrices(ctx, r, inner))
    rhs = data.draw(coefficient_matrices(ctx, inner, c))
    assert_product_matches(lhs, rhs)


@pytest.mark.parametrize("p", [3, 5, 13])
@pytest.mark.parametrize("signs", [(1, 1), (-1, -1), (1, -1)])
def test_matmul_at_the_digit_bound(p, signs):
    # every coefficient at the largest magnitude: the middle coefficient of
    # each dot product reaches inner * m * 2^140, the bound the width allows
    ctx, big = CONTEXTS[p], 2 ** 70
    lhs = ExactMatrix(ctx, 2, 3, [ctx.element([signs[0] * big] * ctx.m)] * 6)
    rhs = ExactMatrix(ctx, 3, 2, [ctx.element([signs[1] * big] * ctx.m)] * 6)
    assert_product_matches(lhs, rhs)
