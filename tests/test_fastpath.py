"""The F_q nonzero proofs: ring map, false zeros, rows whose image keeps one
entry of many, and agreement of the fast and exact routes,
``ExactMatrix.rank`` included."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyclogab import (ExactMatrix, GaloisContext, is_independent, linalg, moore_matrix,
                      sample_points)
from cyclogab.certify import _distance_sweep, hamming_distance
from cyclogab.cyclotomic import fq_rows
from conftest import CONTEXTS
from helpers import (brute_hamming_distance, coordinate_rank, gaussian_rank,
                     proves_full_row_rank, transpose, zeta)


def image(e):
    """The F_q image of one element, as a 1 x 1 matrix."""
    return fq_rows(e.ctx, [[e]])[0][0]


def omega(ctx):
    return image(zeta(ctx, 1))


def false_zero(ctx):
    """zeta - omega: nonzero in Q(zeta_p), zero in F_q."""
    return zeta(ctx, 1) - omega(ctx)


def q_scaled(ctx, row, c):
    """The row times q with entry c set to 1 + q zeta: every other entry maps
    to zero in F_q, so the image is a unit vector that hides the row."""
    q = ctx.modulus
    return [ctx.one() + zeta(ctx, 1) * q if j == c else e * q for j, e in enumerate(row)]


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_modulus_splits_and_is_deterministic(p):
    ctx = GaloisContext(p)
    q, w = ctx.modulus, omega(ctx)
    assert q > 2 ** 61 and q % p == 1
    assert w != 1 and pow(w, p, q) == 1
    assert GaloisContext(p).modulus == q
    # every smaller candidate q' = 1 (mod p) above 2^61 fails a Fermat test
    for cand in range(2 ** 61 + 1, q):
        if cand % p == 1:
            assert pow(2, cand - 1, cand) != 1 or pow(3, cand - 1, cand) != 1


def integral_elements(p):
    """Values of Z[zeta], the domain of the map."""
    ctx = CONTEXTS[p]
    coeff = st.integers(min_value=-2 ** 70, max_value=2 ** 70)
    return st.lists(coeff, min_size=ctx.m, max_size=ctx.m).map(ctx.element)


@given(st.data())
@settings(max_examples=60)
def test_image_is_a_ring_map(data):
    p = data.draw(st.sampled_from([3, 5, 7]))
    ctx = CONTEXTS[p]
    q = ctx.modulus
    a = data.draw(integral_elements(p))
    b = data.draw(integral_elements(p))
    assert image(a + b) == (image(a) + image(b)) % q
    assert image(a - b) == (image(a) - image(b)) % q
    assert image(a * b) == image(a) * image(b) % q
    assert image(ctx.one()) == 1 and image(ctx.zero()) == 0
    if image(a):
        assert a  # a nonzero image is a proof


def test_false_zero_goes_to_exact_fallback(ctx5):
    x = false_zero(ctx5)
    assert x and image(x) == 0
    one, zero = ctx5.one(), ctx5.zero()
    rows = [[x, one], [zero, one]]
    assert fq_rows(ctx5, rows)[0][0] == 0
    assert not proves_full_row_rank(fq_rows(ctx5, rows), ctx5.modulus)
    m = ExactMatrix.from_rows(ctx5, rows)
    assert m.rank() == 2
    singular = ExactMatrix.from_rows(ctx5, [[x, x], [one, one]])
    assert singular.rank() == 1


def test_false_zero_in_the_sweep(ctx5):
    x = false_zero(ctx5)
    one, zero = ctx5.one(), ctx5.zero()
    # the minor on columns {1, 2} is x: zero mod q, nonzero exactly
    g = ExactMatrix.from_rows(ctx5, [[one, zero, one], [zero, x, one]])
    assert _distance_sweep(g, 100) == (2, 3)
    assert brute_hamming_distance(g) == 2
    # a true zero column still lowers the distance
    h = ExactMatrix.from_rows(ctx5, [[one, zero, x], [zero, zero, one]])
    assert hamming_distance(h) == brute_hamming_distance(h) == 1


def test_row_scaled_by_q_keeps_one_entry_in_its_image(ctx5, monkeypatch):
    # row 0 is scaled by q around column 0: 1 + q zeta and q map to 1 and 0
    one, q = ctx5.one(), ctx5.modulus
    rows = [q_scaled(ctx5, [one, one], 0), [one, one]]
    e = rows[0][0]
    assert fq_rows(ctx5, rows) == [[1, 0], [1, 1]]
    assert proves_full_row_rank(fq_rows(ctx5, rows), q)
    assert ExactMatrix.from_rows(ctx5, [[e, e], [e, e]]).rank() == 1
    g = ExactMatrix.from_rows(ctx5, [q_scaled(ctx5, [one] * 3, 0), [one, one, e]])
    assert hamming_distance(g) == brute_hamming_distance(g)
    monkeypatch.setattr(linalg, "_cyclo_quotient",
                        lambda prev: pytest.fail("exact elimination over Z[zeta_p] ran"))
    assert ExactMatrix.from_rows(ctx5, rows).rank() == 2


def test_independence_fallbacks(ctx5):
    q = ctx5.modulus
    one, z = ctx5.one(), zeta(ctx5, 1)
    # coordinates (0, q, 0, 0) vanish mod q but the points are independent
    assert is_independent([one, z * q])
    assert not is_independent([one, z * q, one + z])
    e = one + z * q
    assert is_independent([one, e])
    assert not is_independent([e, e * 3])


def test_fast_path_skips_exact_determinants(ctx11, monkeypatch):
    # an image of full rank is the proof: no elimination over Z[zeta_p] runs
    pts = sample_points(ctx11, 5, 1000, seed=2)
    m = moore_matrix(pts, 5)
    monkeypatch.setattr(linalg, "_cyclo_quotient",
                        lambda prev: pytest.fail("exact elimination over Z[zeta_p] ran"))
    assert m.rank() == 5
    wide = ExactMatrix(ctx11, 3, 5, m.entries[:15])
    assert wide.rank() == 3 and transpose(wide).rank() == 3
    assert is_independent(pts)


@st.composite
def rank_matrices(draw):
    """r x c matrices, r and c in 0..4, with a false zero mod q, a row
    scaled by q around one entry (``q_scaled``), and planted dependent rows
    and columns."""
    ctx = CONTEXTS[draw(st.sampled_from([5, 7]))]
    r, c = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    small = st.lists(st.integers(min_value=-2, max_value=2), min_size=ctx.m, max_size=ctx.m)
    rows = [[ctx.element(draw(small)) for _ in range(c)] for _ in range(r)]
    if r and c and draw(st.booleans()):  # planted first, so copies carry them
        rows[draw(st.integers(0, r - 1))][draw(st.integers(0, c - 1))] = false_zero(ctx)
    if r and c and draw(st.integers(0, 3)) == 0:
        i = draw(st.integers(0, r - 1))
        rows[i] = q_scaled(ctx, rows[i], draw(st.integers(0, c - 1)))
    if r >= 2 and draw(st.booleans()):  # a row that is a multiple of another
        a, b = draw(st.permutations(range(r)))[:2]
        factor = ctx.element(draw(small))
        rows[b] = [x * factor for x in rows[a]]
    if c >= 3 and draw(st.booleans()):  # a column that is a sum of two others
        a, b, t = draw(st.permutations(range(c)))[:3]
        for row in rows:
            row[t] = row[a] + row[b] * 2
    return ExactMatrix(ctx, r, c, [e for row in rows for e in row])


@given(rank_matrices())
@example(ExactMatrix(CONTEXTS[5], 0, 3, []))
@example(ExactMatrix(CONTEXTS[5], 1, 1, [CONTEXTS[5].zero()]))
@example(ExactMatrix(CONTEXTS[5], 1, 1, [false_zero(CONTEXTS[5])]))
@example(ExactMatrix.from_rows(CONTEXTS[5], [q_scaled(CONTEXTS[5], [CONTEXTS[5].one()] * 2, 1)]))
@settings(max_examples=80, deadline=None)
def test_rank_matches_gaussian_elimination(matrix):
    want = gaussian_rank(matrix.row_lists())
    assert matrix.rank() == want
    assert transpose(matrix).rank() == want


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_fast_and_exact_independence_agree(data):
    p = data.draw(st.sampled_from([5, 7]))
    ctx = CONTEXTS[p]
    n = data.draw(st.integers(min_value=1, max_value=ctx.m))
    coords = st.lists(st.integers(min_value=-1, max_value=1), min_size=ctx.m, max_size=ctx.m)
    pts = [ctx.element(c) for c in data.draw(st.lists(coords, min_size=n, max_size=n))]
    if n >= 3 and data.draw(st.booleans()):
        pts[2] = pts[0] + pts[1]  # planted dependence x3 = x1 + x2
    fast = is_independent(pts)
    assert fast == bool(moore_matrix(pts, n).det())
    assert fast == (coordinate_rank(pts) == n)
    if n >= 3 and pts[2] == pts[0] + pts[1]:
        assert not fast
