import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclogab import CycloElement, GaloisContext
from cyclogab.cyclotomic import dot_products, fq_rows
from conftest import CONTEXTS, elements, small_rationals
from helpers import FractionElement, close, embed, reference_aut, zeta


def brute_smallest_primitive_root(p):
    for g in range(2, p):
        seen = set()
        x = 1
        for _ in range(p - 1):
            x = x * g % p
            seen.add(x)
        if len(seen) == p - 1:
            return g
    raise AssertionError


@pytest.mark.parametrize("p,m,g", [(3, 2, 2), (5, 4, 2), (7, 6, 3), (11, 10, 2), (13, 12, 2)])
def test_context_parameters(p, m, g):
    ctx = GaloisContext(p)
    assert ctx.m == m
    assert ctx.g == g
    assert ctx.g == brute_smallest_primitive_root(p)


@pytest.mark.parametrize("p", [1, 2, 4, 9, 15, 21])
def test_context_rejects_bad_conductor(p):
    with pytest.raises(ValueError):
        GaloisContext(p)


def test_context_equality_hash_and_repr():
    a, b, c = GaloisContext(7), GaloisContext(7), GaloisContext(11)
    assert a == b and hash(a) == hash(b)
    assert a != c and a != 7
    assert len({a, b, c}) == 2
    assert repr(a) == "GaloisContext(p=7)"


def test_zeta_products(ctx5):
    assert zeta(ctx5, 1) * zeta(ctx5, 4) == ctx5.one()
    assert zeta(ctx5, 3) * zeta(ctx5, 3) == zeta(ctx5, 1)
    total = zeta(ctx5, 3) + zeta(ctx5, 1)
    assert total.coeffs == (Fraction(0), Fraction(1), Fraction(0), Fraction(1))


def test_zeta_top_power_reduces(ctx5):
    assert zeta(ctx5, 4).coeffs == (-1, -1, -1, -1)
    assert zeta(ctx5, 5) == ctx5.one()


def test_aut_basis_images(ctx5):
    # g = 2 mod 5: exponents double
    assert zeta(ctx5, 1).aut(1) == zeta(ctx5, 2)
    assert zeta(ctx5, 3).aut(1) == zeta(ctx5, 1)
    assert zeta(ctx5, 2).aut(1) == zeta(ctx5, 4)


def test_aut_identity_and_period(ctx5):
    a = ctx5.element([1, Fraction(2, 3), 0, -2])
    assert a.aut(0) == a
    assert a.aut(ctx5.m) == a
    assert a.aut(1).aut(ctx5.m - 1) == a


def test_inverse_examples(ctx5):
    a = ctx5.from_rational(Fraction(2, 3))
    assert a.inverse() == ctx5.from_rational(Fraction(3, 2))
    b = ctx5.one() + zeta(ctx5, 1)
    assert b * b.inverse() == ctx5.one()
    with pytest.raises(ZeroDivisionError):
        ctx5.zero().inverse()


def test_context_mismatch_raises(ctx5, ctx7):
    with pytest.raises(ValueError):
        zeta(ctx5, 1) + zeta(ctx7, 1)
    with pytest.raises(ValueError):
        zeta(ctx5, 1) * zeta(ctx7, 1)


def test_coefficients_canonical(ctx5):
    a = ctx5.element(["2/4", "-6/4", 0, 0])
    assert a.coeffs[0] == Fraction(1, 2)
    assert a.coeffs[1] == Fraction(-3, 2)
    assert all(c.denominator > 0 for c in a.coeffs)
    # equal values from different constructions compare equal by representation
    assert a == ctx5.element([Fraction(1, 2), Fraction(-3, 2), 0, 0])


def test_string_round_trip(ctx5):
    a = ctx5.element([1, Fraction(-3, 2), 0, Fraction(7, 9)])
    strings = a.to_strings()
    assert strings == ["1/1", "-3/2", "0/1", "7/9"]
    assert CycloElement.from_strings(ctx5, strings) == a


def test_element_str_and_repr(ctx5):
    x = ctx5.element([Fraction(1, 2), 0, -3, 1])
    assert str(x) == "1/2 + -3*z^2 + 1*z^3"
    assert repr(x) == "CycloElement(p=5, 1/2 + -3*z^2 + 1*z^3)"
    assert str(zeta(ctx5, 1) * 2) == "2*z"
    assert str(ctx5.zero()) == "0"


def test_floats_are_rejected(ctx5):
    # exactness guard: no silent float contamination
    with pytest.raises(TypeError):
        zeta(ctx5, 1) + 0.5
    with pytest.raises(TypeError):
        0.5 * zeta(ctx5, 1)


@given(st.data())
@settings(max_examples=40)
def test_string_round_trip_random(data):
    p = data.draw(st.sampled_from([3, 5, 7]))
    a = data.draw(elements(p))
    assert CycloElement.from_strings(CONTEXTS[p], a.to_strings()) == a


def test_scalar_mixing(ctx5):
    a = zeta(ctx5, 1)
    assert 2 * a == a + a
    assert a + 1 == ctx5.one() + a
    assert 1 - a == ctx5.one() - a
    assert a * Fraction(1, 2) + a * Fraction(1, 2) == a


@given(st.data())
@settings(max_examples=60)
def test_ring_axioms(data):
    p = data.draw(st.sampled_from([3, 5, 7]))
    a = data.draw(elements(p))
    b = data.draw(elements(p))
    c = data.draw(elements(p))
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@given(st.data())
@settings(max_examples=40)
def test_multiplicative_inverse(data):
    p = data.draw(st.sampled_from([3, 5, 7]))
    a = data.draw(elements(p))
    if not a:
        assert a == CONTEXTS[p].zero()
        return
    assert a * a.inverse() == CONTEXTS[p].one()


@given(st.data())
@settings(max_examples=40)
def test_aut_is_multiplicative_and_additive(data):
    p = data.draw(st.sampled_from([3, 5, 7]))
    a = data.draw(elements(p))
    b = data.draw(elements(p))
    e = data.draw(st.integers(min_value=0, max_value=p - 2))
    assert (a * b).aut(e) == a.aut(e) * b.aut(e)
    assert (a + b).aut(e) == a.aut(e) + b.aut(e)


@given(st.data())
@settings(max_examples=60)
def test_only_rationals_are_fixed(data):
    p = data.draw(st.sampled_from([3, 5, 7]))
    a = data.draw(elements(p))
    assert (a.aut(1) == a) == (not any(a.numerators[1:]))


@given(st.data())
@settings(max_examples=30)
def test_complex_embedding_agrees(data):
    # Independent numerical route: the automorphism e-th power sends the
    # evaluation at zeta to the evaluation at zeta^(g^e).
    p = data.draw(st.sampled_from([5, 7]))
    ctx = CONTEXTS[p]
    a = data.draw(elements(p))
    b = data.draw(elements(p))
    e = data.draw(st.integers(min_value=0, max_value=p - 2))
    assert close(embed(a * b), embed(a) * embed(b))
    assert close(embed(a + b), embed(a) + embed(b))
    assert close(embed(a.aut(e)), embed(a, power=pow(ctx.g, e, p)))
    if a:
        assert close(embed(a.inverse()) * embed(a), 1.0)


@given(st.data())
@settings(max_examples=40)
def test_from_rational_coefficients(data):
    p = data.draw(st.sampled_from([3, 5, 7]))
    ctx = CONTEXTS[p]
    q = data.draw(small_rationals())
    assert ctx.from_rational(q).coeffs == (q,) + (0,) * (ctx.m - 1)


def coefficients(ctx, integral):
    """Coefficient lists with numerators up to 2^70; non-integral lists draw
    small denominators and the modulus q itself."""
    den = st.just(1) if integral else st.sampled_from([1, 1, 2, 3, 4, 6, 9, ctx.modulus])
    coeff = st.builds(Fraction, st.integers(-2 ** 70, 2 ** 70), den)
    return st.lists(st.one_of(st.just(Fraction(0)), coeff), min_size=ctx.m, max_size=ctx.m)


def assert_canonical(x):
    assert x.denominator > 0
    assert math.gcd(x.denominator, *x.numerators) == 1
    assert all(type(v) is int for v in x.numerators + (x.denominator,))
    twin = x.ctx.element(x.coeffs)  # the same value built from its rationals
    assert twin == x and hash(twin) == hash(x)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_matches_fraction_reference(data):
    ctx = CONTEXTS[data.draw(st.sampled_from([3, 5, 7, 11]))]
    integral = data.draw(st.booleans())
    ca, cb = data.draw(coefficients(ctx, integral)), data.draw(coefficients(ctx, integral))
    scalar = data.draw(st.one_of(st.integers(-2 ** 70, 2 ** 70), small_rationals()))
    e = data.draw(st.integers(min_value=0, max_value=ctx.m))
    a, b = ctx.element(ca), ctx.element(cb)
    ra, rb = FractionElement(ctx, ca), FractionElement(ctx, cb)
    pairs = [(a, ra), (a * b, ra * rb), (a + b, ra + rb), (a - b, ra - rb), (-a, -ra),
             (a.aut(e), ra.aut(e)), (a * scalar, ra.scale(scalar)),
             (scalar * a, ra.scale(scalar)), (a - a, ra - ra),
             (a + scalar, ra + FractionElement(ctx, [scalar] + [0] * (ctx.m - 1)))]
    if a:
        pairs.append((a.inverse(), ra.inverse()))
    for got, want in pairs:
        assert_canonical(got)
        assert got.coeffs == want.coeffs
        if got.denominator == 1:  # Z[zeta], the domain of the F_q map
            assert fq_rows(ctx, [[got]]) == [[want.fq_image()]]
        assert got.to_strings() == want.to_strings()
        assert CycloElement.from_strings(ctx, got.to_strings()) == got
    assert (a - a).numerators == (0,) * ctx.m and (a - a).denominator == 1
    # equal values reached by different routes compare and hash equal
    for x, y in [((a + b) - b, a), (a * b, b * a), (a.aut(e).aut(ctx.m - e), a)]:
        assert x == y and hash(x) == hash(y)


# near-canonical coefficient strings: int() accepts some of them, and only an
# exact "n/1" may take the integer path; the integer path reads the strings
# joined by commas, so some strings hold commas
NEAR_CANONICAL = ["0/1", "-0/1", "+3/1", " 3/1", "3/1 ", "3/1\n", "3/01", "03/1", "1_0/1",
                  "3/1_0", "٣/1", "٥/1", "３/1", "3/2", "-3/2", "1/0", "0/0", "3", "31", "3/1/1",
                  "/1", "", "1e3/1", "3.0/1", "1" * 4301 + "/1", "-" + "9" * 4300 + "/1",
                  "9" * 4300 + "/1", "3/1,4/1", "3/1,", ",3/1", ","]


def fraction_reference(s):
    """What the Fraction path makes of one string: its value or its error."""
    try:
        return Fraction(s)
    except ZeroDivisionError as exc:
        return f"coefficient with zero denominator: {exc}"
    except ValueError as exc:
        return str(exc)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_from_strings_matches_fraction_parse(data):
    ctx = CONTEXTS[data.draw(st.sampled_from([3, 5, 7]))]
    canonical = st.integers(-2 ** 70, 2 ** 70).map(lambda v: f"{v}/1")
    items = data.draw(st.lists(canonical, min_size=ctx.m, max_size=ctx.m))
    for _ in range(data.draw(st.integers(min_value=0, max_value=2))):
        odd = data.draw(st.one_of(st.text(), st.sampled_from(NEAR_CANONICAL)))
        items[data.draw(st.integers(min_value=0, max_value=ctx.m - 1))] = odd
    if data.draw(st.booleans()):  # a wrong length
        items = items[:-1] if data.draw(st.booleans()) else items + ["0/1"]
    want = [fraction_reference(s) for s in items]
    errors = [w for w in want if isinstance(w, str)]
    try:
        got = CycloElement.from_strings(ctx, items)
    except ValueError as exc:
        if not errors:
            errors = [f"expected {ctx.m} coefficients, got {len(items)}"]
        assert str(exc) == errors[0]
    else:
        assert not errors and len(items) == ctx.m
        assert got == ctx.element(want)
        assert got.coeffs == tuple(want)


@pytest.mark.parametrize("odd", NEAR_CANONICAL)
def test_from_strings_near_canonical(odd):
    # each near-canonical string among canonical ones loads as the Fraction
    # path reads it, or raises the Fraction path's error
    items = ["7/1", odd, "-2/1", "0/1"]
    want = [fraction_reference(s) for s in items]
    errors = [w for w in want if isinstance(w, str)]
    if errors:
        with pytest.raises(ValueError) as exc:
            CycloElement.from_strings(CONTEXTS[5], items)
        assert str(exc.value) == errors[0]
    else:
        assert CycloElement.from_strings(CONTEXTS[5], items).coeffs == tuple(want)


AUT_CONTEXTS = {p: CONTEXTS.get(p) or GaloisContext(p) for p in (3, 5, 7, 11, 13, 31, 257)}


def aut_elements(ctx):
    """Zero, and elements with small, negative, huge or non-integral
    coefficients (numerators over one drawn denominator)."""
    num = st.one_of(st.integers(-3, 3), st.integers(-2 ** 200, 2 ** 200),
                    st.sampled_from([-2 ** 300, 2 ** 300 - 1]))
    den = st.one_of(st.just(1), st.integers(1, 10 ** 6))
    coeffs = st.builds(lambda nums, d: [Fraction(v, d) for v in nums],
                       st.lists(num, min_size=ctx.m, max_size=ctx.m), den)
    return st.one_of(st.just(ctx.zero()), coeffs.map(ctx.element))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_aut_matches_reference_loop(data):
    ctx = AUT_CONTEXTS[data.draw(st.sampled_from(sorted(AUT_CONTEXTS)))]
    x = data.draw(aut_elements(ctx))
    for e in range(-ctx.m, 2 * ctx.m + 1):
        got = x.aut(e)
        assert (got.numerators, got.denominator) == reference_aut(x, e)
    assert_canonical(x.aut(1))


def schoolbook_dot(row, col):
    total = row[0].ctx.zero()
    for a, b in zip(row, col, strict=True):
        total = total + a * b
    return total


def assert_dot_products_match(ctx, rows, cols):
    got = dot_products(ctx, rows, cols)
    want = [schoolbook_dot(r, c) for r in rows for c in cols]
    assert got == want
    for x in got:
        assert_canonical(x)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_dot_products_match_schoolbook(data):
    ctx = CONTEXTS[data.draw(st.sampled_from([3, 5, 7, 13]))]
    inner = data.draw(st.integers(1, 3))
    entry = aut_elements(ctx)
    vectors = st.lists(st.lists(entry, min_size=inner, max_size=inner), min_size=1, max_size=3)
    assert_dot_products_match(ctx, data.draw(vectors), data.draw(vectors))


@pytest.mark.parametrize("p", [3, 5, 13])
@pytest.mark.parametrize("inner", [1, 4])
@pytest.mark.parametrize("top", [2 ** 70, 2 ** 70 - 1, 1])
@pytest.mark.parametrize("signs", [(1, 1), (-1, -1), (1, -1)])
def test_dot_products_at_the_width_bound(p, inner, top, signs):
    # every coefficient at the largest magnitude and of one sign: the folded
    # coefficient of zeta^(p-2) collects inner * m products, the bound the
    # digit width is sized for; with top = 1 and inner * m a power of two
    # that bound is just below a power of two, where a digit one bit
    # narrower overflows
    ctx = CONTEXTS[p]
    lhs = [[ctx.element([signs[0] * top] * ctx.m)] * inner] * 2
    rhs = [[ctx.element([signs[1] * (2 ** 70 - 1)] * ctx.m)] * inner]
    assert_dot_products_match(ctx, lhs, rhs)


def test_dot_products_with_denominators():
    ctx = CONTEXTS[7]
    a = ctx.element([Fraction(1, 2), Fraction(-3, 4), 0, 5, Fraction(7, 9), -1])
    b = ctx.element([Fraction(2, 3), 1, Fraction(-1, 6), 0, 0, Fraction(5, 2)])
    assert_dot_products_match(ctx, [[a, b], [b, a]], [[b, ctx.one()], [a, a]])
    assert dot_products(ctx, [[a]], [[a.inverse()]]) == [ctx.one()]
