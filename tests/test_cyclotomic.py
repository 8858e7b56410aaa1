from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclogab import CycloElement, GaloisContext
from cyclogab.cyclotomic import dot_products, exact_divider, fq_rows
from conftest import CONTEXTS, elements, small_integers
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
    assert total.coeffs == (0, 1, 0, 1)


def test_zeta_top_power_reduces(ctx5):
    assert zeta(ctx5, 4).coeffs == (-1, -1, -1, -1)
    assert zeta(ctx5, 5) == ctx5.one()


def test_aut_basis_images(ctx5):
    # g = 2 mod 5: exponents double
    assert zeta(ctx5, 1).aut(1) == zeta(ctx5, 2)
    assert zeta(ctx5, 3).aut(1) == zeta(ctx5, 1)
    assert zeta(ctx5, 2).aut(1) == zeta(ctx5, 4)


def test_aut_identity_and_period(ctx5):
    a = ctx5.element([1, 5, 0, -2])
    assert a.aut(0) == a
    assert a.aut(ctx5.m) == a
    assert a.aut(1).aut(ctx5.m - 1) == a


def test_inverse_examples():
    # only a unit of Z[zeta] has an inverse: zeta^i, -1 and 1 + zeta do;
    # 2, 1 - zeta (norm p), 3 + zeta and zero do not
    for p in (3, 5, 11, 13):
        ctx = CONTEXTS[p]
        one = ctx.one()
        for i in range(p):
            assert zeta(ctx, i).inverse() == zeta(ctx, -i)
        assert (-one).inverse() == -one
        b = one + zeta(ctx, 1)
        assert b * b.inverse() == one and b.inverse().inverse() == b
        for non_unit in (one * 2, one - zeta(ctx, 1), zeta(ctx, 1) + 3):
            with pytest.raises(ArithmeticError, match="not in the ring"):
                non_unit.inverse()
        with pytest.raises(ZeroDivisionError):
            ctx.zero().inverse()


def test_context_mismatch_raises(ctx5, ctx7):
    with pytest.raises(ValueError):
        zeta(ctx5, 1) + zeta(ctx7, 1)
    with pytest.raises(ValueError):
        zeta(ctx5, 1) * zeta(ctx7, 1)


def test_coefficients_canonical(ctx5):
    # one integer tuple per value: equal values from different constructions
    # compare equal by representation, and only integers are coefficients
    a = ctx5.element([1, -3, 0, 0])
    assert a.coeffs == (1, -3, 0, 0) and all(type(c) is int for c in a.coeffs)
    assert a == ctx5.one() - zeta(ctx5, 1) * 3
    for bad in ([Fraction(1, 2), 0, 0, 0], [Fraction(2, 1), 0, 0, 0], ["1", 0, 0, 0],
                [1.0, 0, 0, 0], [True, 0, 0, 0]):
        with pytest.raises(TypeError):
            ctx5.element(bad)
    with pytest.raises(TypeError):
        ctx5.from_rational(Fraction(1, 2))


def test_string_round_trip(ctx5):
    a = ctx5.element([1, -3, 0, 7])
    strings = a.to_strings()
    assert strings == ["1/1", "-3/1", "0/1", "7/1"]
    assert CycloElement.from_strings(ctx5, strings) == a


def test_element_str_and_repr(ctx5):
    x = ctx5.element([2, 0, -3, 1])
    assert str(x) == "2 + -3*z^2 + 1*z^3"
    assert repr(x) == "CycloElement(p=5, 2 + -3*z^2 + 1*z^3)"
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
    assert a * 3 - 2 * a == a
    for scalar in (Fraction(1, 2), Fraction(2, 1)):  # Z[zeta] takes integer scalars only
        with pytest.raises(TypeError):
            a * scalar
        with pytest.raises(TypeError):
            a + scalar


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


def units(p):
    """Units of Z[zeta]: +-zeta^i times cyclotomic units 1 + zeta + ... + zeta^(j-1)."""
    ctx = CONTEXTS[p]

    def build(sign, i, js):
        u = zeta(ctx, i) * sign
        for j in js:
            u = u * sum((zeta(ctx, t) for t in range(j)), ctx.zero())
        return u
    return st.builds(build, st.sampled_from([1, -1]), st.integers(0, p - 1),
                     st.lists(st.integers(2, p - 1), max_size=3))


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_multiplicative_inverse(data):
    # a unit's inverse is the reference inverse; any other nonzero value has
    # a reference inverse outside Z[zeta] and raises
    p = data.draw(st.sampled_from([3, 5, 7]))
    ctx = CONTEXTS[p]
    a = data.draw(st.one_of(elements(p), units(p)))
    if not a:
        with pytest.raises(ZeroDivisionError):
            a.inverse()
        return
    want = FractionElement(ctx, a.coeffs).inverse()
    if all(c.denominator == 1 for c in want.coeffs):
        assert a.inverse().coeffs == want.coeffs
        assert a * a.inverse() == ctx.one()
    else:
        with pytest.raises(ArithmeticError, match="not in the ring"):
            a.inverse()


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_exact_division_matches_fraction_reference(data):
    # a * b / b is a; x / b is the reference quotient when that lies in
    # Z[zeta] and raises otherwise; a planted a + 1/(2b) raises
    p = data.draw(st.sampled_from([3, 5, 11, 13]))
    ctx = CONTEXTS[p]
    big = st.lists(st.integers(-2 ** 40, 2 ** 40), min_size=ctx.m, max_size=ctx.m).map(ctx.element)
    a, x = data.draw(st.one_of(elements(p), big)), data.draw(elements(p))
    b = data.draw(st.one_of(elements(p), units(p), big).filter(bool))
    assert exact_divider(b)([a * b, ctx.zero(), b]) == [a, ctx.zero(), ctx.one()]
    want = FractionElement(ctx, x.coeffs) * FractionElement(ctx, b.coeffs).inverse()
    if all(c.denominator == 1 for c in want.coeffs):
        assert exact_divider(b)([x])[0].coeffs == want.coeffs
    else:
        with pytest.raises(ArithmeticError, match="not in the ring"):
            exact_divider(b)([x])
    with pytest.raises(ArithmeticError, match="not in the ring"):
        exact_divider(b * 2)([a * b, a * b * 2 + 1])
    with pytest.raises(ZeroDivisionError):
        exact_divider(ctx.zero())


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
    assert (a.aut(1) == a) == (not any(a.coeffs[1:]))


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
        assert close(embed(exact_divider(a)([a * b])[0]), embed(b))


@given(st.data())
@settings(max_examples=40)
def test_from_rational_coefficients(data):
    p = data.draw(st.sampled_from([3, 5, 7]))
    ctx = CONTEXTS[p]
    q = data.draw(small_integers())
    assert ctx.from_rational(q).coeffs == (q,) + (0,) * (ctx.m - 1)


def coefficients(ctx):
    """Coefficient lists with entries up to 2^70 and zeros."""
    coeff = st.integers(-2 ** 70, 2 ** 70)
    return st.lists(st.one_of(st.just(0), coeff), min_size=ctx.m, max_size=ctx.m)


def assert_canonical(x):
    assert len(x.coeffs) == x.ctx.m
    assert all(type(v) is int for v in x.coeffs)
    twin = x.ctx.element(x.coeffs)  # the same value built from its coefficients
    assert twin == x and hash(twin) == hash(x)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_matches_fraction_reference(data):
    ctx = CONTEXTS[data.draw(st.sampled_from([3, 5, 7, 11]))]
    ca, cb = data.draw(coefficients(ctx)), data.draw(coefficients(ctx))
    scalar = data.draw(st.one_of(st.integers(-2 ** 70, 2 ** 70), small_integers()))
    e = data.draw(st.integers(min_value=0, max_value=ctx.m))
    a, b = ctx.element(ca), ctx.element(cb)
    ra, rb = FractionElement(ctx, ca), FractionElement(ctx, cb)
    pairs = [(a, ra), (a * b, ra * rb), (a + b, ra + rb), (a - b, ra - rb), (-a, -ra),
             (a.aut(e), ra.aut(e)), (a * scalar, ra.scale(scalar)),
             (scalar * a, ra.scale(scalar)), (a - a, ra - ra),
             (a + scalar, ra + FractionElement(ctx, [scalar] + [0] * (ctx.m - 1)))]
    if b:
        pairs.append((exact_divider(b)([a * b])[0], ra))
    for got, want in pairs:
        assert_canonical(got)
        assert got.coeffs == want.coeffs
        assert fq_rows(ctx, [[got]]) == [[want.fq_image()]]
        assert got.to_strings() == want.to_strings()
        assert CycloElement.from_strings(ctx, got.to_strings()) == got
    assert (a - a).coeffs == (0,) * ctx.m
    # equal values reached by different routes compare and hash equal
    for x, y in [((a + b) - b, a), (a * b, b * a), (a.aut(e).aut(ctx.m - e), a)]:
        assert x == y and hash(x) == hash(y)


# near-canonical coefficient strings: int() accepts some of them, and only an
# exact "n/1" may take the fast path; the fast path reads the strings joined
# by commas, so some strings hold commas
NEAR_CANONICAL = ["0/1", "-0/1", "+3/1", " 3/1", "3/1 ", "3/1\n", "3/01", "03/1", "1_0/1",
                  "3/1_0", "٣/1", "٥/1", "３/1", "3/2", "-3/2", "1/0", "0/0", "3", "31", "3/1/1",
                  "/1", "", "1e3/1", "3.0/1", "1" * 4301 + "/1", "-" + "9" * 4300 + "/1",
                  "9" * 4300 + "/1", "3/1,4/1", "3/1,", ",3/1", ","]


def fraction_reference(s):
    """What one stored string means: the integer n / d of "n" or "n/d", n and
    d each an optional minus sign and ASCII digits with d dividing n, or the
    error message of anything else."""
    parts = s.split("/")
    digits = [part[1:] if part[:1] == "-" else part for part in parts]
    if len(parts) <= 2 and all(ds and set(ds) <= set("0123456789") for ds in digits):
        try:
            n, d = int(parts[0]), int(parts[1]) if len(parts) == 2 else 1
        except ValueError as exc:  # past the interpreter's limit on digits
            return str(exc)
        if d and Fraction(n, d).denominator == 1:
            return n // d
    return f"coefficient {s[:40]!r} is not an integer n or n/d with d dividing n"


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
    # each near-canonical string among canonical ones loads as the integer it
    # spells, or raises the reference's error
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
    """Zero, and elements with small, negative or huge coefficients."""
    num = st.one_of(st.integers(-3, 3), st.integers(-2 ** 200, 2 ** 200),
                    st.sampled_from([-2 ** 300, 2 ** 300 - 1]))
    coeffs = st.lists(num, min_size=ctx.m, max_size=ctx.m)
    return st.one_of(st.just(ctx.zero()), coeffs.map(ctx.element))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_aut_matches_reference_loop(data):
    ctx = AUT_CONTEXTS[data.draw(st.sampled_from(sorted(AUT_CONTEXTS)))]
    x = data.draw(aut_elements(ctx))
    for e in range(-ctx.m, 2 * ctx.m + 1):
        got = x.aut(e)
        assert got.coeffs == reference_aut(x, e)
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
