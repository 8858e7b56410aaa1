from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclogab import (ConstructionResult, ExactMatrix, GaloisContext, RetriesExhausted,
                      SupportSpec, build_subcode, certify_mrd, construct,
                      construction, is_independent, moore_matrix, required_sample_size,
                      sample_points, verify_support)
from cyclogab.construction import _parse_epsilon, _power_points
from conftest import CONTEXTS
from helpers import coordinate_rank, gaussian_rank, identity, outcome, rebuild_result, zeta


def test_required_sample_size_values():
    assert required_sample_size(6, 3, 0.01) == 1200
    assert required_sample_size(6, 3, 1) == 12
    assert required_sample_size(1, 1, 0.5) == 2
    assert required_sample_size(6, 3, "0.01") == 1200
    assert required_sample_size(6, 3, " 1/100 ") == 1200
    assert required_sample_size(5, 2, Fraction(1, 3)) == 21


@pytest.mark.parametrize("eps", [0, -0.5, 1.5, "2"])
def test_required_sample_size_range(eps):
    with pytest.raises(ValueError):
        required_sample_size(6, 3, eps)


EPSILON_TEXT = st.one_of(
    st.text(alphabet="0123456789eE+-._/ ", max_size=10),
    st.from_regex(r"\s?[-+]?\d{0,3}\.?\d{0,3}([eE][-+]?\d{1,3})?\s?", fullmatch=True),
    st.from_regex(r"\s?[-+]?\d{1,3}/\d{1,4}\s?", fullmatch=True))


@given(text=EPSILON_TEXT)
@settings(max_examples=300, deadline=None)
def test_parse_epsilon_agrees_with_fraction(text):
    # the value Fraction reads whenever it lies in [10^-80, 1], else ValueError
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        value = None
    if value is not None and Fraction(1, 10 ** 80) <= value <= 1:
        assert _parse_epsilon(text) == value
    else:
        with pytest.raises(ValueError):
            _parse_epsilon(text)


@pytest.mark.parametrize("n, k", [(-5, 2), (3, 0), (3, 4)])
def test_required_sample_size_shape(n, k):
    with pytest.raises(ValueError, match="1 <= k <= n"):
        required_sample_size(n, k, "0.01")


def test_sample_points_deterministic(ctx11):
    a = sample_points(ctx11, 6, 1200, seed=42)
    b = sample_points(ctx11, 6, 1200, seed=42)
    assert a == b
    c = sample_points(ctx11, 6, 1200, seed=43)
    assert a != c


def test_sample_points_degenerate_set(ctx5):
    pts = sample_points(ctx5, 3, 1, seed=0)
    assert all(x == ctx5.zero() for x in pts)
    assert all(v == 0 for x in pts for v in x.coeffs)


def test_sample_points_coords_match_elements(ctx7):
    pts = sample_points(ctx7, 4, 50, seed=9)
    assert isinstance(pts, tuple) and len(pts) == 4
    for x in pts:
        assert all(type(v) is int and 0 <= v < 50 for v in x.coeffs)
        assert x == ctx7.element(x.coeffs)
    assert ctx7.element((1,) + (0,) * (ctx7.m - 1)) == ctx7.one()


def test_sample_points_validates(ctx5):
    with pytest.raises(ValueError):
        sample_points(ctx5, 3, 0, seed=0)
    with pytest.raises(ValueError):
        sample_points(ctx5, 5, 10, seed=0)  # n > m


def test_moore_matrix_single_point_column(ctx5):
    # orbit of zeta under exponent doubling mod 5: z, z^2, z^4, z^3
    m = moore_matrix([zeta(ctx5, 1)], rows=4)
    assert m.col(0) == (zeta(ctx5, 1), zeta(ctx5, 2), zeta(ctx5, 4), zeta(ctx5, 3))


def test_moore_matrix_first_row_is_input(ctx5):
    xs = [ctx5.one(), zeta(ctx5, 2), ctx5.element([1, 2, 3, 4])]
    m = moore_matrix(xs, rows=1)
    assert m.row(0) == tuple(xs)


def test_moore_matrix_rational_column_constant(ctx5):
    x = ctx5.from_rational(7)
    m = moore_matrix([x, zeta(ctx5, 1)], rows=4)
    assert all(e == x for e in m.col(0))


def test_moore_matrix_guards(ctx5):
    with pytest.raises(ValueError):
        moore_matrix([ctx5.one()], rows=5)
    with pytest.raises(ValueError):
        moore_matrix([ctx5.one()] * 5, rows=2)


@pytest.mark.parametrize("call, expected", [
    (lambda: moore_matrix([], rows=1), (ValueError, "need at least one point")),
    (lambda: is_independent([]), (ValueError, "need at least one point")),
    (lambda: moore_matrix([CONTEXTS[5].one(), CONTEXTS[7].one()], rows=1),
     (ValueError, "context mismatch among points")),
], ids=["moore-no-points", "independence-no-points", "moore-two-conductors"])
def test_point_guards(call, expected):
    assert outcome(call) == expected


def test_is_independent_examples(ctx5):
    one, z = ctx5.one(), zeta(ctx5, 1)
    assert not is_independent([one, z, one + z])
    assert is_independent([zeta(ctx5, i) for i in range(4)])
    assert not is_independent([one, ctx5.zero(), z])


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_independence_agrees_with_coordinate_rank(seed):
    # dual route: rational rank of the coordinate vectors decides the same
    # question without ever forming a Moore matrix
    ctx = CONTEXTS[5]
    pts = sample_points(ctx, 3, 6, seed=seed)
    assert is_independent(pts) == (coordinate_rank(pts) == 3)


@pytest.mark.parametrize("m, s, n, dependent", [
    (2, 2, 2, 10), (2, 3, 2, 31), (3, 2, 3, 338), (4, 2, 3, 1516)])
def test_point_term_of_the_failure_bound(m, s, n, dependent):
    # every n-tuple of {0, ..., s-1}^m, counted dependent by exact rank,
    # against sample_points' bound (s^n - 1) / ((s - 1) s^m) < s^(n-m) / (s - 1)
    grid = list(product(range(s), repeat=m))
    count = sum(gaussian_rank([[Fraction(c) for c in x] for x in points]) < n
                for points in product(grid, repeat=n))
    observed = Fraction(count, s ** (m * n))
    bound = Fraction(s ** n - 1, (s - 1) * s ** m)
    assert count == dependent
    assert observed <= bound < Fraction(s ** n, (s - 1) * s ** m)


def brute_force_rational_dependence(points, grid):
    """Search a small rational grid for a nontrivial vanishing combination."""
    for coeffs in product(grid, repeat=len(points)):
        if all(c == 0 for c in coeffs):
            continue
        acc = points[0].ctx.zero()
        for c, x in zip(coeffs, points):
            acc = acc + x * c
        if not acc:
            return coeffs
    return None


def test_planted_dependence_three_routes(ctx5):
    # (i) a brute-force search finds the planted combination, (ii) the full
    # Moore matrix loses column rank, (iii) the top minor vanishes
    grid = [-2, -1, 0, 1, 2]
    pts = sample_points(ctx5, 2, 7, seed=123)
    x1, x2 = pts
    x3 = x1 * 2 - x2
    triple = [x1, x2, x3]
    assert brute_force_rational_dependence(triple, grid) is not None
    assert moore_matrix(triple, rows=ctx5.m).rank() < 3
    assert not is_independent(triple)


def test_unplanted_triple_three_routes(ctx5):
    pts = sample_points(ctx5, 3, 100, seed=7)
    assert is_independent(pts)
    assert moore_matrix(pts, rows=ctx5.m).rank() == 3
    # the rationals n/d (|n| <= 3, d <= 3) times 6, so every combination is integral
    grid = [n * 6 // d for n in range(-3, 4) for d in (1, 2, 3)]
    assert brute_force_rational_dependence(list(pts), grid) is None


STAIRCASE = SupportSpec(6, 3, [(1, 2), (3, 4), (5, 6)])


def test_construct_staircase(ctx11):
    result = construct(STAIRCASE, ctx11, 1200, seed=1)
    assert result.retries == 0
    assert verify_support(result.generator, STAIRCASE)
    assert result.generator == result.transform @ result.moore
    assert bool(result.transform.det())
    assert is_independent(result.points)


def test_result_checks_point_coordinates(ctx11):
    # every coordinate of a drawn point is an integer in [0, s_size)
    result = construct(STAIRCASE, ctx11, 1200, seed=1)
    top = ctx11.element([1199] * ctx11.m)
    assert rebuild_result(result, points=result.points[:-1] + (top,)).points[-1] == top
    for bad in [ctx11.element([1200] + [0] * (ctx11.m - 1)),
                ctx11.element([-1] + [0] * (ctx11.m - 1))]:
        with pytest.raises(ValueError, match=r"integers in \[0, s_size\)"):
            rebuild_result(result, points=result.points[:-1] + (bad,))


def test_construct_row_space_preserved(ctx11):
    result = construct(STAIRCASE, ctx11, 1200, seed=2)
    stacked = ExactMatrix.from_rows(
        ctx11, result.generator.row_lists() + result.moore.row_lists())
    assert stacked.rank() == STAIRCASE.k


def test_construct_rows_evaluate_transform_polynomial(ctx11):
    # row r of the generator is x -> sum_i transform[r, i] * aut^(i-1)(x)
    result = construct(STAIRCASE, ctx11, 1200, seed=3)
    k = STAIRCASE.k
    for r in range(k):
        for j, x in enumerate(result.points):
            acc = ctx11.zero()
            for i in range(k):
                acc = acc + result.transform[r, i] * x.aut(i)
            assert acc == result.generator[r, j]


def test_construct_trivial_dimension(ctx5):
    spec = SupportSpec(3, 1, [()])
    result = construct(spec, ctx5, 50, seed=4)
    assert result.transform == identity(ctx5, 1)
    assert result.generator == result.moore


def test_construct_completes_small_sets(ctx11):
    spec = SupportSpec(6, 3, [(1,), (), (5, 6)])
    result = construct(spec, ctx11, 1200, seed=5)
    assert result.completed.is_completed()
    assert all(orig <= done for orig, done in zip(spec.zeros, result.completed.zeros))
    assert verify_support(result.generator, result.completed)
    assert verify_support(result.generator, spec)


def test_construct_rejects_violating_pattern(ctx11):
    with pytest.raises(ValueError, match="subcode"):
        construct(SupportSpec(4, 2, [(1, 2), (1, 2)]), ctx11, 100, seed=0)


def test_construct_rejects_wide_pattern(ctx5):
    with pytest.raises(ValueError):
        construct(SupportSpec(5, 2, [(), ()]), ctx5, 100, seed=0)  # n > m


def test_construct_retries_exhausted(ctx5):
    # sample set of size 1 only ever draws the zero point; attempt 0 takes
    # the fixed points only when their unit coordinates lie in [0, s_size)
    spec = SupportSpec(3, 2, [(), ()])
    with pytest.raises(RetriesExhausted, match=r"no successful draw in 3 attempts \(s_size=1\)"):
        construct(spec, ctx5, 1, seed=0, max_retries=2)


def test_negative_max_retries_refused_before_any_draw(ctx5, monkeypatch):
    monkeypatch.setattr(construction, "sample_points",
                        lambda *args: pytest.fail("a draw ran"))
    monkeypatch.setattr(construction, "_attempt", lambda *args: pytest.fail("an attempt ran"))
    feasible, infeasible = SupportSpec(3, 2, [(), ()]), SupportSpec(4, 2, [(1, 2), (1, 2)])
    for build, spec in ((construct, feasible), (build_subcode, feasible),
                        (build_subcode, infeasible)):
        with pytest.raises(ValueError, match=r"need max_retries >= 0, got -1"):
            build(spec, ctx5, 100, seed=0, max_retries=-1)


@pytest.mark.parametrize("args, message", [
    ((100.0, 0, 64), r"field 's_size' must be an integer, got 100\.0"),
    ((True, 0, 64), r"field 's_size' must be an integer, got True"),
    (("100", 0, 64), r"field 's_size' must be an integer, got '100'"),
    ((100, 1.5, 64), r"field 'seed' must be an integer, got 1\.5"),
    ((100, False, 64), r"field 'seed' must be an integer, got False"),
    ((100, 0, 1.5), r"field 'max_retries' must be an integer, got 1\.5"),
    ((100, 0, True), r"field 'max_retries' must be an integer, got True"),
    ((0, 0, 64), r"sample set size must be >= 1, got 0"),
    ((-3, 0, 64), r"sample set size must be >= 1, got -3"),
    ((2 ** 256 + 1, 0, 64), r"sample set size of 257 bits exceeds MAX_SAMPLE_SIZE = 2\^256"),
])
def test_construct_refuses_bad_arguments_before_any_attempt(ctx5, monkeypatch, args, message):
    # attempt 0 never calls sample_points, so construct checks its arguments itself
    monkeypatch.setattr(construction, "_attempt", lambda *args: pytest.fail("an attempt ran"))
    s_size, seed, max_retries = args
    with pytest.raises(ValueError, match=message):
        construct(SupportSpec(3, 2, [(), ()]), ctx5, s_size, seed, max_retries)


@pytest.mark.parametrize("field, value", [
    ("s_size", 1200.0), ("seed", 1.5), ("max_retries", True), ("retries", 0.0)])
def test_result_refuses_non_int_bookkeeping(ctx11, field, value):
    # such a result could be written, but its file could not be loaded again
    result = construct(STAIRCASE, ctx11, 1200, seed=1)
    with pytest.raises(ValueError, match=f"field '{field}' must be an integer"):
        rebuild_result(result, **{field: value})


# At (p, n, k) = (7, 6, 3) these zeros make the transform of the fixed points
# singular: the only such pattern, up to the order of its rows, among all
# 2370 feasible families of three 2-column zero sets.
PLANTED = SupportSpec(6, 3, [(1, 6), (2, 5), (3, 4)])


@pytest.mark.parametrize("seed", [0, 5, 11])
def test_construct_falls_back_to_a_draw(ctx7, seed):
    result = construct(PLANTED, ctx7, 1200, seed=seed)
    assert result.retries == 1
    assert result.points == sample_points(ctx7, 6, 1200, seed + 1)
    assert certify_mrd(result).passed


@pytest.mark.parametrize("p, spec", [
    (11, STAIRCASE), (17, SupportSpec(12, 6, [()] * 6))])
def test_fixed_points_certify_at_the_golden_shapes(p, spec):
    ctx = GaloisContext(p)
    result = construct(spec, ctx, required_sample_size(spec.n, spec.k, "0.01"), seed=7)
    assert result.retries == 0
    assert result.points == _power_points(ctx, spec.n)
    assert [x.coeffs for x in result.points] == [
        tuple(int(i == j) for i in range(ctx.m)) for j in range(spec.n)]
    assert certify_mrd(result).passed


def test_construct_retry_seed_counter(ctx7):
    # a forced retry at seed s must reproduce the draw of seed s + retries
    for seed, s_size in ((11, 40), (3, 2)):
        direct = construct(PLANTED, ctx7, s_size, seed=seed)
        assert direct.retries >= 1
        draw_seed = direct.to_obj()["points"]["seed"]
        assert draw_seed == seed + direct.retries
        redraw = sample_points(ctx7, 6, s_size, seed=draw_seed)
        assert redraw == direct.points


def test_result_round_trip_after_retries(ctx7):
    # at s_size 2 the fixed points and the first draw fail; the stored
    # points carry the seed of the winning draw, and loading them checks it
    # against seed + retries
    result = construct(PLANTED, ctx7, 2, seed=0)
    assert result.retries == 2
    obj = result.to_obj()
    assert obj["points"] == {"coords": [list(x.coeffs) for x in result.points],
                             "sample_set_size": 2, "seed": 2}
    assert sample_points(ctx7, 6, 2, seed=2) == result.points
    assert ConstructionResult.from_obj(obj) == result


def test_result_round_trip(ctx11):
    result = construct(STAIRCASE, ctx11, 1200, seed=6)
    again = ConstructionResult.from_obj(result.to_obj())
    assert again == result
