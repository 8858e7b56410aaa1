import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclogab import (SupportSpec, check_condition, det_is_nonzero, gmmds, oracle_report,
                      sweep_agreement)
from cyclogab.linalg import _eliminate
from helpers import (SparsePoly, cofactor_det, evaluate, patch_exact_eliminate,
                     reference_det_nonzero, support_polynomial_matrix, symbolic_det,
                     total_degree, violates)


def test_sparse_poly_arithmetic():
    x = SparsePoly.variable(0)
    y = SparsePoly.variable(1)
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert total_degree(p) == 2
    assert evaluate(p, [Fraction(3), Fraction(2)]) == 5
    assert (p - p).is_zero
    assert total_degree(SparsePoly.zero()) == -1


def test_sparse_poly_monomials_are_canonical():
    assert SparsePoly({(1, 0): 2}) == SparsePoly({(0, 1): 2})
    assert SparsePoly({(1, 0): 2, (0, 1): 3}) == SparsePoly({(0, 1): 5})
    assert SparsePoly({(2, 0, 0): 1}).terms == {(0, 0, 2): 1}
    assert SparsePoly({(0, 1): 2, (1, 0): -2}).is_zero
    x, y = SparsePoly.variable(0), SparsePoly.variable(1)
    assert x * y == y * x == SparsePoly({(1, 0): 1})
    assert hash(x * y) == hash(SparsePoly({(1, 0): 1}))
    assert total_degree(x * x * y) == 3


def test_sparse_poly_refuses_negative_index():
    with pytest.raises(ValueError, match="negative variable index"):
        SparsePoly.variable(-1)
    with pytest.raises(ValueError, match="negative variable index"):
        SparsePoly({(2, -3): 1})


def test_matrix_k2_entries():
    mat = support_polynomial_matrix(SupportSpec(2, 2, [(1,), (2,)]))
    a1 = SparsePoly.variable(0)
    a2 = SparsePoly.variable(1)
    assert mat[0][0] == -a1 and mat[1][0] == -a2
    assert mat[0][1] == SparsePoly.const(1) and mat[1][1] == SparsePoly.const(1)


def test_matrix_last_column_is_ones():
    spec = SupportSpec(5, 3, [(1, 2), (2, 4), (3, 5)])
    mat = support_polynomial_matrix(spec)
    assert all(row[-1] == SparsePoly.const(1) for row in mat)


def test_matrix_requires_completed_pattern():
    with pytest.raises(ValueError):
        support_polynomial_matrix(SupportSpec(4, 3, [(1,), (2, 3), (1, 4)]))


def test_rows_encode_root_products_symbolically():
    # row i, read as a polynomial in an extra variable X, multiplies out to
    # the product of (X - a_t) over the row's zero columns
    spec = SupportSpec(4, 3, [(1, 2), (2, 3), (1, 4)])
    mat = support_polynomial_matrix(spec)
    big_x = SparsePoly.variable(spec.n)
    for row_poly, zeros in zip(mat, spec.zeros):
        lhs = SparsePoly.zero()
        x_power = SparsePoly.const(1)
        for coeff in row_poly:
            lhs = lhs + coeff * x_power
            x_power = x_power * big_x
        rhs = SparsePoly.const(1)
        for t in sorted(zeros):
            rhs = rhs * (big_x - SparsePoly.variable(t - 1))
        assert lhs == rhs


@given(st.data())
@settings(max_examples=30)
def test_rows_encode_root_products_numerically(data):
    spec = SupportSpec(5, 3, [(1, 5), (2, 3), (3, 4)])
    mat = support_polynomial_matrix(spec)
    point = [data.draw(st.fractions(min_value=-5, max_value=5, max_denominator=4))
             for _ in range(spec.n)]
    x = data.draw(st.fractions(min_value=-5, max_value=5, max_denominator=4))
    for row_poly, zeros in zip(mat, spec.zeros):
        lhs = sum(evaluate(c, point) * x ** d for d, c in enumerate(row_poly))
        rhs = 1
        for t in zeros:
            rhs *= x - point[t - 1]
        assert lhs == rhs


def test_det_symbolic_k2():
    det = symbolic_det(support_polynomial_matrix(SupportSpec(2, 2, [(1,), (2,)])))
    assert det == SparsePoly({(0,): -1, (1,): 1})  # a2 - a1
    nonzero, point, omega = det_is_nonzero(SupportSpec(2, 2, [(1,), (2,)]))
    assert nonzero is True and point[0] != point[1] and omega is None
    assert det_is_nonzero(SupportSpec(2, 2, [(1,), (1,)])) == (False, None, frozenset({1, 2}))


def test_det_guards():
    with pytest.raises(ValueError, match="completed"):
        det_is_nonzero(SupportSpec(3, 2, [(), ()]))
    with pytest.raises(ValueError, match="MAX_ORACLE_N"):
        det_is_nonzero(SupportSpec(gmmds.MAX_ORACLE_N + 1, 1, [()]))
    with pytest.raises(TypeError):
        det_is_nonzero(SupportSpec(2, 2, [(1,), (2,)]), mode="symbolic")
    # no k cap: a completed pattern at k = 7, all rows equal, is a proved zero
    spec = SupportSpec(8, 7, [tuple(range(1, 7))] * 7)
    assert det_is_nonzero(spec) == (False, None, frozenset(range(1, 8)))


def test_sweep_all_pair_families_agree():
    table = sweep_agreement(n=4, k=3)
    assert table["families"] == 216
    assert table["agree"] == 216
    assert table["disagreements"] == []
    assert table["mode"] == "randomized"


@pytest.mark.parametrize("n,k,families", [(5, 4, 10_000), (6, 3, 3375)])
def test_sweep_agreement_wider_shapes(n, k, families):
    table = sweep_agreement(n=n, k=k)
    assert table["families"] == table["agree"] == families
    assert table["disagreements"] == []


def test_randomized_mode_matches_symbolic_on_sweep():
    # the oracle's verdict on every family equals the symbolic reference's,
    # whatever the seed of its evaluation points
    for spec in all_completed_specs(4, 3):
        expected = reference_det_nonzero(spec)
        assert det_is_nonzero(spec, seed=17)[0] is expected, spec.to_obj()
    assert sweep_agreement(n=4, k=3, seed=17)["agree"] == 216


def test_randomized_witness_certifies_nonzero():
    spec = SupportSpec(4, 3, [(1, 2), (1, 3), (2, 3)])
    nonzero, witness, omega = det_is_nonzero(spec, seed=5)
    assert nonzero and witness is not None and omega is None
    det = symbolic_det(support_polynomial_matrix(spec))
    assert evaluate(det, list(witness)) != 0


def test_oracle_report_round_trip():
    report = oracle_report(SupportSpec(4, 3, [(1, 2), (1, 3), (2, 3)]), seed=1)
    obj = report.to_obj()
    assert set(obj) == {"condition", "det_p_nonzero", "mode", "witness_omega", "witness_point"}
    assert obj["mode"] == "randomized" and obj["witness_omega"] is None
    zero = oracle_report(SupportSpec(4, 3, [(1, 2), (1, 2), (3, 4)])).to_obj()
    assert zero == {"condition": False, "det_p_nonzero": False, "mode": "randomized",
                    "witness_omega": [1, 2], "witness_point": None}


@pytest.mark.parametrize("n,k", [(3, 2), (4, 3), (5, 3), (5, 4), (6, 3)])
def test_every_zero_verdict_carries_a_violating_witness(n, k):
    # a zero verdict is a proof: its rows violate the condition by a count
    # made here with plain sets, and only infeasible patterns get one
    zeros = 0
    for spec in all_completed_specs(n, k):
        nonzero, point, omega = det_is_nonzero(spec)
        if nonzero is False:
            zeros += 1
            assert point is None and violates(spec, omega), spec.to_obj()
        else:
            assert nonzero is True and omega is None and check_condition(spec)[0]
    assert zeros > 0


def test_witness_failing_the_recount_is_not_a_proof(monkeypatch):
    # a feasible pattern with a wrong witness patched in: the recount refuses
    # it, so the verdict is the evaluated nonzero with its point, never zero
    spec = SupportSpec(4, 3, [(1, 2), (1, 3), (2, 3)])
    expected = det_is_nonzero(spec, seed=3)
    for wrong in [frozenset({1, 2}), frozenset({1, 2, 3}), frozenset({0, 1}),
                  frozenset({3, 4}), frozenset()]:
        monkeypatch.setattr(gmmds, "check_condition", lambda _spec, w=wrong: (False, w))
        nonzero, point, omega = det_is_nonzero(spec, seed=3)
        assert (nonzero, point, omega) == expected
        assert nonzero is True and point is not None and omega is None
    # the refusal is the recount's, not the cross-check point's: with every
    # value zero, a refused witness leaves the verdict undecided
    monkeypatch.setattr(gmmds, "_det_nonzero_at", lambda _spec, _point: False)
    for wrong in [frozenset({1, 2}), frozenset({1, 2, 3}), frozenset({0, 1})]:
        monkeypatch.setattr(gmmds, "check_condition", lambda _spec, w=wrong: (False, w))
        assert det_is_nonzero(spec, seed=3) == (None, None, None)


def test_proved_zero_is_cross_checked_at_one_point(monkeypatch):
    # an infeasible pattern costs one evaluation, which must give zero; a
    # nonzero value there is reported as the proved nonzero it would be
    spec = SupportSpec(4, 3, [(1, 2), (1, 2), (3, 4)])
    points = []
    monkeypatch.setattr(gmmds, "_det_nonzero_at", lambda _s, p: points.append(p) or False)
    assert det_is_nonzero(spec, seed=9) == (False, None, frozenset({1, 2}))
    assert len(points) == 1
    monkeypatch.setattr(gmmds, "_det_nonzero_at", lambda _s, p: True)
    nonzero, point, omega = det_is_nonzero(spec, seed=9)
    assert (nonzero, point, omega) == (True, points[0], None)


def test_no_nonzero_value_is_undecided(monkeypatch):
    # a feasible pattern whose every point evaluates to zero has no proof
    # either way: the verdict is None after RANDOM_TRIALS points
    spec = SupportSpec(4, 3, [(1, 2), (1, 3), (2, 3)])
    calls = []
    monkeypatch.setattr(gmmds, "_det_nonzero_at", lambda _s, p: calls.append(p) or False)
    assert det_is_nonzero(spec) == (None, None, None)
    assert len(calls) == gmmds.RANDOM_TRIALS
    report = oracle_report(spec)
    assert report.condition is True and report.to_obj()["det_p_nonzero"] is None
    # of the 9 families at (3, 2), only the 3 proved zeros still agree
    table = sweep_agreement(n=3, k=2)
    assert (table["families"], table["agree"], len(table["disagreements"])) == (9, 3, 6)


def all_completed_specs(n, k):
    subsets = list(combinations(range(1, n + 1), k - 1))
    for zeros in product(subsets, repeat=k):
        yield SupportSpec(n, k, zeros)


@pytest.mark.parametrize("n,k", [(2, 1), (4, 1), (2, 2), (3, 2), (4, 2), (5, 2),
                                 (3, 3), (4, 3), (5, 3)])
def test_oracle_equivalence_exhaustive(n, k):
    for spec in all_completed_specs(n, k):
        nonzero = det_is_nonzero(spec)[0]
        assert nonzero is reference_det_nonzero(spec) is check_condition(spec)[0], spec.to_obj()


def test_oracle_equivalence_randomized_bulk():
    rng = random.Random(2024)
    agree = 0
    trials = 1000
    for _ in range(trials):
        k = rng.choice([4, 5])
        n = rng.randint(k, 8)
        zeros = [rng.sample(range(1, n + 1), k - 1) for _ in range(k)]
        spec = SupportSpec(n, k, zeros)
        nonzero = det_is_nonzero(spec, seed=rng.randrange(2 ** 30))[0]
        if nonzero is check_condition(spec)[0]:
            agree += 1
    assert agree == trials


def test_determinant_degree_bound():
    # total degree at most k(k-1)/2 over a set of size 50k(k-1): a nonzero
    # determinant vanishes at a uniform point with probability at most 1/100
    rng = random.Random(99)
    for _ in range(40):
        k = rng.choice([2, 3, 4])
        n = rng.randint(k, 6)
        zeros = [rng.sample(range(1, n + 1), k - 1) for _ in range(k)]
        det = symbolic_det(support_polynomial_matrix(SupportSpec(n, k, zeros)))
        assert total_degree(det) <= k * (k - 1) // 2


def exact_first_nonzero(spec, seed):
    """First draw of the randomized mode with a nonzero determinant, found by
    evaluating the symbolic matrix and expanding by cofactors."""
    matrix = support_polynomial_matrix(spec)
    size = max(1, 50 * spec.k * (spec.k - 1))
    rng = random.Random(seed)
    for _ in range(gmmds.RANDOM_TRIALS):
        point = tuple([rng.randrange(size) for _ in range(spec.n)])
        det = cofactor_det([[evaluate(entry, point) for entry in row] for row in matrix], 1)
        if det:
            return point, det
    return None, 0


@pytest.mark.parametrize("zeros", [[(1, 2), (1, 3), (2, 3)], [(1, 2), (3, 4), (1, 4)],
                                   [(1, 2), (1, 2), (3, 4)]])
def test_zero_mod_q_falls_back_to_exact(monkeypatch, zeros):
    # with q = 2 the first nonzero determinant drawn is even (or, for the
    # violating pattern, every one is zero); zero mod q proves nothing, so
    # exact Bareiss must give the exact-only verdict and witness
    q = 2
    spec = SupportSpec(4, 3, zeros)
    seed, (point, det) = next((s, exact_first_nonzero(spec, s)) for s in range(100)
                              if exact_first_nonzero(spec, s)[1] % q == 0)
    monkeypatch.setattr(gmmds, "DET_MODULUS", q)
    exact_steps = []
    patch_exact_eliminate(monkeypatch, [gmmds],
                          lambda rows: exact_steps.append(rows) or _eliminate(rows))
    nonzero, witness, _ = det_is_nonzero(spec, seed=seed)
    assert (nonzero, witness) == (point is not None, point)
    assert exact_steps
    assert nonzero == check_condition(spec)[0]
