"""The depth-first minor sweep against the one-elimination-per-subset
reference: same distance, same count, same budget error, same exact calls."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclogab import (ExactMatrix, SupportSpec, build_subcode, certify, construct,
                      hamming_distance, linalg)
from cyclogab.certify import _distance_sweep
from conftest import CONTEXTS
from helpers import (brute_hamming_distance, reference_distance_sweep, refuse_rank_deficient,
                     zeta)
from test_fastpath import false_zero, q_scaled


def outcome(sweep, matrix, max_checks):
    try:
        return sweep(matrix, max_checks)
    except ValueError as exc:
        return str(exc)


@st.composite
def sweep_matrices(draw):
    """k x n matrices, k in 1..6, with planted zero columns, dependent columns,
    common zero columns (their code is a subcode, so the sweep ends past
    s = k), a false zero mod q and a row scaled by q around one entry."""
    ctx = CONTEXTS[draw(st.sampled_from([5, 7]))]
    k = draw(st.integers(min_value=1, max_value=6))
    n = draw(st.integers(min_value=k, max_value=k + (3 if k <= 4 else 2)))
    small = st.lists(st.integers(min_value=-2, max_value=2), min_size=ctx.m, max_size=ctx.m)
    rows = [[ctx.element(draw(small)) for _ in range(n)] for _ in range(k)]
    zero = ctx.zero()
    cols = st.integers(min_value=0, max_value=n - 1)
    for c in draw(st.sets(cols, max_size=2)):  # common zeros of the first rows
        for i in range(draw(st.integers(min_value=1, max_value=k))):
            rows[i][c] = zero
    if draw(st.booleans()):  # a zero column
        c = draw(cols)
        for row in rows:
            row[c] = zero
    if n >= 3 and draw(st.booleans()):  # a planted dependent column
        a, b, c = draw(st.permutations(range(n)))[:3]
        for row in rows:
            row[c] = row[a] + row[b] * 2
    if draw(st.booleans()):
        rows[draw(st.integers(0, k - 1))][draw(cols)] = false_zero(ctx)
    if k <= 3 and draw(st.integers(0, 4)) == 0:
        i = draw(st.integers(0, k - 1))
        rows[i] = q_scaled(ctx, rows[i], draw(cols))
    return ExactMatrix.from_rows(ctx, rows)


@given(sweep_matrices())
@settings(max_examples=60, deadline=None)
def test_matches_reference_at_every_budget(matrix):
    full = outcome(reference_distance_sweep, matrix, 10 ** 6)
    assert outcome(_distance_sweep, matrix, 10 ** 6) == full
    if isinstance(full, str):  # rank-deficient: refused before any subset
        assert "rank-deficient" in full
        return
    distance, checks = full
    assert distance == brute_hamming_distance(matrix)
    for budget in range(checks + 1):
        assert outcome(_distance_sweep, matrix, budget) \
            == outcome(reference_distance_sweep, matrix, budget)


def patch_exact_rank(monkeypatch, fn):
    # the sweep's leaf and ExactMatrix.rank's fallback
    for module in (linalg, certify):
        monkeypatch.setattr(module, "_exact_rank", fn)


def exact_rank_calls(monkeypatch, sweep, matrix):
    calls = []
    exact = linalg._exact_rank
    with monkeypatch.context() as patch:
        patch_exact_rank(patch, lambda rows: calls.append(1) or exact(rows))
        result = sweep(matrix, 10 ** 6)
    return result, len(calls)


def false_zero_pair(ctx):
    # columns 0 and 1 are a false zero's multiples, so {0, 1} needs the exact rank
    one = ctx.one()
    return [[one, false_zero(ctx), one, ctx.zero()], [one, one, one, one]]


def no_image(ctx):
    # row 0 is scaled by q around column 1, so its image is (0, 1, 0, 0) and
    # the three subsets that miss column 1 are decided exactly
    one = ctx.one()
    return [q_scaled(ctx, [one, one, one, ctx.zero()], 1), [one, one, zeta(ctx, 1), one]]


def test_same_exact_calls_as_reference(monkeypatch):
    # the reference's check before any subset takes no exact rank here (both
    # images prove full row rank), so the sweep makes exactly its leaf calls
    check = lambda matrix, max_checks: refuse_rank_deficient(matrix)
    for rows, leaves in ((false_zero_pair, 1), (no_image, 3)):
        g = ExactMatrix.from_rows(CONTEXTS[5], rows(CONTEXTS[5]))
        assert exact_rank_calls(monkeypatch, check, g)[1] == 0
        new = exact_rank_calls(monkeypatch, _distance_sweep, g)
        assert new == exact_rank_calls(monkeypatch, reference_distance_sweep, g)
        assert new[1] == leaves


RANK_DEFICIENT = "matrix is rank-deficient; its rows do not generate a k-dimensional code"


def rank_deficient_matrices(ctx):
    one, zero, z = ctx.one(), ctx.zero(), zeta(ctx, 1)
    row = [one, z, zero, one + z]
    return {
        "all zero": [[zero] * 4] * 2,
        "repeated row": [row, [one] * 4, row],
        "repeated row with no image": [q_scaled(ctx, [one, one, z, one], 0)] * 2,
        "k > n": [[one, z], [z, one], [one, one]],
    }


@pytest.mark.parametrize("name", list(rank_deficient_matrices(CONTEXTS[5])))
def test_rank_deficient_matrix_refused(monkeypatch, name):
    # every size ends at its first subset, decided deficient by the exact
    # rank, so the refusal comes after n - k + 1 checks, or the budget's first
    g = ExactMatrix.from_rows(CONTEXTS[5], rank_deficient_matrices(CONTEXTS[5])[name])
    with pytest.raises(ValueError) as exc:
        hamming_distance(g)
    assert str(exc.value) == RANK_DEFICIENT
    leaves = max(g.cols - g.rows + 1, 0)
    refused = lambda matrix, max_checks: outcome(_distance_sweep, matrix, max_checks)
    assert exact_rank_calls(monkeypatch, refused, g) == (RANK_DEFICIENT, leaves)
    for budget in range(leaves):
        with pytest.raises(ValueError, match=f"column-subset budget {budget} exceeded"):
            hamming_distance(g, max_checks=budget)
    with pytest.raises(ValueError) as exc:
        hamming_distance(g, max_checks=leaves)
    assert str(exc.value) == RANK_DEFICIENT


def test_proved_image_needs_no_exact_rank(monkeypatch):
    ctx = CONTEXTS[13]
    full = construct(SupportSpec(8, 3, [()] * 3), ctx, 2000, seed=3).generator
    patch_exact_rank(monkeypatch, lambda rows: pytest.fail("exact rank called"))
    assert _distance_sweep(full, 10 ** 6) == (6, 56)


def test_subcode_sweep_decides_only_the_deficient_subsets(monkeypatch):
    # ell = 5: sizes 3 and 4 each end at one deficient subset, decided exactly,
    # and size 5 is proved by F_q throughout
    ctx = CONTEXTS[13]
    sub = build_subcode(SupportSpec(8, 3, [(1, 2), (1, 2), (1, 2)]), ctx, 2000, seed=3,
                        check_minors=False).generator
    new = exact_rank_calls(monkeypatch, _distance_sweep, sub)
    assert new == exact_rank_calls(monkeypatch, reference_distance_sweep, sub)
    assert new[0][0] == 8 - 5 + 1 and new[1] == 2


def test_weight_one_codeword():
    # row 2 is supported on column 1 alone; every larger size reaches rank 2
    # through a prefix holding columns 0 and 1, whose extensions are counted
    ctx = CONTEXTS[7]
    one, zero = ctx.one(), ctx.zero()
    g = ExactMatrix.from_rows(ctx, [[one, zero, one, one, one, one],
                                    [zero, one, zero, zero, zero, zero]])
    result = _distance_sweep(g, 10 ** 6)
    assert result == reference_distance_sweep(g, 10 ** 6)
    assert result[0] == brute_hamming_distance(g) == 1


def test_walk_depth_is_not_bounded_by_the_recursion_limit():
    # one row of weight 1: every size up to n ends at its first subset, and
    # the last size walks n columns deep
    ctx = CONTEXTS[5]
    n = 1050
    g = ExactMatrix.from_rows(ctx, [[ctx.zero()] * (n - 1) + [ctx.one()]])
    assert _distance_sweep(g, 10 ** 6) == (1, n)
