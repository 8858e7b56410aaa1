import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclogab import (Certificate, ConstructionResult, ExactMatrix,
                      SupportSpec, bordered_minor_row, build_subcode, certify_mrd,
                      complete_sets, construct, hamming_distance, moore_matrix,
                      required_dimension, sample_points, verify_support)
from cyclogab.certify import _distance_sweep
from cyclogab.cli import main
from conftest import CONTEXTS
from helpers import brute_hamming_distance, identity, zero_matrix, zeta

STAIRCASE = SupportSpec(6, 3, [(1, 2), (3, 4), (5, 6)])


def test_verify_support_on_construction(ctx11):
    result = construct(STAIRCASE, ctx11, 1200, seed=1)
    assert verify_support(result.generator, STAIRCASE)
    assert verify_support(result.generator, result.completed)


def test_verify_support_detects_perturbation(ctx11):
    result = construct(STAIRCASE, ctx11, 1200, seed=1)
    g = result.generator
    entries = list(g.entries)
    entries[0 * g.cols + 0] = ctx11.one()  # column 1 is constrained in row 1
    assert not verify_support(ExactMatrix(ctx11, g.rows, g.cols, entries), STAIRCASE)


def test_verify_support_empty_pattern(ctx5):
    empty = SupportSpec(3, 2, [(), ()])
    m = ExactMatrix.from_rows(ctx5, [[ctx5.one()] * 3, [zeta(ctx5, 1)] * 3])
    assert verify_support(m, empty)
    with pytest.raises(ValueError):
        verify_support(m, SupportSpec(4, 2, [(), ()]))


def test_hamming_distance_identity(ctx5):
    assert hamming_distance(identity(ctx5, 2)) == 1


def test_hamming_distance_single_row(ctx5):
    ones = ExactMatrix.from_rows(ctx5, [[ctx5.one()] * 4])
    assert hamming_distance(ones) == 4


def test_hamming_distance_requires_full_rank(ctx5):
    with pytest.raises(ValueError):
        hamming_distance(zero_matrix(ctx5, 2, 3))


def test_hamming_distance_budget(ctx11):
    result = construct(STAIRCASE, ctx11, 1200, seed=1)
    with pytest.raises(ValueError, match="budget"):
        hamming_distance(result.generator, max_checks=5)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=15, deadline=None)
def test_hamming_distance_matches_subset_scan(seed):
    # independent route: scan every column subset for the widest rank drop
    ctx = CONTEXTS[5]
    pts = sample_points(ctx, 4, 9, seed=seed)
    m = ExactMatrix.from_rows(ctx, [pts, tuple(x.aut(1) for x in pts)])
    if m.rank() < 2:
        return
    assert hamming_distance(m) == brute_hamming_distance(m)


def test_certify_full_pass(ctx11):
    result = construct(STAIRCASE, ctx11, 1200, seed=1)
    cert = certify_mrd(result)
    assert cert.support_ok and cert.t_invertible and cert.points_independent
    assert cert.hamming_distance == 4  # n - k + 1
    assert cert.claimed_rank_distance == 4
    assert cert.rank_distance_basis == "gabidulin-theorem"
    assert cert.checked_minors == 20  # C(6, 3)
    assert cert.ell is None
    assert cert.passed


def test_certify_without_minor_sweep(ctx11):
    result = construct(STAIRCASE, ctx11, 1200, seed=1)
    cert = certify_mrd(result, check_minors=False)
    assert cert.hamming_distance is None
    assert cert.checked_minors == 0
    assert cert.claimed_rank_distance == 4
    assert cert.passed


def make_result(ctx, spec, points, s_size, seed):
    """Assemble a fully consistent result from given points, as a stored
    file could encode one; construct() itself never emits degenerate draws."""
    completed = complete_sets(spec)
    rows = [bordered_minor_row(ctx, [points[c - 1] for c in sorted(z)])
            for z in completed.zeros]
    transform = ExactMatrix.from_rows(ctx, rows)
    return ConstructionResult(spec=spec, completed=completed, points=points,
                              transform=transform, s_size=s_size,
                              seed=seed, max_retries=0, retries=0)


def test_certify_dependent_points_fails_without_claim(ctx11):
    # duplicate one coordinate row: the points become dependent while the
    # whole result stays internally consistent
    clean = sample_points(ctx11, STAIRCASE.n, 1200, seed=1)
    dependent = clean[:-1] + (clean[0],)
    cert = certify_mrd(make_result(ctx11, STAIRCASE, dependent, 1200, 1))
    assert not cert.points_independent
    assert cert.claimed_rank_distance is None
    assert cert.rank_distance_basis is None
    assert cert.hamming_distance is None
    assert not cert.passed


def test_result_invariants_enforced(ctx11, tmp_path, capsys):
    # moore and generator are derived from the points and the transform; a
    # stored copy that differs from the derived one is refused on load
    result = construct(STAIRCASE, ctx11, 1200, seed=1)
    assert result.moore == moore_matrix(result.points, STAIRCASE.k)
    assert result.generator == result.transform @ result.moore
    # the points of another draw: every construct of this pattern takes the
    # same fixed points
    other = make_result(ctx11, STAIRCASE, sample_points(ctx11, STAIRCASE.n, 1200, seed=99),
                        1200, 99).to_obj()
    assert other["moore"] != result.to_obj()["moore"]
    for key, message in [("moore", "orbit of the points"), ("generator", "transform @ moore")]:
        obj = result.to_obj()
        obj[key] = other[key]
        with pytest.raises(ValueError, match=message):
            ConstructionResult.from_obj(obj)
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        assert main(["certify", str(path)]) == 2
        assert message in capsys.readouterr().err


def test_certificate_consistency_and_round_trip(ctx11):
    cert = certify_mrd(construct(STAIRCASE, ctx11, 1200, seed=8))
    if cert.hamming_distance is not None and cert.claimed_rank_distance is not None:
        assert cert.claimed_rank_distance <= cert.hamming_distance
    obj = cert.to_obj()
    assert obj["passed"] is True


def test_written_matrices_share_no_mutable_state(ctx11):
    result = construct(STAIRCASE, ctx11, 1200, seed=1)
    generator = result.generator
    digest = certify_mrd(result).matrix_sha256
    first = generator.to_obj()
    first["entries"][0][0] = "7/1"
    first["entries"].append(["1/1"] * ctx11.m)
    result.to_obj()["generator"]["entries"][1].clear()
    assert generator.to_obj() == ConstructionResult.from_obj(result.to_obj()).generator.to_obj()
    assert generator.to_obj()["entries"] == [e.to_strings() for e in generator.entries]
    assert certify_mrd(result).matrix_sha256 == digest


def test_certification_is_reproducible(ctx11):
    result = construct(STAIRCASE, ctx11, 1200, seed=9)
    first = certify_mrd(result)
    second = certify_mrd(type(result).from_obj(result.to_obj()))
    assert first == second


def test_distance_sweep_counts(ctx11):
    result = construct(STAIRCASE, ctx11, 1200, seed=1)
    d, checks = _distance_sweep(result.generator, 100_000)
    assert (d, checks) == (4, 20)


def test_subcode_two_shared_pairs(ctx5):
    spec = SupportSpec(4, 2, [(1, 2), (1, 2)])
    assert required_dimension(spec) == 4
    sub = build_subcode(spec, ctx5, 500, seed=3)
    cert = sub.certificate
    assert cert.ell == 4
    assert cert.hamming_distance == 1  # n - ell + 1
    assert cert.claimed_rank_distance == 1
    assert cert.rank_distance_basis == "subcode-sandwich"
    assert cert.passed
    assert verify_support(sub.generator, spec)


def test_subcode_rows_come_from_padded_build(ctx5):
    spec = SupportSpec(4, 2, [(1, 2), (1, 2)])
    sub = build_subcode(spec, ctx5, 500, seed=3)
    padded = sub.padded
    assert padded.spec.k == 4
    assert padded.spec.zeros[2:] == (frozenset(), frozenset())
    assert sub.generator.row_lists() == padded.generator.row_lists()[:2]


def test_subcode_degenerates_for_feasible_pattern(ctx11):
    sub = build_subcode(STAIRCASE, ctx11, 1200, seed=1)
    cert = sub.certificate
    assert cert.ell == required_dimension(STAIRCASE) <= STAIRCASE.k
    assert cert.claimed_rank_distance == 4
    assert cert.rank_distance_basis == "gabidulin-theorem"
    assert sub.generator == sub.padded.generator
    assert cert == certify_mrd(sub.padded)._replace(ell=cert.ell)


def test_subcode_rejects_oversized_dimension(ctx5):
    spec = SupportSpec(4, 2, [(1, 2, 3), (1, 2, 3)])
    assert required_dimension(spec) == 5
    with pytest.raises(ValueError, match="exceeds n"):
        build_subcode(spec, ctx5, 500, seed=0)


def test_subcode_reproducible(ctx5):
    spec = SupportSpec(4, 2, [(1, 2), (1, 2)])
    a = build_subcode(spec, ctx5, 500, seed=3)
    b = build_subcode(spec, ctx5, 500, seed=3)
    assert a == b
    assert a.to_obj() == b.to_obj()
