"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Everything here is exact
arithmetic; the only statistical statement (the single-draw success rate) is
pinned to its stated slack and is deterministic for the frozen seeds.
"""

import itertools
import json
import math
import random
from fractions import Fraction

from cyclogab import (GaloisContext, RetriesExhausted, SupportSpec, build_subcode,
                      certify_mrd, check_condition, complete_sets, construct,
                      det_is_nonzero, is_independent, moore_matrix, required_dimension,
                      sample_points, sweep_agreement, verify_support)
from cyclogab.cli import main as cli_main
from helpers import reference_det_nonzero

STAIRCASE = SupportSpec(6, 3, [(1, 2), (3, 4), (5, 6)])


def _report(label: str, ok: bool, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {label}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"{label}{suffix}"


def test_criterion_1_oracle_equivalence_exhaustive():
    # all 216 families of three 2-element subsets of [4]: the combinatorial
    # condition, the oracle's proved verdict and the symbolic expansion of
    # the test reference must agree exactly
    table = sweep_agreement(n=4, k=3)
    families = [SupportSpec(4, 3, zeros) for zeros in itertools.product(
        itertools.combinations(range(1, 5), 2), repeat=3)]
    three_way = sum(check_condition(spec)[0] is det_is_nonzero(spec)[0]
                    is reference_det_nonzero(spec) for spec in families)
    ok = (table["families"] == len(families) == 216 and table["agree"] == 216
          and not table["disagreements"] and three_way == 216)
    _report("1 oracle equivalence on all 216 families", ok,
            f"agree={table['agree']}/216, with the reference {three_way}/216")


def test_criterion_2_single_draw_success_rate():
    # p=11, staircase pattern, s_size=1200 (failure bound 0.01): 200 single
    # draws may fail at most floor((0.01 + 0.03) * 200) = 8 times
    ctx = GaloisContext(11)
    failures = 0
    for seed in range(200):
        try:
            construct(STAIRCASE, ctx, 1200, seed=seed, max_retries=0)
        except RetriesExhausted:
            failures += 1
    bound = (0.01 + 0.03) * 200
    _report("2 single-draw failure rate within bound", failures <= bound,
            f"failures={failures}/200, allowed={bound:.0f}")


def test_criterion_3_exact_certification_sweep():
    # every successful construction at p=11, n <= 6, k <= 3 certifies with
    # all exact checks true and a full C(n, k) minor sweep giving n-k+1
    ctx = GaloisContext(11)
    cases = ([(STAIRCASE, seed) for seed in range(30)]
             + [(SupportSpec(5, 2, [(1,), (3,)]), seed) for seed in range(10)]
             + [(SupportSpec(4, 3, [(1,), (2,), (3,)]), seed) for seed in range(10)])
    exceptions = []
    for spec, seed in cases:
        result = construct(spec, ctx, 1200, seed=seed)
        cert = certify_mrd(result)
        expected = spec.n - spec.k + 1
        good = (cert.support_ok and cert.t_invertible and cert.points_independent
                and verify_support(result.generator, spec)
                and cert.hamming_distance == expected
                and cert.checked_minors == math.comb(spec.n, spec.k)
                and cert.passed)
        if not good:
            exceptions.append((spec.to_obj(), seed))
    _report("3 exact certification across 50 seeds", not exceptions,
            f"cases={len(cases)}, exceptions={len(exceptions)}")


def test_criterion_4_independence_test_suite():
    # p=5: 100 planted rational dependences must give a vanishing top minor;
    # 100 unplanted triples must be nonzero in >= 97 cases, with the full
    # Moore column rank agreeing in every decided case
    ctx = GaloisContext(5)
    planted_ok = 0
    for i in range(100):
        pts = sample_points(ctx, 2, 1000, seed=40_000 + i)
        rng = random.Random(9_000 + i)
        a = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        b = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        # a x0 + b x1 times the common denominator: an integral point
        scale = a.denominator * b.denominator
        triple = [pts[0], pts[1], pts[0] * int(a * scale) + pts[1] * int(b * scale)]
        top_minor_zero = not moore_matrix(triple, 3).det()
        full_rank_drop = moore_matrix(triple, ctx.m).rank() < 3
        if top_minor_zero and full_rank_drop:
            planted_ok += 1
    nonzero = 0
    rank_agrees = True
    for i in range(100):
        pts = sample_points(ctx, 3, 1000, seed=50_000 + i)
        if is_independent(pts):
            nonzero += 1
            if moore_matrix(pts, ctx.m).rank() != 3:
                rank_agrees = False
        else:
            if moore_matrix(pts, ctx.m).rank() == 3:
                rank_agrees = False
    ok = planted_ok == 100 and nonzero >= 97 and rank_agrees
    _report("4 independence-test equivalence suite", ok,
            f"planted={planted_ok}/100, unplanted nonzero={nonzero}/100")


def test_criterion_5_completion_bulk():
    # 500 random feasible patterns (n <= 8, k <= 4) must complete to k-1
    # zeros per row, stay feasible, extend the input, and be idempotent
    rng = random.Random(77_000)
    done = 0
    failures = 0
    while done < 500:
        k = rng.randint(1, 4)
        n = rng.randint(k, 8)
        zeros = [rng.sample(range(1, n + 1), rng.randint(0, k - 1)) for _ in range(k)]
        spec = SupportSpec(n, k, zeros)
        if not check_condition(spec)[0]:
            continue
        done += 1
        completed = complete_sets(spec)
        good = (all(len(z) == k - 1 for z in completed.zeros)
                and all(o <= c for o, c in zip(spec.zeros, completed.zeros))
                and check_condition(completed)[0]
                and complete_sets(completed) is completed)
        if not good:
            failures += 1
    _report("5 completion of 500 random feasible patterns", failures == 0,
            f"failures={failures}/500")


def test_criterion_6_subcode_desk_scale():
    # shared pair on two rows of [4]: padding dimension 4, subcode distance 1
    ctx5 = GaloisContext(5)
    spec_a = SupportSpec(4, 2, [(1, 2), (1, 2)])
    ell_a = required_dimension(spec_a)
    sub_a = build_subcode(spec_a, ctx5, 500, seed=3)
    ok_a = (ell_a == 4 and sub_a.certificate.ell == 4
            and sub_a.certificate.hamming_distance == 1
            and sub_a.certificate.claimed_rank_distance == 1
            and sub_a.certificate.passed
            and verify_support(sub_a.generator, spec_a))

    # one shared zero column on all three rows of [5]: padding dimension 4,
    # subcode distance 2 = n - 4 + 1
    ctx7 = GaloisContext(7)
    spec_b = SupportSpec(5, 3, [(1,), (1,), (1,)])
    ell_b = required_dimension(spec_b)
    sub_b = build_subcode(spec_b, ctx7, 800, seed=5)
    ok_b = (ell_b == 4 and sub_b.certificate.ell == 4
            and sub_b.certificate.hamming_distance == 2
            and sub_b.certificate.claimed_rank_distance == 2
            and sub_b.certificate.passed
            and verify_support(sub_b.generator, spec_b))

    # the all-shared-triple variant of the second instance needs dimension 6,
    # which exceeds n=5, so no nontrivial code fits and the build must refuse
    spec_c = SupportSpec(5, 3, [(1, 2, 3), (1, 2, 3), (1, 2, 3)])
    ok_c = required_dimension(spec_c) == 6
    try:
        build_subcode(spec_c, ctx7, 800, seed=5)
        ok_c = False
    except ValueError:
        pass

    _report("6 subcode distances at desk scale", ok_a and ok_b and ok_c,
            f"ell_a={ell_a}, d_a={sub_a.certificate.hamming_distance}, "
            f"ell_b={ell_b}, d_b={sub_b.certificate.hamming_distance}")


def test_criterion_7_cli_reproducibility(tmp_path, capsys):
    spec_path = tmp_path / "zeros.json"
    spec_path.write_text(json.dumps(STAIRCASE.to_obj()), encoding="utf-8")
    argv = ["construct", "--prime", "11", "--zeros", str(spec_path),
            "--epsilon", "0.01", "--seed", "1"]
    codes = []
    for label in ("first", "second"):
        codes.append(cli_main(argv + ["--out", str(tmp_path / label)]))
    capsys.readouterr()
    same_result = ((tmp_path / "first" / "result.json").read_bytes()
                   == (tmp_path / "second" / "result.json").read_bytes())
    same_cert = ((tmp_path / "first" / "certificate.json").read_bytes()
                 == (tmp_path / "second" / "certificate.json").read_bytes())
    ok = codes == [0, 0] and same_result and same_cert
    _report("7 byte-identical CLI reruns", ok,
            f"exit_codes={codes}, result_match={same_result}, cert_match={same_cert}")
