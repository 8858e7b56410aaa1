import json
from enum import IntEnum
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cyclogab import (CompletionError, SupportSpec, check_condition, complete_sets,
                      required_dimension, supports)
from cyclogab.supports import MAX_ROWS
from helpers import (brute_condition, brute_required_dimension, enumerated_condition,
                     enumerated_required_dimension, outcome, reference_complete_sets,
                     subset_values)


def random_specs(max_n=8, max_k=4, satisfying=None):
    @st.composite
    def build(draw):
        k = draw(st.integers(min_value=1, max_value=max_k))
        n = draw(st.integers(min_value=k, max_value=max_n))
        zeros = []
        for _ in range(k):
            size = draw(st.integers(min_value=0, max_value=min(n, k)))
            zeros.append(draw(st.permutations(range(1, n + 1)))[:size])
        return SupportSpec(n, k, zeros)
    strat = build()
    if satisfying is not None:
        strat = strat.filter(lambda s: check_condition(s)[0] == satisfying)
    return strat


def counting_check(monkeypatch, fail_from=None):
    # wraps supports.check_condition; calls numbered fail_from and later report a violation
    calls = []
    real = supports.check_condition

    def wrapped(spec):
        calls.append(spec)
        if fail_from is not None and len(calls) >= fail_from:
            return False, frozenset({1})
        return real(spec)
    monkeypatch.setattr(supports, "check_condition", wrapped)
    return calls


def test_condition_examples():
    ok, witness = check_condition(SupportSpec(3, 3, [(1, 2), (1, 3), (2, 3)]))
    assert ok and witness is None
    ok, witness = check_condition(SupportSpec(2, 2, [(1,), (1,)]))
    assert not ok
    assert witness == frozenset({1, 2})
    ok, _ = check_condition(SupportSpec(5, 4, [(), (), (), ()]))
    assert ok


def test_condition_witness_is_violating():
    spec = SupportSpec(6, 3, [(1, 2, 3), (1, 2, 3), (4,)])
    ok, witness = check_condition(spec)
    assert not ok
    common = set.intersection(*(set(spec.zeros[i - 1]) for i in witness))
    assert len(common) + len(witness) > spec.k


def test_required_dimension_examples():
    assert required_dimension(SupportSpec(4, 2, [(1, 2), (1, 2)])) == 4
    assert required_dimension(SupportSpec(5, 3, [(), (), ()])) == 3
    spec = SupportSpec(6, 3, [(1, 2), (3, 4), (5, 6)])
    assert required_dimension(spec) <= spec.k


@st.composite
def wide_specs(draw):
    # k rows, each zero set a union of up to three column runs of n = 4000,
    # over a union wider than _TABLE_WIDTH
    k = draw(st.integers(min_value=2, max_value=5))
    runs = st.tuples(st.integers(min_value=1, max_value=4000), st.integers(1, 1500))
    zeros = [set().union(*[range(a, min(a + w, 4001)) for a, w in row])
             for row in draw(st.lists(st.lists(runs, max_size=3), min_size=k - 1,
                                      max_size=k - 1))]
    zeros.append(draw(st.sampled_from(zeros + [set()])))  # repeated zero sets form one group
    assume(len(set().union(*zeros)) > supports._TABLE_WIDTH)
    return 4000, k, zeros


@given(wide_specs())
@settings(max_examples=40, deadline=None)
def test_wide_masks_match_the_table_path(shape):
    # the bytearray masks of a union wider than _TABLE_WIDTH against the 1 << j table
    wide = SupportSpec(*shape)
    with patch.object(supports, "_TABLE_WIDTH", 10 ** 9):
        table = SupportSpec(*shape)
        table_groups, table_verdict = supports._groups(table), check_condition(table)
        table_ell = required_dimension(table)
    assert supports._groups(wide) == table_groups
    assert check_condition(wide) == table_verdict
    assert required_dimension(wide) == table_ell == brute_required_dimension(wide)


def test_enumeration_guard():
    # no pattern above MAX_ROWS rows exists, so no check or dimension runs on one
    with pytest.raises(ValueError, match=r"^row count 25 exceeds the input bound MAX_ROWS = 24$"):
        SupportSpec(30, 25, [()] * 25)


@given(random_specs())
@settings(max_examples=120)
def test_condition_matches_brute_force(spec):
    assert check_condition(spec)[0] == brute_condition(spec)
    assert required_dimension(spec) == brute_required_dimension(spec)


@given(random_specs())
@settings(max_examples=80)
def test_condition_iff_dimension_bound(spec):
    assert check_condition(spec)[0] == (required_dimension(spec) <= spec.k)


@st.composite
def specs_with_duplicates(draw, max_k=10):
    # k rows drawn from at most k-1 distinct zero sets, so some rows repeat
    k = draw(st.integers(min_value=2, max_value=max_k))
    n = draw(st.integers(min_value=k, max_value=k + 4))
    bases = draw(st.lists(st.sets(st.integers(min_value=1, max_value=n), max_size=k),
                          min_size=1, max_size=k - 1))
    picks = draw(st.lists(st.integers(min_value=0, max_value=len(bases) - 1),
                          min_size=k, max_size=k))
    return SupportSpec(n, k, [bases[i] for i in picks])


@st.composite
def bound_regimes(draw, max_k=12):
    # dense rows (near k - 1 zeros, the count bound rarely decides a group),
    # sparse rows (it always does) or a mix, with some rows repeated; k stays
    # small enough for the 2^d walk of the reference
    k = draw(st.integers(min_value=1, max_value=max_k))
    n = draw(st.integers(min_value=k, max_value=k + 5))
    low, high = draw(st.sampled_from([(max(0, k - 3), k - 1), (0, k // 3), (0, k)]))
    zeros = []
    for _ in range(k):
        if zeros and draw(st.integers(min_value=0, max_value=4)) == 0:
            zeros.append(draw(st.sampled_from(zeros)))
        else:
            size = draw(st.integers(min_value=min(low, n), max_value=min(high, n)))
            zeros.append(draw(st.permutations(range(1, n + 1)))[:size])
    return SupportSpec(n, k, zeros)


@st.composite
def tight_patterns(draw, max_k=10):
    # sparse rows plus one or two planted row sets whose common zeros bring
    # their value to exactly k or k + 1, so group values land on the
    # boundary, and so do completion candidates next to a set at exactly k
    k = draw(st.integers(min_value=2, max_value=max_k))
    n = draw(st.integers(min_value=k + 1, max_value=k + 4))
    zeros = [draw(st.sets(st.integers(min_value=1, max_value=n), max_size=k // 3))
             for _ in range(k)]
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        rows = draw(st.permutations(range(k)))[:draw(st.integers(min_value=1, max_value=k))]
        size = k - len(rows) + draw(st.integers(min_value=0, max_value=1))
        common = draw(st.permutations(range(1, n + 1)))[:size]
        for i in rows:
            zeros[i] |= set(common)
    return SupportSpec(n, k, zeros)


def enumerated_top_values(spec):
    """Per group h (first-row order), the largest value of a row set whose
    last group is h, from the subset walk."""
    top = {}
    for mask, (value, _) in enumerate(subset_values(spec), start=1):
        h = mask.bit_length() - 1
        top[h] = max(top.get(h, 0), value)
    return [top[h] for h in range(len(top))]


@given(st.one_of(specs_with_duplicates(), random_specs(max_n=14, max_k=10), bound_regimes(),
                 tight_patterns()))
@settings(max_examples=250, deadline=None)
def test_matching_matches_enumeration(spec):
    # verdict, witness (least violating group mask), ell and completion of
    # the matching analysis, with the matchings the count bound decides
    # skipped and each matching stopped once it decides <= k, equal those of
    # the exponential subset walk and of the completion greedy by full
    # re-checks; each group's value is exact above k and reads k otherwise
    k = spec.k
    assert spec._group_values[1] == [max(k, v) for v in enumerated_top_values(spec)]
    assert check_condition(spec) == enumerated_condition(spec)
    assert required_dimension(spec) == enumerated_required_dimension(spec)
    if check_condition(spec)[0]:
        assert complete_sets(spec) == reference_complete_sets(spec)


def test_count_bound_skips_the_matchings(monkeypatch):
    # row h of a diagonal pattern with one zero has value at most
    # 1 + h + 1 <= k for h <= k - 2; only the last group needs a matching
    calls = []
    real = supports._matching_size
    monkeypatch.setattr(supports, "_matching_size",
                        lambda *args: calls.append(1) or real(*args))
    spec = SupportSpec(8, 6, [(i,) for i in range(1, 7)])
    assert required_dimension(spec) == 6
    assert len(calls) == 1


def test_matching_at_the_row_bound():
    # 24 distinct rows: only the full row set violates, which is the last of
    # the 2^24 - 1 subsets an enumeration would visit
    spec = SupportSpec(30, 24, [(i, 25) for i in range(1, 25)])
    assert check_condition(spec) == (False, frozenset(range(1, 25)))
    assert required_dimension(spec) == 25


def test_matching_with_huge_column_indices():
    # columns are indexed by their rank among the zero columns, never by value
    feasible = SupportSpec(10**9, 2, [[10**9], [1]])
    assert check_condition(feasible) == (True, None)
    assert required_dimension(feasible) == 2
    violated = SupportSpec(10**9, 2, [[10**9], [10**9]])
    assert check_condition(violated) == (False, frozenset({1, 2}))
    assert required_dimension(violated) == 3


def test_completion_two_empty_rows():
    # greedy tries column 1 for both rows; the checker rejects the repeat,
    # so the second row advances to column 2
    spec = SupportSpec(3, 2, [(), ()])
    done = complete_sets(spec)
    assert done.zeros == (frozenset({1}), frozenset({2}))


def test_completion_exhaustive_oracle_small():
    # every valid completion of two empty rows over [3] uses distinct columns
    spec = SupportSpec(3, 2, [(), ()])
    valid = [(a, b) for a in range(1, 4) for b in range(1, 4)
             if brute_condition(SupportSpec(3, 2, [(a,), (b,)]))]
    assert valid == [(a, b) for a in range(1, 4) for b in range(1, 4) if a != b]
    done = complete_sets(spec)
    assert (min(done.zeros[0]), min(done.zeros[1])) in valid


def test_completion_already_complete_is_identity(monkeypatch):
    calls = counting_check(monkeypatch)
    spec = SupportSpec(6, 3, [(1, 2), (3, 4), (5, 6)])
    assert complete_sets(spec) is spec
    assert len(calls) == 1


def test_completion_rejects_violating_input():
    with pytest.raises(ValueError):
        complete_sets(SupportSpec(2, 2, [(1,), (1,)]))


@given(random_specs(satisfying=True))
@settings(max_examples=80, deadline=None)
def test_completion_properties(spec):
    done = complete_sets(spec)
    assert all(len(z) == spec.k - 1 for z in done.zeros)
    assert all(orig <= new for orig, new in zip(spec.zeros, done.zeros))
    assert check_condition(done)[0]
    assert complete_sets(done) is done


@given(st.one_of(specs_with_duplicates(max_k=MAX_ROWS),
                 random_specs(max_n=MAX_ROWS + 8, max_k=MAX_ROWS))
       .filter(lambda s: check_condition(s)[0]))
@settings(max_examples=40, deadline=None)
def test_completion_matches_reference_greedy(spec):
    # one matching per candidate picks what the full re-check per candidate
    # picks, and both hand back an already completed input itself
    done, reference = complete_sets(spec), reference_complete_sets(spec)
    assert done == reference
    assert (done is spec) == (reference is spec) == spec.is_completed()
    assert complete_sets(done) is done


def test_completion_checks_the_pattern_twice(monkeypatch):
    # once on the input and once on the completed pattern, never per candidate
    calls = counting_check(monkeypatch)
    done = complete_sets(SupportSpec(48, 24, [(2 * i + 1, 2 * i + 2) for i in range(24)]))
    assert done.is_completed()
    assert len(calls) == 2 and calls[1] is done


def test_completion_failing_final_check_raises(monkeypatch):
    counting_check(monkeypatch, fail_from=2)
    with pytest.raises(CompletionError, match="completed pattern fails"):
        complete_sets(SupportSpec(3, 2, [(), ()]))


def test_completion_with_huge_column_indices():
    # columns are masked by order of first sight, never by value
    spec = SupportSpec(10**9, 3, [[10**9], [10**9], []])
    assert complete_sets(spec).zeros == (frozenset({1, 10**9}), frozenset({2, 10**9}),
                                         frozenset({1, 2}))


@given(random_specs(satisfying=True))
@settings(max_examples=60)
def test_satisfying_rows_are_small(spec):
    # taking a single row in the condition bounds each set by k-1
    assert all(len(z) <= spec.k - 1 for z in spec.zeros)


def test_spec_validation():
    with pytest.raises(ValueError):
        SupportSpec(2, 3, [(), (), ()])  # k > n
    with pytest.raises(ValueError):
        SupportSpec(3, 1, [(4,)])  # column out of range
    with pytest.raises(ValueError):
        SupportSpec(3, 2, [()])  # wrong number of rows


@pytest.mark.parametrize("call, expected", [
    (lambda: SupportSpec(2, 1, [[1]]).__eq__((2, 1, [[1]])), NotImplemented),
], ids=["record-eq-tuple"])
def test_record_defers_to_the_other_operand(call, expected):
    assert outcome(call) == expected


def test_spec_json_round_trip():
    spec = SupportSpec(6, 3, [(2, 1), (3,), ()])
    obj = spec.to_obj()
    assert obj == {"n": 6, "k": 3, "zeros": [[1, 2], [3], []]}
    assert SupportSpec.from_obj(json.loads(json.dumps(obj))) == spec


ZEROS_TYPE = "pattern field 'zeros' must be a list of lists of integer columns"


@pytest.mark.parametrize("obj, message", [
    ({"n": 4, "k": 2, "zeros": 5}, ZEROS_TYPE),
    ({"n": 4, "k": 2}, ZEROS_TYPE),
    ({"n": 4, "k": 2, "zeros": [[1], [True]]}, ZEROS_TYPE),
    ({"n": 4, "k": 2, "zeros": [[1], [2.0]]}, ZEROS_TYPE),
    ({"n": 4, "k": 2, "zeros": [[1], [[2]]]}, ZEROS_TYPE),
    ({"n": 4, "k": 2, "zeros": [[1], "2"]}, ZEROS_TYPE),
    # the column types are checked before the shape, the row count and the range
    ({"n": 1, "k": 2, "zeros": [[1], ["2"]]}, ZEROS_TYPE),
    ({"n": 4, "k": 2, "zeros": [[9], [{}]]}, ZEROS_TYPE),
    ({"n": 1, "k": 2, "zeros": [[9]]}, "need 1 <= k <= n, got k=2, n=1"),
    ({"n": 4, "k": 2, "zeros": [[9]]}, "expected 2 zero sets, got 1"),
    ({"n": 4, "k": 2, "zeros": [[1, 4], [0]]}, "row 2 has columns outside [1, 4]"),
    ({"n": 4, "k": 2, "zeros": [[5], [0]]}, "row 1 has columns outside [1, 4]"),
    # a float column is refused even beside an int one in the same row
    ({"n": 4, "k": 2, "zeros": [[1, 1.0], []]}, ZEROS_TYPE),
])
def test_spec_from_obj_messages(obj, message):
    with pytest.raises(ValueError) as exc:
        SupportSpec.from_obj(obj)
    assert str(exc.value) == message


@pytest.mark.parametrize("n, k, zeros, message", [
    (4, 2, [[1.9], ["2"]], ZEROS_TYPE),
    (4, 2, [[1], [True]], ZEROS_TYPE),
    (4, 2, [[1], [[2]]], ZEROS_TYPE),
    (4, 2, [[1, 1.0], []], ZEROS_TYPE),
    (4, 2, [[1], (c for c in [2])], ZEROS_TYPE),
    (4, 2, [[1], 2], ZEROS_TYPE),
    (4, 2, 5, ZEROS_TYPE),
    (4.0, True, [[]], "field 'n' must be an integer, got 4.0"),
    (4, True, [[]], "field 'k' must be an integer, got True"),
    ("4", 2, [[], []], "field 'n' must be an integer, got '4'"),
    (4, 2.0, [[], []], "field 'k' must be an integer, got 2.0"),
])
def test_spec_constructor_refuses_non_integers(n, k, zeros, message):
    # the constructor is the one validated path, with from_obj's wording
    with pytest.raises(ValueError) as exc:
        SupportSpec(n, k, zeros)
    assert str(exc.value) == message


@given(random_specs())
def test_spec_from_obj_equals_constructor(spec):
    obj = {"n": spec.n, "k": spec.k, "zeros": [sorted(z) + sorted(z)[:1] for z in spec.zeros]}
    loaded = SupportSpec.from_obj(obj)
    assert loaded == spec == SupportSpec(obj["n"], obj["k"], obj["zeros"])
    assert all(type(c) is int for z in loaded.zeros for c in z)


JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
                | st.text(max_size=3))
JSON_VALUES = st.recursive(JSON_SCALARS, lambda inner: st.lists(inner, max_size=4)
                           | st.dictionaries(st.text(max_size=3), inner, max_size=3),
                           max_leaves=12)


def per_entry_int_rows(value):
    # the per-entry test the type sets replace
    return isinstance(value, list) and all(
        isinstance(row, list) and all(isinstance(c, int) and not isinstance(c, bool)
                                      for c in row) for row in value)


@given(JSON_VALUES | st.lists(st.lists(st.integers() | JSON_VALUES, max_size=4), max_size=4)
       | st.lists(st.lists(st.integers(), max_size=4), max_size=4))
def test_int_rows_agree_with_per_entry_check_on_json(value):
    # JSON decodes to plain lists and ints only, where one set of types per
    # level decides what a check of every entry decides
    value = json.loads(json.dumps(value))
    assert supports._is_int_rows(value) == per_entry_int_rows(value)


def test_int_rows_refuse_int_subclasses():
    # only a Python caller can pass one; it is refused, as a bool is
    class Column(IntEnum):
        FIRST = 1

    assert not supports._is_int_rows([[Column.FIRST]])
    with pytest.raises(ValueError, match="list of lists of integer columns"):
        SupportSpec.from_obj({"n": 4, "k": 2, "zeros": [[Column.FIRST], []]})
