"""Brute-force references, DIMACS reading, and the satisfiability reductions."""

import random

import pytest

from timeloom import (
    STAR,
    AnnotatedEventFact,
    Dataset,
    Interval,
    IoError,
    cautious_core,
    infer_all_simple,
    recognize_timeline,
    repairs,
)

from conftest import PLAIN_TES, make_timepoints
from oracle import (
    Cnf3,
    TooLarge,
    brute_preferred,
    brute_repairs,
    encode_3sat_cautious,
    encode_3sat_consistent,
    oracle_infer,
    probe_fact,
    read_dimacs,
    sat_by_truth_table,
)

EMPTY = Dataset([])


def ev(a, b, level, args=("x",)):
    return AnnotatedEventFact("e", args, Interval(a, b), level)


def test_brute_repairs_refuses_large_instances():
    se = frozenset(ev(t, t, 1) for t in range(19))
    with pytest.raises(TooLarge):
        brute_repairs(EMPTY, PLAIN_TES, se=se)


def test_brute_repairs_small_cases():
    assert brute_repairs(EMPTY, PLAIN_TES, se=frozenset()) == (frozenset(),)
    a, b = ev(0, 2, 1), ev(0, 5, 1)  # equal starts clash
    reps = brute_repairs(EMPTY, PLAIN_TES, se=frozenset({a, b}))
    assert set(reps) == {frozenset({a}), frozenset({b})}
    c = ev(6, 7, 1)  # disjoint from both
    reps = brute_repairs(EMPTY, PLAIN_TES, se=frozenset({a, b, c}))
    assert set(reps) == {frozenset({a, c}), frozenset({b, c})}


def test_brute_preferred_level_domination():
    a1 = ev(0, 2, 1)
    x1 = ev(4, 6, 1, args=("w",))
    b2 = ev(0, 5, 2, args=("y",))
    c2 = ev(1, 3, 2, args=("z",))
    assert brute_preferred((frozenset({a1}), frozenset({b2}))) == (frozenset({a1}),)
    assert brute_preferred((frozenset({a1, x1}), frozenset({a1}))) == (frozenset({a1, x1}),)
    kept = brute_preferred((frozenset({a1, b2}), frozenset({a1, c2})))
    assert set(kept) == {frozenset({a1, b2}), frozenset({a1, c2})}


def test_oracle_infer_two_level_example():
    tp = make_timepoints([{2, 4, 9}, {1, 5, 6, 10}], [{7, 8}])
    assert oracle_infer(tp, False, 2) == {
        (Interval(2, 4), 1), (Interval(9, 9), 1),
        (Interval(1, 7), 2), (Interval(9, 10), 2),
    }
    assert oracle_infer(tp, True) == {
        (Interval(2, 7), 1), (Interval(9, STAR), 1), (Interval(1, 7), 2),
    }


GOOD_DIMACS = """\
c tiny example
p cnf 3 3
1 -2 3 0
2 0
-1
-3 0
"""


def test_read_dimacs_good():
    cnf = read_dimacs(GOOD_DIMACS)
    assert cnf.num_vars == 3
    # short clauses pad by repeating the last literal; clauses may span lines
    assert cnf.clauses == ((1, -2, 3), (2, 2, 2), (-1, -3, -3))


@pytest.mark.parametrize("text", [
    "1 2 3 0",                # no header
    "p cnf\n1 0",             # truncated header
    "p dnf 3 1\n1 0",         # wrong format tag
    "p cnf 3 1\n1 two 0",     # non-integer literal
    "p cnf 3 1\n0",           # empty clause
    "p cnf 3 1\n1 2 3 1 0",   # four literals
    "p cnf 3 1\n1 2",         # unterminated clause
    "p cnf 2 1\n1 3 3 0",     # literal out of range
])
def test_read_dimacs_rejects(text):
    with pytest.raises(IoError):
        read_dimacs(text)


def test_cnf3_validation():
    with pytest.raises(IoError):
        Cnf3(0, ((1, 1, 1),))
    with pytest.raises(IoError):
        Cnf3(2, ())
    with pytest.raises(IoError):
        Cnf3(2, ((1, 0, 2),))
    with pytest.raises(IoError):
        Cnf3(2, ((1, -3, 2),))
    assert Cnf3(2, ((1, -2, 1),)).num_vars == 2


def test_sat_by_truth_table():
    assert sat_by_truth_table(Cnf3(1, ((1, 1, 1),)))
    assert not sat_by_truth_table(Cnf3(1, ((1, 1, 1), (-1, -1, -1))))
    signs = [(s1, s2, s3) for s1 in (1, -1) for s2 in (1, -1) for s3 in (1, -1)]
    # all eight sign patterns over three variables leave no assignment
    full = Cnf3(3, tuple((s1 * 1, s2 * 2, s3 * 3) for s1, s2, s3 in signs))
    assert not sat_by_truth_table(full)
    assert sat_by_truth_table(Cnf3(3, full.clauses[1:]))


def test_probe_fact_shape():
    assert probe_fact() == AnnotatedEventFact("probe", (), Interval(0, STAR), 1)


SAT_2 = Cnf3(2, ((1, 2, 2),))
UNSAT_1 = Cnf3(1, ((1, 1, 1), (-1, -1, -1)))


def test_consistent_encoder_structure():
    ds, tes = encode_3sat_consistent(SAT_2)
    assert not tes.is_monotone
    se = infer_all_simple(ds, tes)
    assert len(se) == 1 + 2 * SAT_2.num_vars
    assert {f.pred for f in se} == {"probe", "assigned"}
    assert all(f.interval == Interval(0, STAR) and f.level == 1 for f in se)
    assert probe_fact() in se


def test_consistent_encoder_tracks_satisfiability():
    ds, tes = encode_3sat_consistent(SAT_2)
    assert sat_by_truth_table(SAT_2)
    assert not recognize_timeline(ds, tes, {probe_fact()}, "consistent")
    rep = repairs(ds, tes)
    assert rep.exhaustive
    with_probe = [r for r in rep.repairs if probe_fact() in r]
    # one repair per assignment; the probe rides the satisfying ones
    assert len(rep.repairs) == 4 and len(with_probe) == 3
    assert all(len(r) == 1 + SAT_2.num_vars for r in with_probe)
    assert set(brute_repairs(ds, tes)) == set(rep.repairs)

    ds, tes = encode_3sat_consistent(UNSAT_1)
    assert not sat_by_truth_table(UNSAT_1)
    assert recognize_timeline(ds, tes, {probe_fact()}, "consistent")
    rep = repairs(ds, tes)
    assert rep.exhaustive and len(rep.repairs) == 3
    assert frozenset({probe_fact()}) in rep.repairs


def test_cautious_encoder_structure():
    ds, tes = encode_3sat_cautious(UNSAT_1)
    assert tes.is_monotone
    se = infer_all_simple(ds, tes)
    assert len(se) == 1 + 2 * UNSAT_1.num_vars
    assert probe_fact() in se


def test_cautious_encoder_core_tracks_unsatisfiability():
    ds, tes = encode_3sat_cautious(SAT_2)
    assert cautious_core(ds, tes) == frozenset()

    ds, tes = encode_3sat_cautious(UNSAT_1)
    assert cautious_core(ds, tes) == frozenset({probe_fact()})


def test_encoders_agree_with_truth_table():
    rng = random.Random(23)
    for _ in range(8):
        clauses = tuple(
            tuple(rng.choice([1, -1]) * rng.randint(1, 3) for _ in range(3))
            for _ in range(rng.randint(1, 5)))
        cnf = Cnf3(3, clauses)
        sat = sat_by_truth_table(cnf)
        ds, tes = encode_3sat_consistent(cnf)
        assert recognize_timeline(ds, tes, {probe_fact()}, "consistent") == (not sat)
        ds, tes = encode_3sat_cautious(cnf)
        assert (probe_fact() in cautious_core(ds, tes)) == (not sat)
