"""Acceptance suite: exact reproduction of the two-level worked example,
randomized equivalence against the reference implementations, satisfiability
reduction round-trips, and a scale bound.

One test per criterion; each prints a PASS line with its measured numbers.
"""

import random
from time import perf_counter

from timeloom import (
    STAR,
    AnnotatedEventFact,
    Dataset,
    Interval,
    ObservationFact,
    cautious_core,
    infer_all_simple,
    infer_nonpersistent,
    infer_persistent,
    parse_tes,
    preferred_repairs,
    recognize_timeline,
    repairs,
    timeline,
)

from conftest import (
    make_timepoints,
    random_guard_instance,
    random_ruleful_instance,
    random_timepoint_config,
)
from oracle import (
    Cnf3,
    brute_preferred,
    brute_repairs,
    encode_3sat_cautious,
    encode_3sat_consistent,
    oracle_infer,
    probe_fact,
    sat_by_truth_table,
)

EMPTY = Dataset([])


def ann(a, b, level):
    return AnnotatedEventFact("e", (), Interval(a, b), level)


EXPECTED_NONPERSISTENT = frozenset({ann(2, 4, 1), ann(9, 9, 1),
                                    ann(1, 7, 2), ann(9, 10, 2)})
EXPECTED_PERSISTENT = frozenset({ann(2, 7, 1), ann(9, STAR, 1), ann(1, 7, 2)})
R1 = frozenset({ann(2, 4, 1), ann(9, 9, 1)})
R2 = frozenset({ann(2, 4, 1), ann(9, 10, 2)})
R3 = frozenset({ann(1, 7, 2), ann(9, 9, 1)})
R4 = frozenset({ann(1, 7, 2), ann(9, 10, 2)})


def test_criterion_1_nonpersistent_worked_example(np_tes, empty_dataset):
    """Two-level example, non-persistent: exact intervals, under 10 ms."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        out = infer_all_simple(empty_dataset, np_tes)
        times.append(perf_counter() - t0)
        assert out == EXPECTED_NONPERSISTENT
    best = min(times)
    assert best < 0.010
    print(f"criterion 1 PASS: exact non-persistent intervals in {best * 1000:.2f} ms")


def test_criterion_2_persistent_worked_example(pers_tes, empty_dataset):
    """Two-level example, persistent: exact intervals with the cross-level
    duplicate suppressed; single-level reruns re-expand to the full views."""
    out = infer_all_simple(empty_dataset, pers_tes)
    assert out == EXPECTED_PERSISTENT
    view1 = {iv for iv, _ in infer_persistent(*make_timepoints([{2, 4, 9}], [{7, 8}]))}
    assert view1 == {Interval(2, 7), Interval(9, STAR)}
    view2 = {iv for iv, _ in
             infer_persistent(*make_timepoints([{1, 2, 4, 5, 6, 9, 10}], [{7, 8}]))}
    assert view2 == {Interval(1, 7), Interval(9, STAR)}
    stacked = {(iv, 1) for iv in view1} | {(iv, 2) for iv in view2 if iv not in view1}
    assert stacked == {(f.interval, f.level) for f in out}
    print("criterion 2 PASS: exact persistent intervals and per-level views")


def test_criterion_3_repair_modes_on_worked_example(np_tes, empty_dataset):
    """Consistent mode yields exactly the four repairs, preferred mode exactly
    the strongest one, and the cautious core is empty."""
    cons = timeline(empty_dataset, np_tes, "consistent")
    assert cons.exhaustive and set(cons.models) == {R1, R2, R3, R4}
    pref = timeline(empty_dataset, np_tes, "preferred")
    assert pref.exhaustive and pref.models == (R1,)
    assert preferred_repairs(empty_dataset, np_tes).repairs == (R1,)
    assert cautious_core(empty_dataset, np_tes) == frozenset()
    assert timeline(empty_dataset, np_tes, "cautious").models == (frozenset(),)
    print("criterion 3 PASS: four repairs, unique preferred repair, empty core")


def test_criterion_4_levelwise_matches_brute_preferred():
    """On 500 random guard-satisfying instances the level-by-level preferred
    construction returns the single brute-force preferred repair, in under
    30 s total."""
    rng = random.Random(4)
    t0 = perf_counter()
    for _ in range(500):
        se, tes = random_guard_instance(rng, max_facts=12)
        pref = brute_preferred(brute_repairs(EMPTY, tes, se=se))
        assert len(pref) == 1
        got = preferred_repairs(EMPTY, tes, se=se)
        assert got.exhaustive and got.repairs == pref
    elapsed = perf_counter() - t0
    assert elapsed < 30.0
    print(f"criterion 4 PASS: 500 preferred/brute agreements in {elapsed:.2f} s")


def test_criterion_5_constructive_matches_interval_checker():
    """On 1000 random timepoint configurations the constructive inference
    equals the item-by-item checker over every candidate interval."""
    rng = random.Random(5)
    for _ in range(1000):
        exists_raw, ends_raw, w = random_timepoint_config(rng)
        tp = make_timepoints(exists_raw, ends_raw)
        assert infer_nonpersistent(*tp, w) == oracle_infer(tp, False, w)
        assert infer_persistent(*tp) == oracle_infer(tp, True)
    print("criterion 5 PASS: 1000 configurations, both kinds, exact agreement")


def _formula_corpus():
    signs = [(s1, s2, s3) for s1 in (1, -1) for s2 in (1, -1) for s3 in (1, -1)]
    blocked = Cnf3(3, tuple((s1, 2 * s2, 3 * s3) for s1, s2, s3 in signs))
    formulas = [blocked, Cnf3(3, ((1, 2, 3),))]
    rng = random.Random(2026)
    while len(formulas) < 50:
        clauses = tuple(
            tuple(rng.choice([1, -1]) * rng.randint(1, 3) for _ in range(3))
            for _ in range(rng.randint(4, 16)))
        formulas.append(Cnf3(3, clauses))
    return formulas


def test_criterion_6_sat_reduction_round_trip():
    """Across a 50-formula three-variable corpus, probe recognition under the
    consistent encoding equals unsatisfiability by truth table, and the probe
    sits in the cautious encoding's core exactly for unsatisfiable formulas."""
    sat_seen = unsat_seen = 0
    for cnf in _formula_corpus():
        sat = sat_by_truth_table(cnf)
        sat_seen += sat
        unsat_seen += not sat
        ds, tes = encode_3sat_consistent(cnf)
        assert recognize_timeline(ds, tes, {probe_fact()}, "consistent") == (not sat)
        ds, tes = encode_3sat_cautious(cnf)
        assert (probe_fact() in cautious_core(ds, tes)) == (not sat)
    assert sat_seen >= 10 and unsat_seen >= 10
    print(f"criterion 6 PASS: 50 formulas ({sat_seen} satisfiable, "
          f"{unsat_seen} not), both encodings agree with the truth table")


def _bounded_instances(rng, count, max_facts=12):
    made = 0
    while made < count:
        ds, tes = random_ruleful_instance(rng)
        se = infer_all_simple(ds, tes)
        if len(se) > max_facts:
            continue
        made += 1
        yield ds, tes, se


def test_criterion_7_monotone_recognition_equivalence():
    """On 200 random instances without negated event atoms, single-probe
    recognition agrees with brute-force membership for both modes."""
    rng = random.Random(7)
    constrained = checks = 0
    for ds, tes, se in _bounded_instances(rng, 200):
        assert tes.is_monotone
        constrained += bool(tes.constraints)
        reps = brute_repairs(ds, tes, se=se)
        rep_set = set(reps)
        pref_set = set(brute_preferred(reps))
        candidates = rep_set | {frozenset(), se}
        candidates |= {r - {f} for r in reps for f in sorted(r, key=repr)[:2]}
        for cand in candidates:
            assert recognize_timeline(ds, tes, cand, "consistent") == (cand in rep_set)
            assert recognize_timeline(ds, tes, cand, "preferred") == (cand in pref_set)
            checks += 2
    assert constrained > 50
    print(f"criterion 7 PASS: {checks} recognition checks over 200 instances "
          f"({constrained} with constraints) match brute force")


def _scale_instance():
    lines = []
    for k in range(1, 6):
        lines.append(f"decl observation o{k}/2.")
        lines.append(f"decl nonpersistent e{k}/1.")
    lines += ["decl observation x1/1.", "decl observation x2/1."]
    for k in (1, 2):
        lines += [
            f"exists(e{k}(P), T, 1) :- o{k}(P, l1, T).",
            f"exists(e{k}(P), T, 2) :- o{k}(P, l2, T).",
            f"ends(e{k}(P), T, 1) :- x{k}(P, T).",
            f"window(e{k}(P), 2).",
        ]
    for k in (3, 4, 5):
        lines += [
            f"exists(e{k}(P), T, 1) :- o{k}(P, l1, T).",
            f"exists(e{k}(P), T, 3) :- o{k}(P, l3, T).",
            f"window(e{k}(P), 3).",
        ]
    tes = parse_tes("\n".join(lines))

    facts = []
    for k, base in ((1, 0), (2, 100)):
        for t in (2, 4, 9):
            facts.append(ObservationFact(f"o{k}", ("p", "l1"), base + t))
        for t in (1, 5, 6, 10):
            facts.append(ObservationFact(f"o{k}", ("p", "l2"), base + t))
        for t in (7, 8):
            facts.append(ObservationFact(f"x{k}", ("p",), base + t))
    for k, base, run in ((3, 1000, 265), (4, 2000, 265), (5, 3000, 264)):
        for t in range(base, base + run):
            facts.append(ObservationFact(f"o{k}", ("p", "l1"), t))
        facts.append(ObservationFact(f"o{k}", ("p", "l3"), base + 4000))
    return Dataset(facts), tes


def test_criterion_8_scale_bound():
    """A single synthetic entity with 815 observation facts over five event
    predicates and three levels enumerates its consistent models in under 1 s."""
    dataset, tes = _scale_instance()
    assert len(dataset.facts) == 815
    t0 = perf_counter()
    result = timeline(dataset, tes, "consistent")
    elapsed = perf_counter() - t0
    assert result.exhaustive
    assert 1 <= len(result.models) <= 24
    assert len(result.models) == 16  # two independent four-way conflicts
    levels = {f.level for m in result.models for f in m}
    assert levels == {1, 2, 3}
    assert elapsed < 1.0
    print(f"criterion 8 PASS: 815 facts, {len(result.models)} models "
          f"in {elapsed * 1000:.0f} ms")


def test_criterion_9_bound_sandwich():
    """On 200 random instances without negated event atoms, the cautious core
    sits inside every consistent model, which sits inside the naive timeline."""
    rng = random.Random(9)
    models_seen = 0
    for ds, tes, se in _bounded_instances(rng, 200, max_facts=14):
        naive = timeline(ds, tes, "naive").models[0]
        cons = timeline(ds, tes, "consistent")
        caut = timeline(ds, tes, "cautious").models[0]
        assert cons.exhaustive
        for m in cons.models:
            assert caut <= m <= naive
            models_seen += 1
    assert models_seen >= 200
    print(f"criterion 9 PASS: sandwich holds across {models_seen} models")
