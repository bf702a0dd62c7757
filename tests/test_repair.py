"""Repairs, preferred repairs, cautious cores, timelines, and recognition."""

import random
import time

import pytest

from timeloom import (
    STAR,
    AnnotatedEventFact,
    AtemporalFact,
    Dataset,
    EnumerationCapExceeded,
    Interval,
    ObservationFact,
    cautious_core,
    infer_all_simple,
    infer_meta,
    is_consistent,
    parse_tes,
    preferred_repairs,
    recognize_timeline,
    repairs,
    temporal_conflict,
    timeline,
)
from timeloom.model import fact_key, fact_of, row_of
from timeloom.repair import (
    _Budget,
    _downward_closed,
    _independent_sets,
    _minimal_edges,
    clash_pairs,
    conflict_hypergraph,
)

from conftest import (
    PLAIN_TES,
    VARIED_CONSTRAINTS,
    random_fact_set,
    random_guard_instance,
    random_program,
    random_ruleful_instance,
)
from oracle import (
    Cnf3,
    brute_independent_sets,
    brute_preferred,
    brute_repairs,
    encode_3sat_cautious,
    probe_fact,
)


def ev(a, b, level, pred="e", args=("x",)):
    return AnnotatedEventFact(pred, args, Interval(a, b), level)


def fig(a, b, level):
    return AnnotatedEventFact("e", (), Interval(a, b), level)


R1 = frozenset({fig(2, 4, 1), fig(9, 9, 1)})
R2 = frozenset({fig(2, 4, 1), fig(9, 10, 2)})
R3 = frozenset({fig(1, 7, 2), fig(9, 9, 1)})
R4 = frozenset({fig(1, 7, 2), fig(9, 10, 2)})

EMPTY = Dataset([])


def test_temporal_conflict_table():
    assert not temporal_conflict(ev(2, 4, 1), ev(2, 4, 1, args=("y",)))
    assert not temporal_conflict(ev(2, 4, 1), ev(2, 4, 1))
    assert not temporal_conflict(ev(2, 4, 1), ev(2, 4, 2))  # equal intervals
    assert temporal_conflict(ev(2, 4, 1), ev(2, 7, 1))  # equal starts
    assert temporal_conflict(ev(1, 7, 1), ev(3, 7, 2))  # equal ends
    assert temporal_conflict(ev(1, 7, 1), ev(7, 7, 2))  # equal ends, no start inside
    assert temporal_conflict(ev(2, STAR, 1), ev(5, STAR, 1))  # both ongoing
    assert temporal_conflict(ev(2, 7, 1), ev(4, 9, 1))  # starts inside
    assert temporal_conflict(ev(2, STAR, 1), ev(5, 9, 1))
    assert temporal_conflict(ev(5, 9, 1), ev(2, STAR, 1))
    assert not temporal_conflict(ev(1, 7, 1), ev(7, 9, 1))  # meets is fine
    assert not temporal_conflict(ev(1, 4, 1), ev(5, 9, 1))  # disjoint
    assert temporal_conflict(fig(2, 4, 1), fig(1, 7, 2))
    assert temporal_conflict(fig(9, 9, 1), fig(9, 10, 2))
    assert not temporal_conflict(fig(2, 4, 1), fig(9, 10, 2))
    assert not temporal_conflict(fig(9, 9, 1), fig(1, 7, 2))


def hypergraph(se, tes, dataset) -> list[frozenset]:
    """`conflict_hypergraph` over the rows of the event facts `se`, each
    edge as event facts."""
    edges = conflict_hypergraph(frozenset(map(row_of, se)), tes, dataset, lambda: None)
    return [frozenset(map(fact_of, e)) for e in edges]


def test_clash_pairs_match_all_pairs_scan():
    rng = random.Random(3)
    shared = [Interval(2, 5), Interval(2, 7), Interval(4, STAR), Interval(6, 6)]
    for _ in range(300):
        facts = set(random_fact_set(rng, max_facts=14))
        # equal intervals on different instances never clash
        for iv in rng.sample(shared, rng.randint(0, 3)):
            facts.add(AnnotatedEventFact(rng.choice("ef"), (rng.choice("abc"),), iv,
                                         rng.randint(1, 3)))
        facts = sorted(facts, key=repr)
        want = {frozenset((a, b)) for i, a in enumerate(facts) for b in facts[i + 1:]
                if temporal_conflict(a, b)}
        got = [frozenset(map(fact_of, pair)) for pair in clash_pairs(list(map(row_of, facts)))]
        assert len(got) == len(set(got))
        assert set(got) == want
        assert is_consistent(facts, PLAIN_TES, EMPTY) == (not want)


def test_clash_pairs_sweep_disjoint_intervals_of_one_instance():
    facts = [("e", (), 2 * i, 2 * i + 1, 1) for i in range(4800)]  # event rows
    began = time.perf_counter()
    assert next(clash_pairs(facts), None) is None
    assert time.perf_counter() - began < 1.0


def test_meeting_interval_constraint_joins_on_the_shared_end():
    """The second atom probes the start its interval shares with the first
    atom's end, so the join costs the edges, not all pairs."""
    tes = parse_tes("decl persistent e/0.\nconstraint :- e([T1, T2]), e([T2, T3]).")
    facts = [("e", (), i, i + 1, 1) for i in range(2400)]  # event rows
    began = time.perf_counter()
    edges = conflict_hypergraph(frozenset(facts), tes, EMPTY, lambda: None)
    assert time.perf_counter() - began < 1.0
    assert len(edges) == len(facts) - 1
    assert set(edges) == {frozenset(pair) for pair in zip(facts, facts[1:])}


def test_is_consistent_pairwise():
    assert is_consistent(R1, PLAIN_TES, EMPTY)
    assert not is_consistent({fig(2, 4, 1), fig(1, 7, 2)}, PLAIN_TES, EMPTY)
    assert is_consistent(frozenset(), PLAIN_TES, EMPTY)


CONSTRAINED = parse_tes(
    "decl persistent p/0.\ndecl persistent q/0.\n"
    "constraint :- p([T1, T2]), q([T1, T3]).")


def test_is_consistent_domain_constraint():
    p = AnnotatedEventFact("p", (), Interval(0, 4), 1)
    q_same = AnnotatedEventFact("q", (), Interval(0, 9), 1)
    q_later = AnnotatedEventFact("q", (), Interval(1, 9), 1)
    assert not is_consistent({p, q_same}, CONSTRAINED, EMPTY)
    assert is_consistent({p, q_later}, CONSTRAINED, EMPTY)


def test_is_consistent_constraint_over_meta():
    tes = parse_tes(
        "decl persistent p/0.\ndecl meta m/0.\n"
        "meta m(I, L) :- p(I, L).\nconstraint :- m([0, 5]).")
    bad = AnnotatedEventFact("p", (), Interval(0, 5), 1)
    ok = AnnotatedEventFact("p", (), Interval(1, 5), 1)
    assert not is_consistent({bad}, tes, EMPTY)
    assert is_consistent({ok}, tes, EMPTY)


def test_two_level_example_repairs(np_tes, empty_dataset):
    rep = repairs(empty_dataset, np_tes)
    assert rep.exhaustive
    assert set(rep.repairs) == {R1, R2, R3, R4}
    assert rep.repairs == brute_repairs(empty_dataset, np_tes)


def test_two_level_example_preferred(np_tes, empty_dataset):
    pref = preferred_repairs(empty_dataset, np_tes)
    assert pref.exhaustive
    assert pref.repairs == (R1,)
    se = infer_all_simple(empty_dataset, np_tes)
    assert preferred_repairs(empty_dataset, np_tes, se=se).repairs == (R1,)
    assert brute_preferred(brute_repairs(empty_dataset, np_tes)) == (R1,)


def test_two_level_example_cautious(np_tes, empty_dataset):
    assert cautious_core(empty_dataset, np_tes) == frozenset()


def test_cautious_is_conflict_free_remainder(pers_tes, empty_dataset):
    se = infer_all_simple(empty_dataset, pers_tes)
    core = cautious_core(empty_dataset, pers_tes)
    assert core == frozenset(f for f in se
                             if not any(g != f and temporal_conflict(f, g)
                                        for g in se))


def test_empty_event_set_has_one_empty_repair():
    rep = repairs(EMPTY, PLAIN_TES, se=frozenset())
    assert rep.repairs == (frozenset(),)
    assert rep.exhaustive
    assert cautious_core(EMPTY, PLAIN_TES, se=frozenset()) == frozenset()


# a level-2 termination rule: weaker levels may hold several preferred
# choices
LEVEL_2_ENDS = parse_tes(
    "decl nonpersistent e/1.\nexists(e(x), 0, 1).\nends(e(x), 3, 2).\nwindow(e(X), 1).")


def test_conflict_graph_path_matches_brute():
    rng = random.Random(7)
    assert {r.level for r in LEVEL_2_ENDS.termination} == {2}
    several = 0
    for _ in range(40):
        se = random_fact_set(rng)
        reps = brute_repairs(EMPTY, PLAIN_TES, se=se)
        got = repairs(EMPTY, PLAIN_TES, se=se)
        assert got.exhaustive
        assert got.repairs == reps
        pref = preferred_repairs(EMPTY, LEVEL_2_ENDS, se=se)
        assert pref.exhaustive
        assert pref.repairs == brute_preferred(reps)
        assert cautious_core(EMPTY, LEVEL_2_ENDS, se=se) == frozenset.intersection(*reps)
        several += len(pref.repairs) > 1
    assert several > 3


def test_monotone_path_matches_brute():
    rng = random.Random(11)
    seen_constrained = 0
    for _ in range(40):
        dataset, tes = random_ruleful_instance(rng)
        se = infer_all_simple(dataset, tes)
        if len(se) > 14:
            continue
        seen_constrained += bool(tes.constraints)
        got = repairs(dataset, tes, se=se)
        assert got.exhaustive
        assert got.repairs == brute_repairs(dataset, tes, se=se)
    assert seen_constrained > 5


def test_general_path_matches_brute():
    rng = random.Random(13)
    nonmono = ("constraint :- e([T1, T2]), not p([T1, _]).",)
    for _ in range(25):
        dataset, tes = random_ruleful_instance(
            rng, allow_constraints=False, extra=nonmono)
        assert not tes.is_monotone
        se = infer_all_simple(dataset, tes)
        if len(se) > 10:
            continue
        got = repairs(dataset, tes, se=se)
        assert got.exhaustive
        assert got.repairs == brute_repairs(dataset, tes, se=se)


def test_cap_returns_sound_partial():
    # six facts sharing a start are pairwise conflicting: six singleton repairs
    se = frozenset(ev(0, i, 1) for i in range(1, 7))
    full = repairs(EMPTY, PLAIN_TES, se=se)
    assert full.exhaustive and len(full.repairs) == 6
    capped = repairs(EMPTY, PLAIN_TES, se=se, cap=3)
    assert not capped.exhaustive
    assert 0 < len(capped.repairs) <= 3
    assert set(capped.repairs) <= set(full.repairs)


# unsatisfiable: its cautious encoding keeps the probe in every repair
UNSAT_2 = Cnf3(2, ((1, 2, 2), (-1, 2, 2), (1, -2, -2), (-1, -2, -2)))


def test_cap_propagates_and_cautious_raises():
    # the cautious core enumerates nothing; the cap binds on the alternative
    # provenance supports its conflict hypergraph is built from
    dataset, tes = encode_3sat_cautious(UNSAT_2)
    assert tes.is_monotone
    with pytest.raises(EnumerationCapExceeded):
        cautious_core(dataset, tes, cap=3)
    with pytest.raises(EnumerationCapExceeded):
        timeline(dataset, tes, mode="cautious", cap=3)
    se = frozenset(ev(0, i, 1) for i in range(1, 7))
    tes = parse_tes("decl persistent e/1.\ndecl persistent q/0.\n"
                    "constraint :- e(X, [T1, T2]), q([T1, T3]).")
    pref = preferred_repairs(EMPTY, tes, se=se, cap=3)
    assert not pref.exhaustive


# q is never derived, so the constraint never fires
NEVER_FIRES = parse_tes("decl persistent e/1.\ndecl persistent q/0.\n"
                        "constraint :- e(X, [T1, T2]), q([T1, T3]).")


def test_conflict_free_facts_with_idle_constraint_give_one_repair():
    for n in (14, 1200):
        se = frozenset(ev(0, 1, 1, args=(i,)) for i in range(n))
        rep = repairs(EMPTY, NEVER_FIRES, se=se, cap=1)
        assert rep.exhaustive
        assert rep.repairs == (se,)
        assert cautious_core(EMPTY, NEVER_FIRES, se=se, cap=1) == se
        assert preferred_repairs(EMPTY, NEVER_FIRES, se=se, cap=1).repairs == (se,)


def test_independent_instances_multiply_within_cap():
    # four instances, each with four facts sharing a start: 4^4 repairs
    se = frozenset(ev(0, end, 1, args=(i,)) for i in range(4) for end in range(1, 5))
    rep = repairs(EMPTY, NEVER_FIRES, se=se, cap=256)
    assert rep.exhaustive and len(rep.repairs) == 256
    assert all(len(r) == 4 and is_consistent(r, NEVER_FIRES, EMPTY) for r in rep.repairs)
    capped = repairs(EMPTY, NEVER_FIRES, se=se, cap=255)
    assert not capped.exhaustive
    assert set(capped.repairs) < set(rep.repairs)


def test_cautious_core_is_taken_per_component():
    # seven instances of four clashing facts: 4^7 repairs, past the default
    # cap, but the core is just the facts in no conflict edge
    clashing = frozenset(ev(0, end, 1, args=(i,)) for i in range(7) for end in range(1, 5))
    free = frozenset(ev(0, 1, 1, args=(i,)) for i in range(7, 10))
    assert not repairs(EMPTY, NEVER_FIRES, se=clashing | free).exhaustive
    assert cautious_core(EMPTY, NEVER_FIRES, se=clashing | free) == free
    assert cautious_core(EMPTY, NEVER_FIRES, se=clashing | free, cap=0) == free
    # where building the hypergraph is hard, the cap binds exactly: 13
    # alternative provenance supports answer, 12 do not
    dataset, tes = encode_3sat_cautious(UNSAT_2)
    assert cautious_core(dataset, tes, cap=13) == {probe_fact()}
    with pytest.raises(EnumerationCapExceeded):
        cautious_core(dataset, tes, cap=12)


def test_preferred_is_taken_per_component_and_level():
    # seven instances, each one level-1 fact and three level-2 facts sharing
    # its start, and an idle constraint: 4^7 repairs, one preferred repair
    strong = frozenset(ev(0, 1, 1, args=(i,)) for i in range(7))
    weak = frozenset(ev(0, end, 2, args=(i,)) for i in range(7) for end in range(2, 5))
    assert not repairs(EMPTY, NEVER_FIRES, se=strong | weak).exhaustive
    pref = preferred_repairs(EMPTY, NEVER_FIRES, se=strong | weak)
    assert pref.exhaustive and pref.repairs == (strong,)
    # no level needs a search: the budget pays only for the one repair
    assert preferred_repairs(EMPTY, NEVER_FIRES, se=strong | weak, cap=1).repairs == (strong,)
    # [1,*] clashes with the kept [0,3], so it is dropped before the level-2
    # search starts, and that search meets no dead end
    se = frozenset({ev(0, 3, 1), ev(10, 10, 1), ev(1, STAR, 2), ev(3, 4, 2)})
    pref = preferred_repairs(EMPTY, PLAIN_TES, se=se, cap=1)
    assert pref.exhaustive and pref.repairs == (se - {ev(1, STAR, 2)},)


def test_long_components_need_no_recursion():
    # two or three links in a row form an edge: one component of 2400 facts
    # whose repairs keep over a thousand of them
    links = frozenset(AnnotatedEventFact("e", (i, i + 1), Interval(0, 1), 1)
                      for i in range(2400))
    for body in ("e(A, B, _), e(B, C, _)", "e(A, B, _), e(B, C, _), e(C, D, _)"):
        tes = parse_tes(f"decl persistent e/2.\nconstraint :- {body}.")
        rep = repairs(EMPTY, tes, se=links, cap=3)
        assert not rep.exhaustive and 1 <= len(rep.repairs) <= 3
        r = rep.repairs[0]
        assert len(r) > 1000 and is_consistent(r, tes, EMPTY)
        left_out = sorted(links - r, key=lambda f: f.args)
        assert not any(is_consistent(r | {f}, tes, EMPTY) for f in left_out[::100])


def test_independent_sets_match_brute_on_random_hypergraphs():
    # each maximal independent set comes exactly once, whatever the mix of
    # pairs and larger edges
    rng = random.Random(29)
    wide = 0
    for _ in range(1000):
        n = rng.randint(1, 10)
        edges = {tuple(sorted(rng.sample(range(n), rng.randint(2, min(4, n)))))
                 for _ in range(rng.randint(0, 12) if n > 1 else 0)}
        found = list(_independent_sets(n, sorted(edges), _Budget(10 ** 6)))
        assert len(found) == len(set(found))
        assert set(found) == brute_independent_sets(n, edges)
        wide += any(len(e) > 2 for e in edges)
    assert wide > 500


def test_minimal_edges_match_brute_on_random_hypergraphs():
    # duplicate edges, edges nested in others and the empty edge among them
    rng = random.Random(37)
    seen = {"duplicate": 0, "nested": 0, "empty": 0}
    for _ in range(1500):
        pool = [frozenset(rng.sample(range(6), rng.randint(0 if rng.random() < 0.05 else 1, 4)))
                for _ in range(rng.randint(0, 10))]
        edges = pool + [rng.choice(pool) for _ in range(rng.randrange(3))] if pool else []
        got = _minimal_edges(edges)
        want = {e for e in edges if not any(o < e for o in edges)}
        assert len(got) == len(set(got)) and set(got) == want
        assert [len(e) for e in got] == sorted(len(e) for e in got)
        seen["duplicate"] += len(set(edges)) < len(edges)
        seen["nested"] += len(want) < len(set(edges))
        seen["empty"] += frozenset() in edges
    assert min(seen.values()) > 50, seen


def test_a_chain_of_many_levels_needs_no_recursion():
    # 1100 facts at levels 1 to 1100, each clashing with the next: the
    # level-wise search keeps every other fact, one level at a time
    chain = [ev(2 * i, 2 * i + 3, i + 1) for i in range(1100)]
    assert temporal_conflict(chain[0], chain[1]) and not temporal_conflict(chain[0], chain[2])
    pref = preferred_repairs(EMPTY, PLAIN_TES, se=frozenset(chain))
    assert pref.exhaustive and pref.repairs == (frozenset(chain[::2]),)


# a meta rule negating an event, and a constraint over simple events only
NEGATED_META = """\
decl observation seen/1.
decl persistent a/1.
decl persistent b/1.
decl persistent c/1.
decl meta m/1.
exists_pers(a(P), T, 1) :- seen(P, T).
exists_pers(b(P), T, 1) :- seen(P, T).
exists_pers(c(P), T, 1) :- seen(P, T).
meta m(P, I, L) :- a(P, I, L), not b(P, _, _).
constraint :- a(P, [T1, T2]), c(P, [T1, T3]).
"""


def test_negated_meta_rules_keep_simple_constraints_downward_closed():
    # each patient's a and c start together: two repairs per patient, read
    # off the conflict hypergraph rather than a scan of 2**24 subsets
    tes = parse_tes(NEGATED_META)
    assert not tes.is_monotone and _downward_closed(tes)
    for patients in (3, 8):
        dataset = Dataset([ObservationFact("seen", (f"p{i}",), 0) for i in range(patients)])
        # the budget pays for the models alone
        got = timeline(dataset, tes, "consistent", cap=2 ** patients)
        assert got.exhaustive and len(got.models) == 2 ** patients
        if patients == 3:
            assert repairs(dataset, tes).repairs == brute_repairs(dataset, tes)
    # a constraint naming the meta event keeps the scan
    assert not _downward_closed(parse_tes(NEGATED_META.replace(
        "constraint :- a(P,", "constraint :- m(P,")))


def test_subset_scan_tests_no_subset_of_a_repair_found(monkeypatch):
    # every consistent set lies in a repair the scan, going by decreasing
    # size, found before it
    tested = []
    monkeypatch.setattr("timeloom.repair.is_consistent",
                        lambda s, *a: tested.append(s) or is_consistent(s, *a))
    rng = random.Random(47)
    nonmono = ("constraint :- e([T1, T2]), not p([T1, _]).",)
    seen = 0
    for _ in range(25):
        dataset, tes = random_ruleful_instance(rng, allow_constraints=False, extra=nonmono)
        se = infer_all_simple(dataset, tes)
        if len(se) > 10:
            continue
        tested.clear()
        got = repairs(dataset, tes, se=se)
        assert got.repairs == brute_repairs(dataset, tes, se=se)
        assert not any(s < r for s in tested for r in got.repairs)
        seen += len(tested) < 2 ** len(se)
    assert seen > 5


STAR_TES = parse_tes("decl persistent a/1.\ndecl persistent b/1.\ndecl persistent c/0.\n"
                     "constraint :- a(P, I1), b(P, I2), c(I3).")


def star_facts(pairs: int) -> frozenset:
    """`a(p)` and `b(p)` for each of `pairs` entities, and one `c`: each pair
    forms an edge of three with `c`, so there are 2**pairs + 1 repairs."""
    return frozenset([AnnotatedEventFact(pred, (f"p{i}",), Interval(0, 1), 1)
                      for i in range(pairs) for pred in "ab"]
                     + [AnnotatedEventFact("c", (), Interval(0, 1), 1)])


def test_star_of_triples_is_enumerated_within_its_size():
    # without `c`, every pair is kept; with it, one of `a(p)` and `b(p)`
    # for each p. The search meets one dead end, so the cap binds one past
    # the repairs
    se = star_facts(12)
    rep = repairs(EMPTY, STAR_TES, se=se, cap=4098)
    assert rep.exhaustive and len(rep.repairs) == 4097
    assert se - {AnnotatedEventFact("c", (), Interval(0, 1), 1)} in rep.repairs
    assert sorted(len(r) for r in rep.repairs) == [13] * 4096 + [24]
    assert not repairs(EMPTY, STAR_TES, se=se, cap=4097).exhaustive


def test_hyperedges_are_minimal_constraint_witnesses():
    tes = parse_tes(
        "decl persistent e/0.\ndecl persistent p/0.\ndecl meta m/0.\n"
        "meta m(inter(I, J), max(L1, L2)) :- e(I, L1), p(J, L2).\n"
        "constraint :- m([T, _]), T < 5.")
    e1, e2 = fig(0, 9, 1), fig(3, 9, 2)  # e1 and e2 clash
    p = AnnotatedEventFact("p", (), Interval(3, 4), 1)
    edges = hypergraph({e1, e2, p}, tes, EMPTY)
    # m([3,4]) at level 1 from {e1, p} and at level 2 from {e2, p}
    assert len(edges) == 3
    assert set(edges) == {frozenset({e1, e2}), frozenset({e1, p}), frozenset({e2, p})}
    always = parse_tes("decl atemporal flag/0.\ndecl persistent e/0.\n"
                       "constraint :- flag.")
    flagged = Dataset([AtemporalFact("flag", ())])
    assert hypergraph({e1}, always, flagged) == [frozenset()]


def test_hypergraph_path_matches_brute_on_varied_constraints():
    # repairs, preferred repairs, cautious cores and recognition; then beside
    # meta rules that are not monotone, where a constraint that negates no
    # event and names no meta event keeps consistency downward closed
    nonmono = ("decl meta lone/0.", "meta lone(I, L) :- e(I, L), not p(_, _).",
               "decl meta first/0.", "meta first([T, T2], L) :- e([T, T2], L), start(e, T).")
    for extra, seed, draws in (((), 41, 520), (nonmono, 43, 150)):
        rng = random.Random(seed)
        checked, kinds, widest, none, scanned = 0, set(), 0, 0, 0
        while checked < draws:
            dataset, tes = random_ruleful_instance(rng, varied_constraints=True, extra=extra)
            se = infer_all_simple(dataset, tes)
            if len(se) > 9:
                continue
            if not _downward_closed(tes):
                # only the constraints over meta events take the subset scan
                assert extra and tes.constraints_mention_meta()
                scanned += 1
                continue
            # the predicates a constraint body names tell the kinds apart
            kinds.add(tuple(lit.atom.pred for lit in tes.constraints[0].body
                            if hasattr(lit.atom, "pred")))
            reps = brute_repairs(dataset, tes, se=se)
            got = repairs(dataset, tes, se=se)
            assert got.exhaustive
            assert got.repairs == reps
            pref = preferred_repairs(dataset, tes, se=se)
            assert pref.exhaustive
            assert pref.repairs == brute_preferred(reps)
            core = frozenset.intersection(*reps) if reps else frozenset()
            assert cautious_core(dataset, tes, se=se) == core
            for cand in set(reps) | {frozenset(), se, core}:
                full = cand | infer_meta(tes, dataset, cand)
                assert recognize_timeline(dataset, tes, full) == (cand in reps)
                assert recognize_timeline(dataset, tes, full, mode="preferred") == (
                    cand in pref.repairs)
            edges = hypergraph(se, tes, dataset)
            widest = max([widest] + [len(e) for e in edges])
            none += not reps
            checked += 1
        # beside the non-monotone rules, the two kinds over meta events scan
        assert len(kinds) == len(VARIED_CONSTRAINTS) - (2 if extra else 0)
        assert widest >= 3 and none > 0 and (scanned > 20 if extra else not scanned)


def test_levelwise_preferred_matches_brute_on_guard_instances():
    rng = random.Random(17)
    for _ in range(30):
        se, tes = random_guard_instance(rng)
        reps = brute_repairs(EMPTY, tes, se=se)
        got = preferred_repairs(EMPTY, tes, se=se)
        assert got.exhaustive and got.repairs == brute_preferred(reps)
        assert len(got.repairs) == 1


def test_preferred_filter_with_constraints():
    rng = random.Random(19)
    seen = 0
    for _ in range(40):
        dataset, tes = random_ruleful_instance(rng)
        if not tes.constraints:
            continue
        se = infer_all_simple(dataset, tes)
        if len(se) > 12:
            continue
        pref = preferred_repairs(dataset, tes, se=se)
        assert pref.exhaustive
        assert pref.repairs == brute_preferred(brute_repairs(dataset, tes, se=se))
        seen += 1
    assert seen > 5


def test_timeline_modes(np_tes, empty_dataset):
    naive = timeline(empty_dataset, np_tes, mode="naive")
    assert naive.models == (R1 | R2 | R3 | R4,)
    consistent = timeline(empty_dataset, np_tes, mode="consistent")
    assert set(consistent.models) == {R1, R2, R3, R4}
    preferred = timeline(empty_dataset, np_tes, mode="preferred")
    assert preferred.models == (R1,)
    cautious = timeline(empty_dataset, np_tes, mode="cautious")
    assert cautious.models == (frozenset(),)
    with pytest.raises(ValueError):
        timeline(empty_dataset, np_tes, mode="bogus")


def test_timeline_models_include_meta(therapy_tes):
    d = Dataset([ObservationFact("adm", ("p1", "amox"), 5)])
    got = timeline(d, therapy_tes, mode="consistent")
    assert got.models == (frozenset({
        AnnotatedEventFact("abth", ("p1", "amox"), Interval(5, 5), 1),
        AnnotatedEventFact("ontherapy", ("p1",), Interval(5, 5), 1),
    }),)


def _in_fact_key_order(reps) -> bool:
    keys = [sorted(map(fact_key, r)) for r in reps]
    return keys == sorted(keys)


def test_repairs_and_models_come_in_fact_key_order():
    # repairs are ordered by ranking only the facts outside their core; the
    # order must be that of each repair's whole sorted fact_key list, and
    # timeline() must keep it for its models
    rng = random.Random(67)
    with_core = 0
    for _ in range(520):
        dataset, tes = random_ruleful_instance(rng, varied_constraints=True)
        se = infer_all_simple(dataset, tes)
        for mode, rep in (("consistent", repairs(dataset, tes, se=se)),
                          ("preferred", preferred_repairs(dataset, tes, se=se))):
            assert _in_fact_key_order(rep.repairs)
            models = timeline(dataset, tes, mode).models
            assert tuple(frozenset(f for f in m if tes.is_simple_pred(f.pred))
                         for m in models) == rep.repairs
        reps = repairs(dataset, tes, se=se).repairs
        with_core += len(reps) > 1 and bool(frozenset.intersection(*reps))
    assert with_core > 200


def test_repair_order_with_a_core_between_contested_facts():
    # instances 0 and 2 each hold three facts sharing a start; 1 and 3 hold
    # one free fact each, so the core ranks between and after contested facts
    contested = frozenset(ev(0, end, 1, args=(i,)) for i in (0, 2) for end in (1, 2, 3))
    core = frozenset(ev(0, 1, 1, args=(i,)) for i in (1, 3))
    full = repairs(EMPTY, NEVER_FIRES, se=contested | core)
    assert full.exhaustive and len(full.repairs) == 9
    assert frozenset.intersection(*full.repairs) == core
    assert _in_fact_key_order(full.repairs)
    capped = repairs(EMPTY, NEVER_FIRES, se=contested | core, cap=5)
    assert not capped.exhaustive and len(capped.repairs) > 1
    assert _in_fact_key_order(capped.repairs)


def test_recognize_two_level(np_tes, empty_dataset):
    assert recognize_timeline(empty_dataset, np_tes, R1, mode="consistent")
    assert recognize_timeline(empty_dataset, np_tes, R1, mode="preferred")
    assert recognize_timeline(empty_dataset, np_tes, R2, mode="consistent")
    assert not recognize_timeline(empty_dataset, np_tes, R2, mode="preferred")
    assert recognize_timeline(empty_dataset, np_tes, R3, mode="consistent")
    assert not recognize_timeline(empty_dataset, np_tes, R3, mode="preferred")
    # not maximal
    assert not recognize_timeline(
        empty_dataset, np_tes, {fig(2, 4, 1)}, mode="consistent")
    # inconsistent pair
    assert not recognize_timeline(
        empty_dataset, np_tes, {fig(2, 4, 1), fig(1, 7, 2)}, mode="consistent")
    # fact never inferred
    assert not recognize_timeline(
        empty_dataset, np_tes, {fig(3, 3, 1)}, mode="consistent")
    with pytest.raises(ValueError):
        recognize_timeline(empty_dataset, np_tes, R1, mode="naive")


def test_recognize_checks_meta_part(therapy_tes):
    d = Dataset([ObservationFact("adm", ("p1", "amox"), 5)])
    simple = AnnotatedEventFact("abth", ("p1", "amox"), Interval(5, 5), 1)
    meta = AnnotatedEventFact("ontherapy", ("p1",), Interval(5, 5), 1)
    assert recognize_timeline(d, therapy_tes, {simple, meta})
    assert not recognize_timeline(d, therapy_tes, {simple})
    assert not recognize_timeline(d, therapy_tes, {
        simple, meta, AnnotatedEventFact("ontherapy", ("p1",), Interval(5, 6), 1)})
    # observation predicates are not timeline facts
    assert not recognize_timeline(d, therapy_tes, {
        simple, meta, AnnotatedEventFact("adm", ("p1", "amox"), Interval(5, 5), 1)})


# three facts and a constraint negating an event: the subset scan, whose
# one repair is the first e fact with p
SCAN_3 = parse_tes(
    "decl persistent e/0.\ndecl persistent p/0.\n"
    "exists_pers(e, 0, 1).\nends(e, 4, 1).\n"
    "exists_pers(e, 6, 1).\nends(e, 9, 1).\n"
    "exists_pers(p, 0, 1).\nends(p, 9, 1).\n"
    "constraint :- e([T1, T2]), not p([T1, _]).")
SCAN_3_REPAIR = frozenset({
    AnnotatedEventFact("e", (), Interval(0, 4), 1),
    AnnotatedEventFact("p", (), Interval(0, 9), 1)})
SCAN_3_P = frozenset({AnnotatedEventFact("p", (), Interval(0, 9), 1)})  # no repair


def test_recognize_general_path_cap():
    assert not SCAN_3.is_monotone
    assert recognize_timeline(EMPTY, SCAN_3, SCAN_3_REPAIR, mode="consistent")
    with pytest.raises(EnumerationCapExceeded):
        recognize_timeline(EMPTY, SCAN_3, SCAN_3_REPAIR, mode="consistent", cap=1)


def test_subset_scan_stops_at_exactly_two_to_the_facts():
    # the scan pays once per subset examined: 2^3 answer in every mode, one
    # fewer gives the repair found so far or raises with its cap; a check
    # stops once the scan yields its candidate, at the 3rd subset, and a
    # candidate that is no repair needs all 8
    se = infer_all_simple(EMPTY, SCAN_3)
    assert len(se) == 3 and not _downward_closed(SCAN_3)
    for cap in (7, 8):
        exhaustive = cap == 2 ** len(se)
        for enumerate_ in (repairs, preferred_repairs):
            got = enumerate_(EMPTY, SCAN_3, cap=cap)
            assert got.exhaustive == exhaustive and got.repairs == (SCAN_3_REPAIR,)
        for mode in ("consistent", "preferred"):
            got = timeline(EMPTY, SCAN_3, mode, cap=cap)
            assert got.exhaustive == exhaustive and got.models == (SCAN_3_REPAIR,)
        answers = [(lambda: cautious_core(EMPTY, SCAN_3, cap=cap), SCAN_3_REPAIR),
                   (lambda: timeline(EMPTY, SCAN_3, "cautious", cap=cap).models,
                    (SCAN_3_REPAIR,))]
        answers += [(lambda mode=mode: recognize_timeline(EMPTY, SCAN_3, SCAN_3_P, mode, cap),
                     False) for mode in ("consistent", "preferred")]
        for solve, want in answers:
            if exhaustive:
                assert solve() == want
            else:
                with pytest.raises(EnumerationCapExceeded) as err:
                    solve()
                assert err.value.cap == cap
    for mode in ("consistent", "preferred"):
        assert recognize_timeline(EMPTY, SCAN_3, SCAN_3_REPAIR, mode, cap=3)
        with pytest.raises(EnumerationCapExceeded) as err:
            recognize_timeline(EMPTY, SCAN_3, SCAN_3_REPAIR, mode, cap=2)
        assert err.value.cap == 2


# one level-1 e interval and two level-2 ones inside it, each clashing with
# it, and a q that needs an e starting with it: the scan's one preferred
# repair is the level-1 e with q, though the level-2 pair with q is a repair
# too and has more facts
CAPPED_PREFERRED = parse_tes("decl persistent e/0.\ndecl persistent q/0.\n"
                             "constraint :- q([T, _]), not e([T, _]).")


def test_capped_preferred_scan_returns_only_the_preferred_repair():
    q = AnnotatedEventFact("q", (), Interval(0, STAR), 1)
    se = frozenset({fig(0, 5, 1), fig(0, 3, 2), fig(4, 5, 2), q})
    want = (frozenset({fig(0, 5, 1), q}),)
    assert brute_preferred(brute_repairs(EMPTY, CAPPED_PREFERRED, se=se)) == want
    for cap in range(1, 2 ** len(se) + 1):
        got = preferred_repairs(EMPTY, CAPPED_PREFERRED, se=se, cap=cap)
        assert got.exhaustive == (cap == 2 ** len(se))
        assert got.repairs == (want if cap >= 4 else ()), cap


# rule sets whose consistency is not downward closed, over the e/1 and f/1
# facts of conftest.random_fact_set
CAPPED_SCANS = (
    parse_tes("decl persistent e/1.\ndecl persistent f/1.\n"
              "constraint :- f(X, [T, _]), not e(X, [T, _])."),
    parse_tes("decl persistent e/1.\ndecl persistent f/1.\ndecl meta m/1.\n"
              "meta m(X, I, L) :- f(X, I, L), not e(X, _, _).\n"
              "constraint :- m(X, [T, _]), f(X, [T, _])."),
)


def test_capped_scans_return_only_repairs_and_preferred_repairs():
    # at every cap up to the 2^n subsets, a capped answer holds only repairs,
    # and a capped preferred answer only preferred repairs
    assert not any(map(_downward_closed, CAPPED_SCANS))
    rng = random.Random(61)
    checked = 0
    while checked < 200:
        tes = rng.choice(CAPPED_SCANS)
        se = random_fact_set(rng, max_facts=4, horizon=3)
        if len({f.level for f in se}) < 2:
            continue
        reps = brute_repairs(EMPTY, tes, se=se)
        pref = brute_preferred(reps)
        for cap in range(1, 2 ** len(se) + 1):
            got = repairs(EMPTY, tes, se=se, cap=cap)
            assert set(got.repairs) <= set(reps), (se, cap)
            got = preferred_repairs(EMPTY, tes, se=se, cap=cap)
            assert set(got.repairs) <= set(pref), (se, cap)
        assert got.exhaustive and got.repairs == pref
        checked += 1


def test_hypergraph_budgets_stop_at_exactly_their_caps():
    # alternative provenance supports: 13 build the hypergraph, and 12
    # leave cautious and recognition raising and the repairs empty
    dataset, tes = encode_3sat_cautious(UNSAT_2)
    repair = brute_repairs(dataset, tes)[0]
    full = repair | infer_meta(tes, dataset, repair)
    assert cautious_core(dataset, tes, cap=13) == {probe_fact()}
    assert recognize_timeline(dataset, tes, full, cap=13)
    for solve in (lambda: cautious_core(dataset, tes, cap=12),
                  lambda: timeline(dataset, tes, "cautious", cap=12),
                  lambda: recognize_timeline(dataset, tes, full, cap=12)):
        with pytest.raises(EnumerationCapExceeded) as err:
            solve()
        assert err.value.cap == 12
    for enumerate_ in (repairs, preferred_repairs):
        got = enumerate_(dataset, tes, cap=12)
        assert not got.exhaustive and got.repairs == ()
    # results plus dead ends: a star of three pairs has 2^3 + 1 repairs and
    # one dead end
    se = star_facts(3)
    for enumerate_ in (repairs, preferred_repairs):
        full_set = enumerate_(EMPTY, STAR_TES, se=se, cap=10)
        assert full_set.exhaustive and len(full_set.repairs) == 9
        capped = enumerate_(EMPTY, STAR_TES, se=se, cap=9)
        assert not capped.exhaustive and set(capped.repairs) < set(full_set.repairs)


def test_preferred_check_tests_each_left_out_fact_once():
    """Each of 4,000 patients has a level-1 interval [1,5] and a level-2
    interval [0,5], clashing on their equal ends. Checking the level-1
    facts as a preferred timeline costs about the facts left out, not
    those times the facts kept."""
    tes = parse_tes("decl observation s1/1.\ndecl observation s2/1.\ndecl observation stop/1.\n"
                    "decl persistent e/1.\nexists_pers(e(P), T, 1) :- s1(P, T).\n"
                    "exists_pers(e(P), T, 2) :- s2(P, T).\nends(e(P), T, 1) :- stop(P, T).\n")
    n = 4000
    dataset = Dataset([ObservationFact(pred, (f"p{i}",), t) for i in range(n)
                       for pred, t in (("s1", 1), ("s2", 0), ("stop", 5))])
    strong = frozenset(ev(1, 5, 1, args=(f"p{i}",)) for i in range(n))
    weak = frozenset(ev(0, 5, 2, args=(f"p{i}",)) for i in range(n))
    began = time.perf_counter()
    assert recognize_timeline(dataset, tes, strong, mode="preferred")
    assert time.perf_counter() - began < 1.0
    assert recognize_timeline(dataset, tes, weak, mode="consistent")
    assert not recognize_timeline(dataset, tes, weak, mode="preferred")


def test_recognition_agrees_with_enumeration():
    rng = random.Random(29)
    checked = 0
    for _ in range(30):
        dataset, tes = random_ruleful_instance(rng)
        se = infer_all_simple(dataset, tes)
        if len(se) > 10:
            continue
        reps = brute_repairs(dataset, tes, se=se)
        pref = set(brute_preferred(reps))
        candidates = [set(r) for r in reps]
        candidates.append(set())
        if se:
            dropped = sorted(se, key=str)[0]
            candidates.append(set(se) - {dropped})
        for cand in candidates:
            cand = frozenset(cand)
            full = cand | infer_meta(tes, dataset, cand)
            got_c = recognize_timeline(dataset, tes, full, mode="consistent")
            got_p = recognize_timeline(dataset, tes, full, mode="preferred")
            assert got_c == (cand in set(reps))
            assert got_p == (cand in pref)
            checked += 1
    assert checked > 40


def test_whole_programs_agree_with_brute_force_in_every_mode():
    # random whole rule programs: every timeline mode against the brute
    # repairs, their preferred filter, their intersection and the closure
    # of each; recognition on every repair and on candidates one fact off
    # one, on a meta part one fact short, and beside a fact never inferred
    rng = random.Random(53)
    stray = AnnotatedEventFact("e", ("z",), Interval(0, 0), 1)
    seen = {"scanned": 0, "levels": 0, "several": 0, "beaten": 0, "meta": 0}
    checked = 0
    while checked < 300:
        dataset, tes = random_program(rng)
        se = infer_all_simple(dataset, tes)
        if len(se) > 11:
            continue

        def closed(s):
            return s | infer_meta(tes, dataset, s)

        reps = brute_repairs(dataset, tes, se=se)
        pref = brute_preferred(reps)
        core = frozenset.intersection(*reps) if reps else frozenset()
        for mode, want in (("naive", (se,)), ("consistent", reps), ("preferred", pref),
                           ("cautious", (core,))):
            got = timeline(dataset, tes, mode)
            assert got.exhaustive and got.models == tuple(map(closed, want)), mode
        candidates = set(reps) | {frozenset(), se, core}
        for r in reps:
            candidates.update(r ^ {min(part, key=fact_key)} for part in (r, se - r) if part)
        for cand in candidates:
            full = closed(cand)
            assert recognize_timeline(dataset, tes, full) == (cand in reps)
            assert recognize_timeline(dataset, tes, full, "preferred") == (cand in pref)
            if full != cand:  # a meta part one fact short
                short = full - {max(full - cand, key=fact_key)}
                assert not recognize_timeline(dataset, tes, short)
            assert not recognize_timeline(dataset, tes, full | {stray})
        seen["scanned"] += not _downward_closed(tes)
        seen["levels"] += len({f.level for f in se}) > 1
        seen["several"] += len(reps) > 1
        seen["beaten"] += len(pref) < len(reps)
        seen["meta"] += any(closed(r) != r for r in reps)
        checked += 1
    assert min(seen.values()) > 5, seen
