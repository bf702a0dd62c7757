"""Meta-event inference: joins, negation, recursion, strata, levels."""

import itertools
import random

import pytest

from timeloom import (
    AnnotatedEventFact,
    AtemporalFact,
    Dataset,
    Interval,
    LevelOverflow,
    TimelineResult,
    infer_all_simple,
    infer_meta,
    parse_tes,
    preferred_repairs,
    repairs,
    timeline,
)
from timeloom import meta
from timeloom.meta import Factored, close_factored, link, meta_provenance, meta_rows
from timeloom.model import fact_of, row_of
from timeloom.repair import DEFAULT_CAP, _downward_closed, _repair_factors, _simple

from closure_draws import compare
from conftest import counting_derivations, random_ruleful_instance
from oracle import link_classes


def ev(pred, args, a, b, level):
    return AnnotatedEventFact(pred, args, Interval(a, b), level)


def rows(facts) -> frozenset:
    return frozenset(map(row_of, facts))


def close_models(tes, dataset, models):
    """Each set of simple events together with the meta facts derivable
    from it, in order: `close_factored` of the models' event rows as their
    intersection plus one unit per other row, whose results are without it
    and with it."""
    models = [rows(m) for m in models]
    core = frozenset.intersection(*models) if models else frozenset()
    rest = list(frozenset().union(*models) - core)
    units = tuple([(frozenset(), frozenset([x])) for x in rest])
    picks = tuple([tuple([int(x in m) for x in rest]) for m in models])
    closed = close_factored(tes, dataset, Factored(core, units, picks)).models()
    return tuple([frozenset(map(fact_of, m)) for m in closed])


def test_intersection_and_weakest_level():
    tes = parse_tes(
        "decl persistent p/0.\ndecl persistent q/0.\ndecl meta m/0.\n"
        "meta m(inter(I, J), max(L1, L2)) :- p(I, L1), q(J, L2).")
    simple = frozenset({ev("p", (), 1, 4, 1), ev("q", (), 3, 8, 2)})
    got = infer_meta(tes, Dataset([]), simple)
    assert got == frozenset({ev("m", (), 3, 4, 2)})


def test_empty_intersection_derives_nothing():
    tes = parse_tes(
        "decl persistent p/0.\ndecl persistent q/0.\ndecl meta m/0.\n"
        "meta m(inter(I, J), 1) :- p(I, L1), q(J, L2).")
    simple = frozenset({ev("p", (), 1, 2, 1), ev("q", (), 5, 6, 1)})
    assert infer_meta(tes, Dataset([]), simple) == frozenset()


def test_negation_as_absence():
    tes = parse_tes(
        "decl persistent preg/1.\ndecl persistent hyper/1.\ndecl persistent prior/1.\n"
        "decl meta onset/1.\n"
        "meta onset(P, inter(I, J), max(L1, L2)) :- preg(P, I, L1),"
        " hyper(P, J, L2), not prior(P, _, _).")
    simple = frozenset({
        ev("preg", ("p1",), 0, 30, 1), ev("hyper", ("p1",), 10, 20, 1),
        ev("preg", ("p2",), 0, 30, 1), ev("hyper", ("p2",), 10, 20, 1),
        ev("prior", ("p2",), 0, 5, 1),
    })
    got = infer_meta(tes, Dataset([]), simple)
    assert got == frozenset({ev("onset", ("p1",), 10, 20, 1)})


def test_recursive_chaining():
    tes = parse_tes(
        "decl atemporal next/2.\ndecl persistent step/1.\ndecl meta chain/2.\n"
        "meta chain(X, Y, I, L) :- step(X, I, L), next(X, Y).\n"
        "meta chain(X, Z, I, L) :- chain(X, Y, I, L), next(Y, Z).")
    d = Dataset([AtemporalFact("next", ("a", "b")),
                 AtemporalFact("next", ("b", "c")),
                 AtemporalFact("next", ("c", "d"))])
    simple = frozenset({ev("step", ("a",), 2, 6, 1)})
    got = infer_meta(tes, d, simple)
    assert got == frozenset({
        ev("chain", ("a", "b"), 2, 6, 1),
        ev("chain", ("a", "c"), 2, 6, 1),
        ev("chain", ("a", "d"), 2, 6, 1),
    })


def test_strata_order_feeds_negation():
    # alert depends negatively on m, so m's stratum completes first
    tes = parse_tes(
        "decl persistent p/0.\ndecl persistent q/0.\n"
        "decl meta m/0.\ndecl meta alert/0.\n"
        "meta m(I, L) :- p(I, L), q(J, L2), during(I, J).\n"
        "meta alert(I, L) :- p(I, L), not m(I, _).")
    strata_index = {p: i for i, s in enumerate(tes.strata) for p in s}
    assert strata_index["m"] < strata_index["alert"]
    inside = ev("p", (), 3, 4, 1)
    outside = ev("p", (), 9, 12, 1)
    cover = ev("q", (), 1, 6, 1)
    got = infer_meta(tes, Dataset([]), frozenset({inside, outside, cover}))
    assert got == frozenset({ev("m", (), 3, 4, 1), ev("alert", (), 9, 12, 1)})


def test_level_must_stay_positive():
    tes = parse_tes(
        "decl persistent p/0.\ndecl meta m/0.\n"
        "meta m(I, minus(L, 1)) :- p(I, L).")
    simple = frozenset({ev("p", (), 0, 1, 1)})
    with pytest.raises(LevelOverflow):
        infer_meta(tes, Dataset([]), simple)


def test_timeline_facts_union(np_tes, empty_dataset):
    from timeloom import infer_all_simple

    simple = infer_all_simple(empty_dataset, np_tes)
    assert infer_meta(np_tes, empty_dataset, simple) == frozenset()
    assert simple | infer_meta(np_tes, empty_dataset, simple) == simple


def test_long_predicate_chain_stratifies_and_derives():
    """A chain of 1200 meta predicates stratifies without deep recursion,
    one stratum per predicate in chain order."""
    n = 1200
    tes = parse_tes("decl persistent e/0.\n"
                    + "".join(f"decl meta m{i}/0.\n" for i in range(n + 1))
                    + "meta m0(I, L) :- e(I, L).\n"
                    + "".join(f"meta m{i}(I, L) :- m{i - 1}(I, L).\n" for i in range(1, n + 1)))
    assert tes.strata == tuple((f"m{i}",) for i in range(n + 1))
    got = infer_meta(tes, Dataset([]), frozenset({ev("e", (), 2, 5, 1)}))
    assert got == {ev(f"m{i}", (), 2, 5, 1) for i in range(n + 1)}


class _CountedRules(tuple):
    """A tuple of rules that counts the walks over it."""

    walks = 0

    def __iter__(self):
        _CountedRules.walks += 1
        return super().__iter__()


def test_closure_walks_the_meta_rules_once_per_call():
    """The closure groups the rules by stratum in one walk over
    `tes.meta_rules`, not one walk per stratum."""
    n = 40
    tes = parse_tes("decl persistent e/0.\n"
                    + "".join(f"decl meta m{i}/0.\n" for i in range(n + 1))
                    + "meta m0(I, L) :- e(I, L).\n"
                    + "".join(f"meta m{i}(I, L) :- m{i - 1}(I, L).\n" for i in range(1, n + 1)))
    tes = tes._replace(meta_rules=_CountedRules(tes.meta_rules))
    _CountedRules.walks = 0
    got = infer_meta(tes, Dataset([]), frozenset({ev("e", (), 2, 5, 1)}))
    assert got == {ev(f"m{i}", (), 2, 5, 1) for i in range(n + 1)}
    assert _CountedRules.walks == 1


def test_meta_over_meta_interval_vars():
    tes = parse_tes(
        "decl persistent p/0.\ndecl meta wide/0.\ndecl meta spans/0.\n"
        "meta wide(I, L) :- p(I, L).\n"
        "meta spans([T1, T2], L) :- wide([T1, T2], L), 3 <= minus(T2, T1).")
    simple = frozenset({ev("p", (), 0, 2, 1), ev("p", (), 4, 9, 2)})
    got = infer_meta(tes, Dataset([]), simple)
    assert ev("spans", (), 4, 9, 2) in got
    assert not any(f.pred == "spans" and f.interval == Interval(0, 2) for f in got)


def test_recursive_probe_index_sees_later_passes():
    # seg joins two segments of equal width that meet, so a width-4 segment
    # needs two width-2 segments that the same pass added. Each semi-naive
    # pass probes seg with one argument bound: the index on that position
    # is built in the first pass and must take in every fact the later
    # passes add.
    tes = parse_tes(
        "decl persistent step/2.\ndecl meta seg/2.\n"
        "meta seg(X, Y, I, L) :- step(X, Y, I, L).\n"
        "meta seg(X, Z, [T1, T4], max(L1, L2)) :- seg(X, Y, [T1, T2], L1),"
        " seg(Y, Z, [T2, T4], L2), minus(T2, T1) <= minus(T4, T2),"
        " minus(T4, T2) <= minus(T2, T1).")
    rng = random.Random(5)
    widest = 0
    for _ in range(40):
        simple = {ev("step", (i, i + 1), i, i + 1, rng.randint(1, 2))
                  for i in range(12) if rng.random() < 0.85}
        for _ in range(rng.randint(0, 4)):
            a = rng.randrange(12)
            simple.add(ev("step", (rng.randrange(13), rng.randrange(13)), a,
                          a + rng.randint(1, 2), rng.randint(1, 2)))
        got = infer_meta(tes, Dataset([]), frozenset(simple))
        assert got == brute_segments(simple)
        widest = max([widest] + [f.interval.end - f.interval.start for f in got])
    assert widest >= 4


def brute_segments(simple):
    """The seg rules applied to every pair of known facts until nothing new
    appears."""
    segs = {AnnotatedEventFact("seg", f.args, f.interval, f.level) for f in simple}
    while True:
        new = {AnnotatedEventFact("seg", (p.args[0], q.args[1]),
                                  Interval(p.interval.start, q.interval.end),
                                  max(p.level, q.level))
               for p, q in itertools.product(segs, repeat=2)
               if p.args[1] == q.args[0] and p.interval.end == q.interval.start
               and p.interval.end - p.interval.start == q.interval.end - q.interval.start}
        if new <= segs:
            return frozenset(segs)
        segs |= new


PROVENANCE_RULES = (
    # a join, and a second stratum over it
    "decl persistent p/1.\ndecl persistent q/1.\ndecl meta m/1.\ndecl meta n/0.\n"
    "meta m(X, inter(I, J), max(L1, L2)) :- p(X, I, L1), q(X, J, L2).\n"
    "meta n(I, L) :- m(_, I, L).",
    # a recursive stratum whose facts have several derivations
    "decl persistent step/2.\ndecl meta reach/2.\n"
    "meta reach(X, Y, I, L) :- step(X, Y, I, L).\n"
    "meta reach(X, Z, inter(I, J), max(L1, L2)) :- reach(X, Y, I, L1), step(Y, Z, J, L2).",
)


def test_provenance_decides_derivability_of_every_subset():
    rng = random.Random(23)
    several = 0
    for round_ in range(60):
        tes = parse_tes(PROVENANCE_RULES[round_ % 2])
        simple = set()
        for _ in range(rng.randint(1, 8)):
            a = rng.randrange(6)
            iv = Interval(a, a + rng.randint(0, 4))
            if round_ % 2 == 0:
                simple.add(AnnotatedEventFact(rng.choice("pq"), (rng.choice("ab"),), iv,
                                              rng.randint(1, 2)))
            else:
                simple.add(AnnotatedEventFact("step", (rng.randrange(4), rng.randrange(4)),
                                              iv, rng.randint(1, 2)))
        simple = sorted(simple, key=repr)
        spent = []
        why = meta_provenance(tes, Dataset([]), rows(simple), lambda: spent.append(1))
        assert set(why) == rows(infer_meta(tes, Dataset([]), frozenset(simple)))
        for supports in why.values():
            assert supports and all(not s < t for s in supports for t in supports)
        several += len(spent) > 0
        for k in range(len(simple) + 1):
            for subset in itertools.combinations(simple, k):
                want = rows(infer_meta(tes, Dataset([]), frozenset(subset)))
                subset = rows(subset)
                assert want == {m for m, sups in why.items() if any(s <= subset for s in sups)}
    assert several > 5


# meta rules over the e/0 and p/0 events of random_ruleful_instance
CLOSURE_RULES = (
    # one join
    ("decl meta a/0.", "meta a(inter(I, J), max(L1, L2)) :- e(I, L1), p(J, L2)."),
    # two strata: b reads a only
    ("decl meta a/0.", "decl meta b/0.",
     "meta a(inter(I, J), max(L1, L2)) :- e(I, L1), p(J, L2).",
     "meta b(I, L) :- a(I, L)."),
    # a recursive stratum
    ("decl meta r/0.", "meta r(I, L) :- p(I, L).",
     "meta r(inter(I, J), max(L1, L2)) :- r(I, L1), e(J, L2)."),
    # not monotone: a negated event atom, an extremum test
    ("decl meta lone/0.", "meta lone(I, L) :- e(I, L), not p(_, _)."),
    ("decl meta first/0.", "meta first([T, T2], L) :- e([T, T2], L), start(e, T)."),
)
# the non-monotone rule sets, each with its meta predicate
NONMONOTONE_CLOSURE_RULES = {CLOSURE_RULES[3]: "lone", CLOSURE_RULES[4]: "first"}


def test_close_models_matches_closing_each_model():
    # the repairs, and random subsets of the simple events, as model lists
    rng = random.Random(17)
    grown = [0] * len(CLOSURE_RULES)  # models whose closure outgrows the shared one
    for draw in range(300):
        kind = draw % len(CLOSURE_RULES)
        dataset, tes = random_ruleful_instance(rng, allow_constraints=False,
                                               extra=CLOSURE_RULES[kind])
        assert tes.is_monotone == (kind < 3)
        se = infer_all_simple(dataset, tes)
        subsets = tuple(frozenset(f for f in se if rng.random() < 0.7) for _ in range(3))
        for models in (repairs(dataset, tes, se=se).repairs, subsets):
            want = tuple(m | infer_meta(tes, dataset, m) for m in models)
            assert close_models(tes, dataset, models) == want
            if len(models) > 1:
                shared = infer_meta(tes, dataset, frozenset.intersection(*models))
                grown[kind] += sum(len(w) - len(m) > len(shared) for m, w in zip(models, want))
    assert min(grown) > 20


def test_close_models_records_no_firings_for_one_model_or_nonmonotone_rules(monkeypatch):
    close = meta._close

    def unwitnessed(*args, witnesses=False):
        assert not witnesses, "firings recorded"
        close(*args)

    monkeypatch.setattr(meta, "_close", unwitnessed)
    rng = random.Random(3)
    for draw in range(40):
        rules = CLOSURE_RULES[draw % len(CLOSURE_RULES)]
        dataset, tes = random_ruleful_instance(rng, allow_constraints=False, extra=rules)
        reps = repairs(dataset, tes).repairs
        for models in ([reps[0]], reps if not tes.is_monotone else []):
            want = tuple(m | infer_meta(tes, dataset, m) for m in models)
            assert close_models(tes, dataset, models) == want


def test_a_one_model_result_is_its_core_with_no_unit():
    """A run of one model, in any mode, holds its facts, meta facts among
    them, in its core, and has no unit."""
    rng = random.Random(5)
    seen, with_meta = set(), 0
    for _ in range(40):
        dataset, tes = random_ruleful_instance(rng, allow_constraints=False,
                                               extra=CLOSURE_RULES[0])
        for mode in ("naive", "consistent", "preferred", "cautious"):
            f = timeline(dataset, tes, mode).factored
            if len(f.picks) == 1:
                assert (f.units, f.picks) == ((), ((),))
                seen.add(mode)
                with_meta += any(x[0] == "a" for x in f.core)  # event rows
    assert seen == {"naive", "consistent", "preferred", "cautious"} and with_meta > 20


def test_timeline_matches_closing_each_repair_from_scratch():
    # timeline() closes the repairs in factored form and orders them by
    # their results' bits; it must give each repair closed on its own, in
    # the order repairs() and preferred_repairs() give, past a cap too and
    # with only the first models closed
    # with non-monotone meta rules, a constraint over their meta event
    # every other round takes the subset scan. The monotone rounds without
    # constraints, which alone count `joined`, draw from their own stream,
    # so the other rounds' results cannot move that count
    main, plain = random.Random(41), random.Random(43)
    rounds = []
    for draw in range(400):
        rules = CLOSURE_RULES[draw % len(CLOSURE_RULES)]
        if rules in NONMONOTONE_CLOSURE_RULES and draw // len(CLOSURE_RULES) % 2:
            rules += (f"constraint :- {NONMONOTONE_CLOSURE_RULES[rules]}([T, _]), p([T, _]).",)
        rounds.append((main, rules))
    rounds += [(plain, CLOSURE_RULES[draw % 3]) for draw in range(300)]
    seen = {"joined": 0, "capped": 0, "scanned": 0, "cut": 0}
    for rng, rules in rounds:
        dataset, tes = random_ruleful_instance(rng, allow_constraints=rng is main, extra=rules)
        se = infer_all_simple(dataset, tes)
        scanned = not _downward_closed(tes)
        if scanned and len(se) > 8:
            continue
        for mode, enumerate_ in (("consistent", repairs), ("preferred", preferred_repairs)):
            cap = rng.choice((1, 2, 3, 6, DEFAULT_CAP))
            rep = enumerate_(dataset, tes, se=se, cap=cap)
            want = tuple(m | infer_meta(tes, dataset, m) for m in rep.repairs)
            got = timeline(dataset, tes, mode, cap=cap)
            assert got == TimelineResult(mode, want, rep.exhaustive)
            assert got.models == want
            n = rng.randrange(len(want) + 2)
            cut = timeline(dataset, tes, mode, cap=cap, max_models=n)
            assert cut == TimelineResult(mode, want[:n], rep.exhaustive)
            # without constraints e and p facts never share a conflict
            # component, so a unit holding both was joined by a meta rule
            seen["joined"] += rng is plain and len(want) > 1 and any(
                {"e", "p"} <= {f[0] for f in r} for rs in got.factored.units for r in rs)
            seen["capped"] += not rep.exhaustive and len(want) > 1
            seen["scanned"] += scanned and len(want) > 1
            seen["cut"] += 0 < n < len(want)
    assert min(seen.values()) > 15, seen


LINKED = parse_tes(
    "decl persistent a/1.\ndecl persistent b/1.\ndecl meta m/1.\n"
    "meta m(P, inter(I, J), max(L1, L2)) :- a(P, I, L1), b(P, J, L2).")


def test_close_models_closes_each_linked_piece_once(monkeypatch):
    # per patient, a two-level clash on a and another on b: 2^8 repairs.
    # Each m fact needs one a and one b fact, from two conflict components
    # that the meta rule links, so a patient's pair of choices is one piece.
    se = frozenset(fact for p in ("p1", "p2", "p3", "p4") for fact in (
        ev("a", (p,), 0, 9, 1), ev("a", (p,), 0, 5, 2),
        ev("b", (p,), 2, 9, 1), ev("b", (p,), 2, 7, 2)))
    models = repairs(Dataset([]), LINKED, se=se).repairs
    assert len(models) == 256
    want = tuple(m | infer_meta(LINKED, Dataset([]), m) for m in models)
    given = counting_derivations(monkeypatch)
    got = close_models(LINKED, Dataset([]), models)
    assert got == want
    assert all(sum(f.pred == "m" for f in w) == 4 for w in got)
    # the core's closure (every fact is some model's choice, so the core is
    # empty), then one derivation per kept result: four for each patient
    assert given[0] == frozenset() and len(given) == 1 + 16


def test_a_monotone_run_of_several_models_calls_close_once(monkeypatch):
    # the core and every result are closed together once, recording the
    # firings; the core's closure and each result's are read off them
    calls = []
    close = meta._close
    monkeypatch.setattr(meta, "_close", lambda *args, **kwargs: calls.append(
        kwargs.get("witnesses", False)) or close(*args, **kwargs))
    se = frozenset(fact for p in ("p1", "p2") for fact in (
        ev("a", (p,), 0, 9, 1), ev("a", (p,), 0, 5, 2), ev("b", (p,), 2, 9, 1)))
    models = repairs(Dataset([]), LINKED, se=se).repairs
    want = tuple(m | infer_meta(LINKED, Dataset([]), m) for m in models)
    calls.clear()
    assert close_models(LINKED, Dataset([]), models) == want
    assert calls == [True]
    rng = random.Random(23)
    runs = 0
    for draw in range(60):
        dataset, tes = random_ruleful_instance(rng, allow_constraints=False,
                                               extra=CLOSURE_RULES[draw % 3])
        calls.clear()
        result = timeline(dataset, tes)
        if len(result.factored.picks) > 1:
            runs += 1
            assert calls == [True]
    assert runs > 20


def test_what_a_subset_derives_through_one_closures_firings_is_its_closure():
    # the firings of one closure of U give, for every S within U, exactly
    # S | infer_meta(S) (ROADMAP item 13's obligation (b), monotone half).
    # A fact may reach S only through a firing recorded after one that
    # reads it, so one forward scan of the firings falls short there
    rng = random.Random(32)
    results = [compare(rng, 4) for _ in range(300)]
    assert [diff for diff, *_ in results if diff is not None] == []
    short = sum(k for *_, k in results)
    assert short > 30, short


def test_units_join_as_a_closure_of_the_core_and_every_result_links_them():
    # close_factored joins exactly the units that the reference's closure of
    # the core and every result links
    rng = random.Random(29)
    kinds = {"merged": 0, "apart": 0}
    while sum(kinds.values()) < 300:
        rules = CLOSURE_RULES[rng.randrange(3)]
        dataset, tes = random_ruleful_instance(rng, allow_constraints=False, extra=rules)
        f, _ = _repair_factors(dataset, tes, _simple(dataset, tes), DEFAULT_CAP, False)
        if len(f.units) < 2:
            continue
        facts = [frozenset().union(*results) for results in f.units]
        shared = f.core | meta_rows(tes, dataset, f.core)  # event rows
        find = link_classes(tes, dataset, f.core.union(*facts), shared, facts)
        want: dict = {}
        for u, unit_facts in enumerate(facts):
            want.setdefault(find(next(iter(unit_facts))), set()).add(u)
        got = [{u for u, unit_facts in enumerate(facts) if unit_facts & frozenset().union(*rs)}
               for rs in close_factored(tes, dataset, f).units]
        assert sorted(map(sorted, got)) == sorted(map(sorted, want.values()))
        kinds["merged" if len(want) < len(f.units) else "apart"] += 1
    assert min(kinds.values()) > 30, kinds


def test_close_models_survives_a_firing_over_the_union_only():
    # each model derives m at level 1; a[0,9] at level 2 beside b[2,9] at
    # level 2, which no model holds together, computes level 0
    tes = parse_tes(
        "decl persistent a/0.\ndecl persistent b/0.\ndecl meta m/0.\n"
        "meta m(inter(I, J), minus(L2, L1)) :- a(I, L1), b(J, L2).")
    models = (frozenset({ev("a", (), 0, 9, 1), ev("b", (), 2, 9, 2)}),
              frozenset({ev("a", (), 0, 9, 2), ev("b", (), 2, 9, 3)}))
    with pytest.raises(LevelOverflow):
        infer_meta(tes, Dataset([]), models[0] | models[1])
    want = tuple(m | infer_meta(tes, Dataset([]), m) for m in models)
    assert close_models(tes, Dataset([]), models) == want


def test_link_matches_brute_force_components():
    # groups may be empty or hold one value, and a value may come back as an
    # equal but distinct object: comparing roots by identity alone would
    # make such a root its own parent, and lookups would never end
    rng = random.Random(11)
    for _ in range(300):
        pool = [ev("e", (i,), 0, 1, 1) for i in range(rng.randint(1, 12))]
        groups = [[ev("e", f.args, 0, 1, 1) if rng.random() < 0.3 else f
                   for f in rng.sample(pool, rng.randint(0, min(4, len(pool))))]
                  for _ in range(rng.randint(0, 8))]
        find = link(groups)
        comp = {f: {f} for f in pool}  # brute force: merge whole classes per group
        for g in groups:
            merged = set().union(*[comp[f] for f in g])
            for f in merged:
                comp[f] = merged
        for a, b in itertools.product(pool, repeat=2):
            twin = ev("e", b.args, 0, 1, 1)
            assert (find(a) == find(twin)) == (b in comp[a]), (groups, a, b)
    stranger = ev("f", (), 0, 1, 1)
    assert link([[], [pool[0]]])(stranger) is stranger
