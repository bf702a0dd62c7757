"""Body evaluation, grounded rule heads, and level-indexed timepoints."""

import itertools
import random
from collections import Counter
from dataclasses import replace

import pytest

from timeloom import (
    STAR,
    AnnotatedEventFact,
    AtemporalFact,
    Dataset,
    EventStore,
    Interval,
    InvalidSpec,
    ObservationFact,
    eval_body,
    ground_simple_heads,
    level_timepoints,
    parse_tes,
)
from timeloom.language import AnnEventAtom, AtemporalAtom, EventAtom, Literal, ObservationAtom
from timeloom.model import Const, IntervalTerm, Nat, SortKind, Var, args_key
from timeloom.query import AuxStore, check_validity

from conftest import THERAPY_RULES


def body_of(rule_text, which="meta"):
    tes = parse_tes(rule_text)
    rule = {"meta": tes.meta_rules, "constraint": tes.constraints,
            "exists": tes.existence}[which][0]
    return rule.body, rule.var_sorts


def test_eval_body_joins_observations():
    tes = parse_tes(THERAPY_RULES)
    rule = tes.existence[0]
    d = Dataset([ObservationFact("adm", ("p1", "amox"), 5),
                 ObservationFact("adm", ("p2", "tki"), 9)])
    got = eval_body(rule.body, rule.var_sorts, d)
    assert sorted(b["P"] for b in got) == ["p1", "p2"]
    assert {b["P"]: b["T"] for b in got} == {"p1": 5, "p2": 9}


def test_eval_body_empty_ground_body(empty_dataset):
    assert eval_body((), {}, empty_dataset) == [{}]


def test_eval_body_atemporal_join():
    body, sorts = body_of(
        "decl atemporal ab/1.\ndecl observation adm/2.\ndecl nonpersistent e/1.\n"
        "exists(e(D), T, 1) :- adm(P, D, T), ab(D).\nwindow(e(X), 2).", "exists")
    d = Dataset([ObservationFact("adm", ("p1", "amox"), 3),
                 ObservationFact("adm", ("p1", "insulin"), 4),
                 AtemporalFact("ab", ("amox",))])
    got = eval_body(body, sorts, d)
    assert [b["D"] for b in got] == ["amox"]


def test_eval_body_negated_event_atom():
    body, sorts = body_of(
        "decl persistent p/1.\ndecl persistent q/1.\ndecl meta m/1.\n"
        "meta m(X, I, L) :- p(X, I, L), not q(X, I, _).")
    events = EventStore([
        AnnotatedEventFact("p", ("a",), Interval(1, 4), 1),
        AnnotatedEventFact("p", ("b",), Interval(2, 5), 1),
        AnnotatedEventFact("q", ("b",), Interval(2, 5), 2),
    ])
    got = eval_body(body, sorts, Dataset([]), events)
    assert [b["X"] for b in got] == ["a"]


def test_eval_body_comparisons_with_star():
    body, sorts = body_of(
        "decl persistent p/0.\ndecl meta m/0.\n"
        "meta m([T1, T2], 1) :- p([T1, T2], L), T2 != *.")
    events = EventStore([
        AnnotatedEventFact("p", (), Interval(0, STAR), 1),
        AnnotatedEventFact("p", (), Interval(0, 3), 1),
    ])
    got = eval_body(body, sorts, Dataset([]), events)
    assert [b["T2"] for b in got] == [3]


def test_eval_body_matches_literal_star():
    body, sorts = body_of(
        "decl persistent p/0.\ndecl meta m/0.\n"
        "meta m([T1, T1], 1) :- p([T1, *], L).")
    events = EventStore([
        AnnotatedEventFact("p", (), Interval(0, STAR), 1),
        AnnotatedEventFact("p", (), Interval(4, 6), 1),
    ])
    got = eval_body(body, sorts, Dataset([]), events)
    assert [b["T1"] for b in got] == [0]


def test_eval_body_allen_test():
    body, sorts = body_of(
        "decl persistent p/0.\ndecl persistent q/0.\ndecl meta m/0.\n"
        "meta m(inter(I, J), 1) :- p(I, L1), q(J, L2), overlaps(I, J).")
    events = EventStore([
        AnnotatedEventFact("p", (), Interval(1, 4), 1),
        AnnotatedEventFact("q", (), Interval(3, 8), 1),
        AnnotatedEventFact("q", (), Interval(6, 9), 1),
    ])
    got = eval_body(body, sorts, Dataset([]), events)
    assert [b["J"] for b in got] == [Interval(3, 8)]


def test_eval_body_extremum_with_ongoing_end():
    body, sorts = body_of(
        "decl persistent p/0.\ndecl meta m/0.\n"
        "meta m([T1, T2], 1) :- p([T1, T2], L), end(p, T2).")
    events = EventStore([
        AnnotatedEventFact("p", (), Interval(2, 5), 1),
        AnnotatedEventFact("p", (), Interval(1, STAR), 1),
    ])
    got = eval_body(body, sorts, Dataset([]), events)
    assert [(b["T1"], b["T2"]) for b in got] == [(1, STAR)]


def test_eval_body_extremum_start():
    body, sorts = body_of(
        "decl persistent p/1.\ndecl meta m/1.\n"
        "meta m(X, [T1, T2], 1) :- p(X, [T1, T2], L), start(p(X), T1).")
    events = EventStore([
        AnnotatedEventFact("p", ("a",), Interval(2, 5), 1),
        AnnotatedEventFact("p", ("a",), Interval(4, 9), 1),
        AnnotatedEventFact("p", ("b",), Interval(4, 6), 1),
    ])
    got = eval_body(body, sorts, Dataset([]), events)
    assert sorted((b["X"], b["T1"]) for b in got) == [("a", 2), ("b", 4)]


def test_eval_body_delta_restricts_one_binder():
    body, sorts = body_of(
        "decl persistent p/0.\ndecl persistent q/0.\ndecl meta m/0.\n"
        "meta m(I, L) :- p(I, L), q(J, L2).")
    p1 = AnnotatedEventFact("p", (), Interval(0, 1), 1)
    p2 = AnnotatedEventFact("p", (), Interval(2, 3), 1)
    q1 = AnnotatedEventFact("q", (), Interval(5, 6), 1)
    events = EventStore([p1, p2, q1])
    full = eval_body(body, sorts, Dataset([]), events)
    assert len(full) == 2
    narrowed = eval_body(body, sorts, Dataset([]), events, delta=(0, (p2,)))
    assert [b["I"] for b in narrowed] == [Interval(2, 3)]


def test_ground_simple_heads_and_windows(therapy_tes):
    d = Dataset([ObservationFact("adm", ("p1", "amox"), 5),
                 ObservationFact("lab", ("p1",), 30)])
    aux = ground_simple_heads(therapy_tes, d)
    assert aux.exists == frozenset({
        (("abth", ("p1", "amox")), 5, 1),
        (("hyperglyc", ("p1",)), 30, 1),
    })
    assert aux.ends == frozenset()
    assert aux.default_windows == frozenset({("abth", 48)})
    assert aux.window_values(("abth", ("p1", "amox"))) == [48]
    assert aux.window_for(("abth", ("p1", "amox"))) == 48
    assert aux.keys() == [("abth", ("p1", "amox")), ("hyperglyc", ("p1",))]


def test_check_validity_missing_window():
    tes = parse_tes("decl nonpersistent e/0.\ndecl observation o/0.\n"
                    "exists(e, T, 1) :- o(T).\nwindow(e, 2) :- o(9).")
    aux = ground_simple_heads(tes, Dataset([ObservationFact("o", (), 3)]))
    with pytest.raises(InvalidSpec) as err:
        check_validity(aux, tes)
    assert "MissingWindow" in str(err.value)


def test_check_validity_ambiguous_window():
    tes = parse_tes("decl nonpersistent e/1.\ndecl observation o/1.\n"
                    "exists(e(X), T, 1) :- o(X, T).\nwindow(e(A), 7).\n"
                    "window(e(X), 3) :- o(X, T).")
    aux = ground_simple_heads(tes, Dataset([ObservationFact("o", ("a",), 0)]))
    assert aux.window_values(("e", ("a",))) == [3, 7]
    with pytest.raises(InvalidSpec) as err:
        check_validity(aux, tes)
    assert "AmbiguousWindow" in str(err.value)


def test_check_validity_zero_window():
    tes = parse_tes("decl nonpersistent e/1.\ndecl observation o/1.\n"
                    "exists(e(X), T, 1) :- o(X, T).\n"
                    "window(e(X), minus(T, T)) :- o(X, T).")
    aux = ground_simple_heads(tes, Dataset([ObservationFact("o", ("a",), 3)]))
    with pytest.raises(InvalidSpec) as err:
        check_validity(aux, tes)
    assert "ZeroWindow" in str(err.value)


def test_check_validity_ignores_persistent(pers_tes, empty_dataset):
    aux = ground_simple_heads(pers_tes, empty_dataset)
    check_validity(aux, pers_tes)  # no window needed


def test_level_timepoints_cumulative(np_tes, empty_dataset):
    aux = ground_simple_heads(np_tes, empty_dataset)
    tp = level_timepoints(aux, ("e", ()))
    assert tp.max_level == 2
    assert tp.exists_at(1) == (2, 4, 9)
    assert tp.exists_at(2) == (1, 2, 4, 5, 6, 9, 10)
    assert tp.ends_at(1) == (7, 8)
    assert tp.ends_at(2) == (7, 8)


def test_aux_store_direct():
    aux = AuxStore(
        exists=frozenset({(("e", ()), 1, 1)}),
        ends=frozenset(),
        windows=frozenset({(("e", ()), 4)}),
        default_windows=frozenset({("e", 4)}))
    # identical default and keyed values collapse to one
    assert aux.window_values(("e", ())) == [4]


# ---------------------------------------------------------------------------
# Indexed joins against a nested-loop reference

VALUES = ("x", "y", 0, 1)
ARITY = {"a": 1, "b": 2, "o": 2, "p": 1, "q": 2}


def random_facts(rng):
    dataset = Dataset(
        [AtemporalFact("a", (rng.choice(VALUES),)) for _ in range(rng.randint(0, 4))]
        + [AtemporalFact("b", (rng.choice(VALUES), rng.choice(VALUES)))
           for _ in range(rng.randint(0, 6))]
        + [ObservationFact("o", (rng.choice(VALUES), rng.choice(VALUES)), rng.randrange(4))
           for _ in range(rng.randint(0, 6))])
    events = EventStore()
    for _ in range(rng.randint(0, 10)):
        pred = rng.choice(("p", "q"))
        start = rng.randrange(4)
        end = STAR if rng.random() < 0.2 else start + rng.randrange(3)
        args = tuple(rng.choice(VALUES) for _ in range(ARITY[pred]))
        events.add(AnnotatedEventFact(pred, args, Interval(start, end), rng.randint(1, 2)))
    return dataset, events


def random_body(rng):
    """Positive binders over every atom kind, then negated atoms whose
    variables the binders bind. Arguments mix shared data variables,
    symbols, naturals and wildcards; every sort accepts every generated
    value, so matching depends on equality alone."""
    sorts = {"X": SortKind.DATA, "Y": SortKind.DATA, "Z": SortKind.DATA,
             "T": SortKind.NAT, "U": SortKind.NAT}
    fresh = itertools.count()

    def wild(sort):
        name = f"_{next(fresh)}"
        sorts[name] = sort
        return Var(name)

    def arg(data_vars):
        r = rng.random()
        if r < 0.55:
            return Var(rng.choice(data_vars))
        if r < 0.7:
            return Const(rng.choice(("x", "y")))
        if r < 0.85:
            return Nat(rng.choice((0, 1)))
        return wild(SortKind.DATA)

    def atom(pred, data_vars):
        args = tuple(arg(data_vars) for _ in range(ARITY[pred]))
        if pred in ("a", "b"):
            return AtemporalAtom(pred, args)
        if pred == "o":
            return ObservationAtom(pred, args, Var(rng.choice(("T", "U"))))
        if rng.random() < 0.5:
            interval = wild(SortKind.INTERVAL)
        else:
            interval = IntervalTerm(Var(rng.choice(("T", "U"))), wild(SortKind.NAT_OR_STAR))
        if rng.random() < 0.3:
            return EventAtom(pred, args, interval)
        return AnnEventAtom(pred, args, interval, wild(SortKind.POSNAT))

    preds = tuple(ARITY)
    body = [Literal(atom(rng.choice(preds), ("X", "Y", "Z")))
            for _ in range(rng.randint(1, 3))]
    bound = sorted({v.name for lit in body for v in _atom_terms(lit.atom)
                    if isinstance(v, Var) and v.name in ("X", "Y", "Z")})
    if bound:
        for _ in range(rng.randint(0, 2)):
            neg = atom(rng.choice(preds), bound)
            if not isinstance(neg, AtemporalAtom):  # free time positions
                neg = replace(neg, **_unbound_times(neg, wild))
            body.append(Literal(neg, negated=True))
    rng.shuffle(body)
    return tuple(body), sorts


def _unbound_times(a, wild):
    if isinstance(a, ObservationAtom):
        return {"t": wild(SortKind.NAT)}
    return {"interval": wild(SortKind.INTERVAL)}


def _atom_terms(a):
    if isinstance(a, AtemporalAtom):
        return a.args
    if isinstance(a, ObservationAtom):
        return a.args + (a.t,)
    iv = a.interval
    ends = (iv,) if isinstance(iv, Var) else (iv.lo, iv.hi)
    return a.args + ends + ((a.level,) if isinstance(a, AnnEventAtom) else ())


def _fact_values(a, f):
    if isinstance(a, AtemporalAtom):
        return f.args
    if isinstance(a, ObservationAtom):
        return f.args + (f.t,)
    iv = a.interval
    ends = (f.interval,) if isinstance(iv, Var) else (f.interval.start, f.interval.end)
    return f.args + ends + ((f.level,) if isinstance(a, AnnEventAtom) else ())


def _all_facts(a, dataset, events):
    if isinstance(a, AtemporalAtom):
        return [f for f in dataset.facts if isinstance(f, AtemporalFact) and f.pred == a.pred]
    if isinstance(a, ObservationAtom):
        return [f for f in dataset.facts if isinstance(f, ObservationFact) and f.pred == a.pred]
    return [f for f in events.facts if f.pred == a.pred]


def _unify(a, f, binding):
    for term, value in zip(_atom_terms(a), _fact_values(a, f)):
        if isinstance(term, Var):
            if term.name in binding:
                if binding[term.name] != value:
                    return False
            else:
                binding[term.name] = value
        elif isinstance(term, Const):
            if term.name != value:
                return False
        elif value == STAR or term.value != value:
            return False
    return True


def nested_loop_eval(body, dataset, events):
    """Every combination of one fact per positive atom, unified in body
    order, minus those for which some negated atom has a match."""
    pos = [lit.atom for lit in body if not lit.negated]
    neg = [lit.atom for lit in body if lit.negated]
    out = []
    for combo in itertools.product(*(_all_facts(a, dataset, events) for a in pos)):
        b = {}
        if not all(_unify(a, f, b) for a, f in zip(pos, combo)):
            continue
        if any(_unify(n, f, dict(b)) for n in neg for f in _all_facts(n, dataset, events)):
            continue
        out.append(b)
    return out


def test_eval_body_matches_nested_loop_reference():
    rng = random.Random(7)
    nonempty = 0
    for _ in range(600):
        dataset, events = random_facts(rng)
        body, sorts = random_body(rng)
        got = eval_body(body, sorts, dataset, events)
        want = nested_loop_eval(body, dataset, events)
        assert Counter(frozenset(b.items()) for b in got) == \
            Counter(frozenset(b.items()) for b in want), body
        nonempty += bool(want)
    assert nonempty > 100  # the generator reaches non-trivial joins


def test_event_store_index_follows_later_adds():
    first = AnnotatedEventFact("q", ("a", "b"), Interval(0, 1), 1)
    store = EventStore([first])
    assert list(store.probe("q", (1,), ("b",))) == [first]  # builds the index
    late = AnnotatedEventFact("q", ("c", "b"), Interval(2, 3), 1)
    store.add(late)
    assert list(store.probe("q", (1,), ("b",))) == [first, late]
    assert list(store.probe("q", (0, 1), ("c", "b"))) == [late]
    assert not store.probe("q", (0,), ("zz",))


# ---------------------------------------------------------------------------
# Grouped AuxStore against literal filters over its frozensets


def test_aux_store_grouping_matches_filters():
    rng = random.Random(11)
    keys = [("e", ("a",)), ("e", ("b",)), ("f", ("a",)), ("f", (1,)), ("g", ())]
    for _ in range(300):
        exists = frozenset((rng.choice(keys), rng.randrange(8), rng.randint(1, 3))
                           for _ in range(rng.randint(0, 12)))
        ends = frozenset((rng.choice(keys), rng.randrange(8), rng.randint(1, 3))
                         for _ in range(rng.randint(0, 6)))
        windows = frozenset((rng.choice(keys), rng.randint(1, 4))
                            for _ in range(rng.randint(0, 4)))
        defaults = frozenset((rng.choice("efg"), rng.randint(1, 4))
                             for _ in range(rng.randint(0, 2)))
        aux = AuxStore(exists, ends, windows, defaults)
        assert aux.keys() == sorted({k for k, _, _ in exists},
                                    key=lambda k: (k[0], args_key(k[1])))
        for key in keys:
            assert aux.window_values(key) == sorted(
                {w for k, w in windows if k == key}
                | {w for p, w in defaults if p == key[0]})
            ex = [(t, lvl) for k, t, lvl in exists if k == key]
            en = [(t, lvl) for k, t, lvl in ends if k == key]
            top = max((lvl for _, lvl in ex + en), default=0)
            tp = level_timepoints(aux, key)
            assert tp.max_level == top
            for lvl in range(1, top + 1):
                assert tp.exists_at(lvl) == tuple(sorted({t for t, l in ex if l <= lvl}))
                assert tp.ends_at(lvl) == tuple(sorted({t for t, l in en if l <= lvl}))
