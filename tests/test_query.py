"""Body evaluation, grounded rule heads, and level-indexed timepoints."""

import itertools
import pickle
import random
from functools import partial
from collections import Counter

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
    ground_simple_heads,
    parse_tes,
)
from timeloom.language import (
    ALLEN_BUILTINS,
    AllenTest,
    AtemporalAtom,
    Comparison,
    EventAtom,
    ExtremumTest,
    Literal,
    ObservationAtom,
    format_instance,
)
from timeloom.model import (
    Const,
    IntervalTerm,
    Nat,
    SortKind,
    StarTerm,
    Var,
    allen_relation,
    args_key,
    fact_key,
    fact_of,
    fact_row,
    row_of,
    term_vars,
)
from timeloom.query import AuxStore, JoinPlan
from timeloom.simple import infer_from_aux

from conftest import THERAPY_RULES
from oracle import max_level, points_at, window_values


def eval_body(body, sorts, dataset, events=None, delta=None, witnesses=False):
    """All variable bindings satisfying the body, as dicts: `JoinPlan.solve`
    over an `EventStore` of the rows of the event facts `events`, with each
    tuple of slots named by the plan's binder variables and each interval,
    a (start, end) pair there, as an `Interval`. A `delta` of facts is
    passed as their rows. With `witnesses`, each result is a (binding,
    facts) pair."""
    plan = JoinPlan(body, sorts)
    if delta is not None:
        event = isinstance(body[delta[0]].atom, EventAtom)
        delta = (delta[0], [row_of(f) if event else fact_row(f) for f in delta[1]])
    store = None if events is None else EventStore(map(row_of, events))
    results = plan.solve(dataset, store, delta, witnesses)

    def binding(s):
        return {n: Interval(*v) if v.__class__ is tuple else v for n, v in zip(plan.names, s)}
    if witnesses:
        return [(binding(s), tuple(map(fact_of, m))) for s, m in results]
    return [binding(s) for s in results]


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
    events = [
        AnnotatedEventFact("p", ("a",), Interval(1, 4), 1),
        AnnotatedEventFact("p", ("b",), Interval(2, 5), 1),
        AnnotatedEventFact("q", ("b",), Interval(2, 5), 2),
    ]
    got = eval_body(body, sorts, Dataset([]), events)
    assert [b["X"] for b in got] == ["a"]


def test_eval_body_comparisons_with_star():
    body, sorts = body_of(
        "decl persistent p/0.\ndecl meta m/0.\n"
        "meta m([T1, T2], 1) :- p([T1, T2], L), T2 != *.")
    events = [
        AnnotatedEventFact("p", (), Interval(0, STAR), 1),
        AnnotatedEventFact("p", (), Interval(0, 3), 1),
    ]
    got = eval_body(body, sorts, Dataset([]), events)
    assert [b["T2"] for b in got] == [3]


def test_eval_body_matches_literal_star():
    body, sorts = body_of(
        "decl persistent p/0.\ndecl meta m/0.\n"
        "meta m([T1, T1], 1) :- p([T1, *], L).")
    events = [
        AnnotatedEventFact("p", (), Interval(0, STAR), 1),
        AnnotatedEventFact("p", (), Interval(4, 6), 1),
    ]
    got = eval_body(body, sorts, Dataset([]), events)
    assert [b["T1"] for b in got] == [0]


def test_eval_body_allen_test():
    body, sorts = body_of(
        "decl persistent p/0.\ndecl persistent q/0.\ndecl meta m/0.\n"
        "meta m(inter(I, J), 1) :- p(I, L1), q(J, L2), overlaps(I, J).")
    events = [
        AnnotatedEventFact("p", (), Interval(1, 4), 1),
        AnnotatedEventFact("q", (), Interval(3, 8), 1),
        AnnotatedEventFact("q", (), Interval(6, 9), 1),
    ]
    got = eval_body(body, sorts, Dataset([]), events)
    assert [b["J"] for b in got] == [Interval(3, 8)]


def test_eval_body_extremum_with_ongoing_end():
    body, sorts = body_of(
        "decl persistent p/0.\ndecl meta m/0.\n"
        "meta m([T1, T2], 1) :- p([T1, T2], L), end(p, T2).")
    events = [
        AnnotatedEventFact("p", (), Interval(2, 5), 1),
        AnnotatedEventFact("p", (), Interval(1, STAR), 1),
    ]
    got = eval_body(body, sorts, Dataset([]), events)
    assert [(b["T1"], b["T2"]) for b in got] == [(1, STAR)]


def test_eval_body_extremum_start():
    body, sorts = body_of(
        "decl persistent p/1.\ndecl meta m/1.\n"
        "meta m(X, [T1, T2], 1) :- p(X, [T1, T2], L), start(p(X), T1).")
    events = [
        AnnotatedEventFact("p", ("a",), Interval(2, 5), 1),
        AnnotatedEventFact("p", ("a",), Interval(4, 9), 1),
        AnnotatedEventFact("p", ("b",), Interval(4, 6), 1),
    ]
    got = eval_body(body, sorts, Dataset([]), events)
    assert sorted((b["X"], b["T1"]) for b in got) == [("a", 2), ("b", 4)]


def test_eval_body_delta_restricts_one_binder():
    body, sorts = body_of(
        "decl persistent p/0.\ndecl persistent q/0.\ndecl meta m/0.\n"
        "meta m(I, L) :- p(I, L), q(J, L2).")
    p1 = AnnotatedEventFact("p", (), Interval(0, 1), 1)
    p2 = AnnotatedEventFact("p", (), Interval(2, 3), 1)
    q1 = AnnotatedEventFact("q", (), Interval(5, 6), 1)
    events = [p1, p2, q1]
    full = eval_body(body, sorts, Dataset([]), events)
    assert len(full) == 2
    narrowed = eval_body(body, sorts, Dataset([]), events, delta=(0, (p2,)))
    assert [b["I"] for b in narrowed] == [Interval(2, 3)]


def test_ground_simple_heads_and_windows(therapy_tes):
    d = Dataset([ObservationFact("adm", ("p1", "amox"), 5),
                 ObservationFact("lab", ("p1",), 30)])
    aux = ground_simple_heads(therapy_tes, d)
    assert aux.exists == {("abth", ("p1", "amox")): {(5, 1)}, ("hyperglyc", ("p1",)): {(30, 1)}}
    assert aux.ends == {} and aux.windows == {}
    assert aux.default_windows == {"abth": {48}}
    assert window_values(aux, ("abth", ("p1", "amox"))) == [48]
    assert aux.keys() == [("abth", ("p1", "amox")), ("hyperglyc", ("p1",))]


def test_rule_plans_compile_once_per_tes_and_stay_out_of_pickles():
    tes = parse_tes(THERAPY_RULES)
    d = Dataset([ObservationFact("adm", ("p1", "amox"), 5)])
    aux = ground_simple_heads(tes, d)
    plans = dict(tes.plans)
    assert len(plans) == len(tes.existence)  # the window rule is schematic
    assert ground_simple_heads(tes, d) == aux and tes.plans == plans
    clone = pickle.loads(pickle.dumps(tes))  # a copy sent to another process
    assert clone == tes and clone.plans == {}
    assert ground_simple_heads(clone, d) == aux


def test_check_validity_missing_window():
    tes = parse_tes("decl nonpersistent e/0.\ndecl observation o/0.\n"
                    "exists(e, T, 1) :- o(T).\nwindow(e, 2) :- o(9).")
    aux = ground_simple_heads(tes, Dataset([ObservationFact("o", (), 3)]))
    with pytest.raises(InvalidSpec) as err:
        infer_from_aux(aux, tes)
    assert str(err.value) == "MissingWindow for e"


def test_check_validity_ambiguous_window():
    tes = parse_tes("decl nonpersistent e/1.\ndecl observation o/1.\n"
                    "exists(e(X), T, 1) :- o(X, T).\nwindow(e(A), 7).\n"
                    "window(e(X), 3) :- o(X, T).")
    aux = ground_simple_heads(tes, Dataset([ObservationFact("o", ("a",), 0)]))
    assert window_values(aux, ("e", ("a",))) == [3, 7]
    with pytest.raises(InvalidSpec) as err:
        infer_from_aux(aux, tes)
    assert str(err.value) == "AmbiguousWindow for e(a)"


def test_check_validity_zero_window():
    tes = parse_tes("decl nonpersistent e/1.\ndecl observation o/1.\n"
                    "exists(e(X), T, 1) :- o(X, T).\n"
                    "window(e(X), minus(T, T)) :- o(X, T).")
    aux = ground_simple_heads(tes, Dataset([ObservationFact("o", ("a",), 3)]))
    with pytest.raises(InvalidSpec) as err:
        infer_from_aux(aux, tes)
    assert str(err.value) == "ZeroWindow for e(a)"
    assert (err.value.kind, err.value.key) == ("ZeroWindow", ("e", ("a",)))


def test_check_validity_ignores_persistent(pers_tes, empty_dataset):
    aux = ground_simple_heads(pers_tes, empty_dataset)
    assert infer_from_aux(aux, pers_tes)  # no window needed


# Instances are grounded in the order of their facts, here not key order.
ANY_WINDOW = ("decl nonpersistent e/1.\ndecl observation o/1.\ndecl atemporal p/1.\n"
              "exists(e(X), 0, 1) :- o(X, T).\nexists(e(X), 0, 1) :- p(X).\n"
              "window(e(X), plus(T, 0)) :- o(X, T).")
O, P = partial(ObservationFact, "o"), partial(AtemporalFact, "p")


@pytest.mark.parametrize("rules, facts, message", [
    # of two instances without a window the least in key order is named,
    # its symbols quoted as rule text quotes them
    ("decl nonpersistent e/2.\ndecl atemporal o/2.\nexists(e(X, Y), 0, 1) :- o(X, Y).\n"
     "window(e(ok, Y), 2) :- o(ok, Y).",
     [AtemporalFact("o", ("zz", 3)), AtemporalFact("o", ("A b", "not")),
      AtemporalFact("o", ("ok", 1))],
     "MissingWindow for e('A b', 'not')"),
    # a zero, an ambiguous and a missing window: each kind in turn is the
    # least instance in key order, and grounding meets a greater one first
    (ANY_WINDOW, [O(("zz",), 0), O(("m",), 5), O(("m",), 6), P(("a",))],
     "MissingWindow for e(a)"),
    (ANY_WINDOW, [O(("zz",), 0), O(("a",), 5), O(("a",), 6), P(("m",))],
     "AmbiguousWindow for e(a)"),
    (ANY_WINDOW, [O(("zz",), 5), O(("zz",), 6), O(("a",), 0), P(("m",))],
     "ZeroWindow for e(a)"),
], ids=["two-missing", "missing-least", "ambiguous-least", "zero-least"])
def test_invalid_spec_reports_the_first_instance_in_rule_syntax(rules, facts, message):
    """The least failing instance in key order is named, whatever order
    grounding met the instances in."""
    tes = parse_tes(rules)
    aux = ground_simple_heads(tes, Dataset(facts))
    assert list(aux.exists) != aux.keys()
    with pytest.raises(InvalidSpec) as err:
        infer_from_aux(aux, tes)
    assert str(err.value) == message


def test_grounded_points_seen_per_level(np_tes, empty_dataset):
    aux = ground_simple_heads(np_tes, empty_dataset)
    exists, ends = aux.exists[("e", ())], aux.ends[("e", ())]
    assert max_level((exists, ends)) == 2
    assert points_at(exists, 1) == (2, 4, 9)
    assert points_at(exists, 2) == (1, 2, 4, 5, 6, 9, 10)
    assert points_at(ends, 1) == (7, 8)
    assert points_at(ends, 2) == (7, 8)


def test_aux_store_direct():
    aux = AuxStore(exists={("e", ()): {(1, 1), (5, 1)}}, ends={}, windows={("e", ()): {4}},
                   default_windows={"e": {4}})
    # identical default and keyed values collapse to one window, of 4
    tes = parse_tes("decl nonpersistent e/0.\nwindow(e, 4).")
    assert infer_from_aux(aux, tes) == {AnnotatedEventFact("e", (), Interval(1, 5), 1)}


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
    events = []
    for _ in range(rng.randint(0, 10)):
        pred = rng.choice(("p", "q"))
        start = rng.randrange(4)
        end = STAR if rng.random() < 0.2 else start + rng.randrange(3)
        args = tuple(rng.choice(VALUES) for _ in range(ARITY[pred]))
        events.append(AnnotatedEventFact(pred, args, Interval(start, end), rng.randint(1, 2)))
    return dataset, list(dict.fromkeys(events))


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
        return EventAtom(pred, args, interval, wild(SortKind.POSNAT))

    preds = tuple(ARITY)
    body = [Literal(atom(rng.choice(preds), ("X", "Y", "Z")))
            for _ in range(rng.randint(1, 3))]
    bound = sorted({v.name for lit in body for v in _atom_terms(lit.atom)
                    if isinstance(v, Var) and v.name in ("X", "Y", "Z")})
    if bound:
        for _ in range(rng.randint(0, 2)):
            neg = atom(rng.choice(preds), bound)
            if not isinstance(neg, AtemporalAtom):  # free time positions
                neg = neg._replace(**_unbound_times(neg, wild))
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
    return a.args + ends + ((a.level,) if a.level is not None else ())


def _fact_values(a, f):
    if isinstance(a, AtemporalAtom):
        return f.args
    if isinstance(a, ObservationAtom):
        return f.args + (f.t,)
    iv = a.interval
    ends = (f.interval,) if isinstance(iv, Var) else (f.interval.start, f.interval.end)
    return f.args + ends + ((f.level,) if a.level is not None else ())


def _all_facts(a, dataset, events):
    if isinstance(a, AtemporalAtom):
        return [f for f in dataset.facts if isinstance(f, AtemporalFact) and f.pred == a.pred]
    if isinstance(a, ObservationAtom):
        return [f for f in dataset.facts if isinstance(f, ObservationFact) and f.pred == a.pred]
    return [f for f in events if f.pred == a.pred]


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


# ---------------------------------------------------------------------------
# Tests, sorts, forced binders and witnesses against a nested-loop reference

SORTED_VALUES = ("x", 0, 1)
SORTS = {"X": SortKind.DATA, "Y": SortKind.DATA, "T": SortKind.NAT, "U": SortKind.NAT,
         "E": SortKind.NAT_OR_STAR, "L": SortKind.POSNAT, "I": SortKind.INTERVAL,
         "J": SortKind.INTERVAL}


def sorted_facts(rng):
    """Facts whose values some sorts must reject: symbols where a NAT
    variable may bind, and level 0 where a POSNAT variable may bind."""
    dataset, _ = random_facts(rng)
    dataset = Dataset(list(dataset.facts) + [
        AtemporalFact("a", (rng.choice(SORTED_VALUES),)) for _ in range(rng.randint(0, 3))])
    events = []
    for _ in range(rng.randint(0, 16)):
        pred = rng.choice(("p", "q"))
        start = rng.randrange(3)
        end = STAR if rng.random() < 0.2 else start + rng.randrange(2)
        args = tuple(rng.choice(SORTED_VALUES) for _ in range(ARITY[pred]))
        level = rng.choice((0, 1, 1, 2))
        events.append(AnnotatedEventFact(pred, args, Interval(start, end), level))
    return dataset, list(dict.fromkeys(events))


def sorted_body(rng):
    """One to three positive atoms (a variable may repeat inside one, and a
    NAT variable may sit at a data position), then tests over the variables
    they bind: comparisons with naturals and `*`, Allen tests, start/end
    tests and negated atoms, some of them negated."""
    sorts = dict(SORTS)
    fresh = itertools.count()

    def wild(sort):
        name = f"_{next(fresh)}"
        sorts[name] = sort
        return Var(name)

    def data():
        r = rng.random()
        if r < 0.6:
            return Var(rng.choice(("X", "Y", "X", "Y", "T")))
        if r < 0.75:
            return Const(rng.choice(("x", "y")))
        if r < 0.9:
            return Nat(rng.choice((0, 1)))
        return wild(SortKind.DATA)

    def atom(pred):
        args = tuple(data() for _ in range(ARITY[pred]))
        if len(args) == 2 and rng.random() < 0.25:
            args = (args[0], args[0])
        if pred in ("a", "b"):
            return AtemporalAtom(pred, args)
        if pred == "o":
            return ObservationAtom(pred, args, Var(rng.choice(("T", "U"))))
        r = rng.random()
        if r < 0.3:
            interval = Var(rng.choice(("I", "J")))
        else:
            lo = rng.choice((Var("T"), Var("U"), wild(SortKind.NAT), Nat(1)))
            hi = rng.choice((Var("T"), Var("E"), wild(SortKind.NAT_OR_STAR), StarTerm()))
            interval = IntervalTerm(lo, hi)
        if rng.random() < 0.3:
            return EventAtom(pred, args, interval)
        return EventAtom(pred, args, interval,
                         rng.choice((Var("L"), wild(SortKind.POSNAT), Nat(1))))

    body = [Literal(atom(rng.choice(tuple(ARITY)))) for _ in range(rng.choice((1, 2, 2, 3)))]
    bound = {v.name for lit in body for t in _atom_terms(lit.atom) for v in term_vars(t)}
    have = lambda *names: [Var(n) for n in names if n in bound]
    named = lambda term: not any(v.is_wildcard for v in term_vars(term))
    # event atoms of the body, so that tests often name their instances and intervals
    hosts = [lit.atom for lit in body if isinstance(lit.atom, EventAtom)
             and all(map(named, lit.atom.args))]
    for _ in range(rng.randint(0, 3)):
        kind = rng.random()
        if kind < 0.35:
            op = rng.choice(("<", "<=", "!="))
            pool = have("T", "U", "E") + [Nat(rng.randrange(4)), StarTerm()]
            if op == "!=":
                pool += have("X", "Y") + [Const("x")]
            body.append(Literal(Comparison(op, rng.choice(pool), rng.choice(pool))))
        elif kind < 0.55:
            pool = have("I", "J") + [a.interval for a in hosts if named(a.interval)]
            if pool:
                first = rng.choice(pool)
                second = first if rng.random() < 0.4 else rng.choice(pool)
                name = "equals" if second is first else rng.choice(ALLEN_BUILTINS)
                body.append(Literal(AllenTest(name, first, second), rng.random() < 0.2))
        elif kind < 0.75:
            name = rng.choice(("start", "end"))
            points = have("T", "U") + (have("E") if name == "end" else [])
            if hosts and rng.random() < 0.7:
                host = rng.choice(hosts)
                pred, args, iv = host.pred, host.args, host.interval
                if isinstance(iv, IntervalTerm):
                    end = iv.lo if name == "start" else iv.hi
                    points = [end] if isinstance(end, Var) and named(end) else points
            else:
                pred = rng.choice(("p", "q"))
                args = tuple(rng.choice(have("X", "Y") + [Const("x"), Nat(1)])
                             for _ in range(ARITY[pred]))
            if points:
                body.append(Literal(ExtremumTest(name, pred, args, rng.choice(points)),
                                    rng.random() < 0.2))
        else:
            neg = atom(rng.choice(tuple(ARITY)))
            names = {v.name for t in _atom_terms(neg) for v in term_vars(t)}
            if names <= bound | {n for n in names if n.startswith("_")}:
                body.append(Literal(neg, negated=True))
    rng.shuffle(body)
    return tuple(body), sorts


def _accepts_ref(sort, v):
    if sort is SortKind.INTERVAL:
        return isinstance(v, Interval)
    if sort is SortKind.DATA:
        return type(v) in (str, int)
    if sort is SortKind.NAT_OR_STAR and v == STAR:
        return True
    return type(v) is int and v >= (1 if sort is SortKind.POSNAT else 0)


def _unify_sorted(a, f, binding, sorts):
    for term, value in zip(_atom_terms(a), _fact_values(a, f)):
        if isinstance(term, Var):
            if term.name in binding:
                if binding[term.name] != value:
                    return False
            elif _accepts_ref(sorts[term.name], value):
                binding[term.name] = value
            else:
                return False
        elif isinstance(term, Const):
            if term.name != value:
                return False
        elif isinstance(term, StarTerm):
            if value != STAR:
                return False
        elif type(value) is not int or term.value != value:
            return False
    return True


def _value(term, binding):
    if isinstance(term, Var):
        return binding[term.name]
    if isinstance(term, IntervalTerm):
        lo, hi = _value(term.lo, binding), _value(term.hi, binding)
        return None if hi < lo else Interval(lo, hi)
    return {Const: lambda: term.name, Nat: lambda: term.value, StarTerm: lambda: STAR}[
        type(term)]()


def _holds(lit, binding, dataset, events, sorts):
    a = lit.atom
    if isinstance(a, Comparison):
        lhs, rhs = _value(a.lhs, binding), _value(a.rhs, binding)
        result = lhs != rhs if a.op == "!=" else lhs < rhs if a.op == "<" else lhs <= rhs
    elif isinstance(a, AllenTest):
        i, j = _value(a.a, binding), _value(a.b, binding)
        result = i is not None and j is not None and allen_relation(i, j) == a.name
    elif isinstance(a, ExtremumTest):
        args = tuple(_value(x, binding) for x in a.args)
        held = [f.interval for f in events if f.pred == a.pred and f.args == args]
        if not held:
            result = False
        elif a.name == "start":
            result = min(i.start for i in held) == _value(a.t, binding)
        else:
            result = max(i.end for i in held) == _value(a.t, binding)
    else:
        result = any(_unify_sorted(a, f, dict(binding), sorts)
                     for f in _all_facts(a, dataset, events))
    return result != lit.negated


def sorted_nested_loop_eval(body, sorts, dataset, events, delta=None):
    """(binding, matched event facts) for every combination of one fact per
    positive atom (the forced atom's from `delta`) that unifies in body
    order, checking each variable's sort where it binds, and passes every
    test."""
    pos = [(i, lit.atom) for i, lit in enumerate(body)
           if not lit.negated and not isinstance(lit.atom, (Comparison, AllenTest, ExtremumTest))]
    tests = [lit for lit in body if lit.negated or isinstance(
        lit.atom, (Comparison, AllenTest, ExtremumTest))]
    forced_idx, forced = delta if delta is not None else (None, None)
    out = []
    for combo in itertools.product(*(forced if i == forced_idx else
                                      _all_facts(a, dataset, events) for i, a in pos)):
        b = {}
        if not all(_unify_sorted(a, f, b, sorts) for (_, a), f in zip(pos, combo)):
            continue
        if all(_holds(lit, b, dataset, events, sorts) for lit in tests):
            out.append((b, tuple(f for f in combo if isinstance(f, AnnotatedEventFact))))
    return out


def _witnessed(results):
    return Counter((frozenset(b.items()), tuple(sorted(m, key=fact_key))) for b, m in results)


def test_compiled_plans_match_nested_loop_reference_on_tests_and_sorts():
    rng = random.Random(19)
    reached, forced_runs = Counter(), 0  # kinds of literal in bodies with results
    for _ in range(1000):
        dataset, events = sorted_facts(rng)
        body, sorts = sorted_body(rng)
        delta = None
        if rng.random() < 0.4:
            idx = rng.choice([i for i, lit in enumerate(body) if not lit.negated and isinstance(
                lit.atom, (AtemporalAtom, ObservationAtom, EventAtom))])
            facts = _all_facts(body[idx].atom, dataset, events)
            delta = (idx, rng.sample(facts, rng.randint(0, len(facts))))
            forced_runs += 1
        want = sorted_nested_loop_eval(body, sorts, dataset, events, delta)
        got = eval_body(body, sorts, dataset, events, delta=delta, witnesses=True)
        assert _witnessed(got) == _witnessed(want), body
        plain = eval_body(body, sorts, dataset, events, delta=delta)
        assert Counter(frozenset(b.items()) for b in plain) == \
            Counter(frozenset(b.items()) for b, _ in want), body
        if want:
            reached.update({"any", *(type(lit.atom) if not lit.negated else "not"
                                     for lit in body)})
    assert reached["any"] > 150 and forced_runs > 300
    assert min(reached[k] for k in (Comparison, AllenTest, ExtremumTest, "not")) >= 5


def test_event_store_index_follows_later_adds():
    first = row_of(AnnotatedEventFact("q", ("a", "b"), Interval(0, 1), 1))
    store = EventStore([first])
    assert list(store.probe("q", (1,), ("b",))) == [first]  # builds the index
    late = row_of(AnnotatedEventFact("q", ("c", "b"), Interval(2, 3), 1))
    store.add_all([late])
    assert list(store.probe("q", (1,), ("b",))) == [first, late]
    assert list(store.probe("q", (0, 1), ("c", "b"))) == [late]
    assert not store.probe("q", (0,), ("zz",))


# ---------------------------------------------------------------------------
# Grounding's per-instance groups against literal filters over random heads


def test_aux_store_grouping_matches_filters():
    """Ground heads drawn at random, among them repeats and one timepoint
    at several levels: grounding groups each by its instance, and the
    keys, window values and each level's view of each side equal literal
    filters over the drawn heads."""
    rng = random.Random(11)
    keys = [("e", ("a",)), ("e", ("b",)), ("f", ("a",)), ("f", (1,)), ("g", ())]
    # a window rule per predicate that derives nothing, as parsing wants one
    decls = ["decl nonpersistent e/1.", "decl nonpersistent f/1.", "decl nonpersistent g/0.",
             "decl atemporal never/1.", "window(e(X), 1) :- never(X).",
             "window(f(X), 1) :- never(X).", "window(g, 1) :- never(X)."]
    for _ in range(300):
        exists = [(rng.choice(keys), rng.randrange(8), rng.randint(1, 3))
                  for _ in range(rng.randint(0, 12))]
        ends = [(rng.choice(keys), rng.randrange(8), rng.randint(1, 3))
                for _ in range(rng.randint(0, 6))]
        windows = [(rng.choice(keys), rng.randint(1, 4)) for _ in range(rng.randint(0, 4))]
        defaults = [(rng.choice("efg"), rng.randint(1, 4)) for _ in range(rng.randint(0, 2))]
        rules = ([f"exists({format_instance(*k)}, {t}, {lvl})." for k, t, lvl in exists]
                 + [f"ends({format_instance(*k)}, {t}, {lvl})." for k, t, lvl in ends]
                 + [f"window({format_instance(*k)}, {w})." for k, w in windows]
                 + [f"window({p}{'' if p == 'g' else '(X)'}, {w})." for p, w in defaults])
        aux = ground_simple_heads(parse_tes("\n".join(decls + rules)), Dataset([]))
        assert aux.keys() == sorted({k for k, _, _ in exists},
                                    key=lambda k: (k[0], args_key(k[1])))
        for groups, heads in ((aux.exists, exists), (aux.ends, ends)):
            assert groups == {key: {(t, lvl) for k, t, lvl in heads if k == key}
                              for key in {k for k, _, _ in heads}}
        for key in keys:
            assert window_values(aux, key) == sorted(
                {w for k, w in windows if k == key}
                | {w for p, w in defaults if p == key[0]})
            tp = aux.exists.get(key, ()), aux.ends.get(key, ())
            assert max_level(tp) == max((lvl for k, _, lvl in exists + ends if k == key),
                                        default=0)
            for lvl in range(1, 4):
                for side, heads in zip(tp, (exists, ends)):
                    assert points_at(side, lvl) == tuple(
                        sorted({t for k, t, l in heads if k == key and l <= lvl}))
