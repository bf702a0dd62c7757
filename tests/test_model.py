"""Core value model: intervals, the ongoing marker, terms, facts, stores, and
the value contract of the slotted classes."""

import os
import pickle
import random
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from timeloom import (
    STAR,
    AnnotatedEventFact,
    AtemporalFact,
    Dataset,
    EventStore,
    Interval,
    InvalidInterval,
    ObservationFact,
    SortError,
    UnboundVariable,
    allen_relation,
    parse_tes,
    repairs,
    timeline,
)
from timeloom.language import EventAtom, Literal
from timeloom.model import (
    Const,
    FnApp,
    IntervalFn,
    IntervalTerm,
    Nat,
    StarTerm,
    Var,
    eval_term,
    fact_key,
    fact_row,
)

from oracle import reference_fact_key


def test_interval_validation():
    assert Interval(2, 5).end == 5
    assert Interval(3, 3).start == 3
    assert Interval(0, STAR).ongoing
    with pytest.raises(InvalidInterval):
        Interval(-1, 2)
    with pytest.raises(InvalidInterval):
        Interval(4, 2)
    with pytest.raises(InvalidInterval):
        Interval(True, 2)
    with pytest.raises(InvalidInterval):
        Interval(0, -3)
    with pytest.raises(InvalidInterval):
        Interval(0, 1.5)
    with pytest.raises(InvalidInterval):
        Interval(STAR, STAR)


def test_star_ordering():
    assert STAR > 5
    assert STAR >= 5
    assert not STAR < 5
    assert not STAR <= 5
    assert STAR >= STAR
    assert STAR <= STAR
    assert not STAR > STAR
    assert max(3, STAR) == STAR
    assert min(3, STAR) == 3


def test_ongoing_interval_pickles_and_prints_star():
    iv = pickle.loads(pickle.dumps(Interval(1, STAR)))
    assert iv == Interval(1, STAR) and iv.ongoing
    assert hash(iv) == hash(Interval(1, STAR))
    assert repr(iv) == "[1,*]" and repr(Interval(1, 4)) == "[1,4]"


def test_interval_intersect():
    assert Interval(2, STAR).intersect(Interval(5, 9)) == Interval(5, 9)
    assert Interval(1, 3).intersect(Interval(5, 9)) is None
    assert Interval(1, STAR).intersect(Interval(4, STAR)) == Interval(4, STAR)
    assert Interval(1, 4).intersect(Interval(4, 9)) == Interval(4, 4)


ALLEN_INVERSE = {
    "before": "after", "meets": "met_by", "overlaps": "overlapped_by",
    "starts": "started_by", "during": "contains", "finishes": "finished_by",
    "equals": "equals",
}
ALLEN_INVERSE.update({v: k for k, v in ALLEN_INVERSE.items()})


def test_allen_relation_examples():
    assert allen_relation(Interval(1, 2), Interval(3, 4)) == "before"
    assert allen_relation(Interval(1, 3), Interval(3, 5)) == "meets"
    assert allen_relation(Interval(1, 4), Interval(2, 6)) == "overlaps"
    assert allen_relation(Interval(1, 2), Interval(1, 5)) == "starts"
    assert allen_relation(Interval(2, 3), Interval(1, 5)) == "during"
    assert allen_relation(Interval(3, 5), Interval(1, 5)) == "finishes"
    assert allen_relation(Interval(2, 4), Interval(2, 4)) == "equals"
    assert allen_relation(Interval(1, 6), Interval(2, 4)) == "contains"
    assert allen_relation(Interval(1, STAR), Interval(2, 5)) == "contains"
    assert allen_relation(Interval(2, 5), Interval(1, STAR)) == "during"
    assert allen_relation(Interval(1, STAR), Interval(1, STAR)) == "equals"
    assert allen_relation(Interval(1, STAR), Interval(1, 5)) == "started_by"


endpoints = st.integers(min_value=0, max_value=8)


@st.composite
def intervals(draw):
    start = draw(endpoints)
    if draw(st.booleans()):
        return Interval(start, STAR)
    return Interval(start, start + draw(st.integers(min_value=0, max_value=6)))


@given(intervals(), intervals())
def test_allen_relation_total_and_invertible(a, b):
    r = allen_relation(a, b)
    assert r in ALLEN_INVERSE
    assert allen_relation(b, a) == ALLEN_INVERSE[r]


@given(intervals(), intervals())
def test_allen_relation_unique(a, b):
    # exactly one relation holds: equal intervals give equals, nothing else
    r = allen_relation(a, b)
    if a == b:
        assert r == "equals"
    else:
        assert r != "equals"


def test_eval_term_basics():
    assert eval_term(Const("amox"), {}) == "amox"
    assert eval_term(Nat(7), {}) == 7
    assert eval_term(StarTerm(), {}) == STAR
    assert eval_term(Var("T"), {"T": 4}) == 4
    with pytest.raises(UnboundVariable):
        eval_term(Var("T"), {})


def test_eval_term_arithmetic():
    assert eval_term(FnApp("plus", (Nat(2), Nat(3))), {}) == 5
    assert eval_term(FnApp("minus", (Nat(5), Nat(2))), {}) == 3
    # subtraction clamps at zero: timepoints are naturals
    assert eval_term(FnApp("minus", (Nat(2), Nat(5))), {}) == 0
    assert eval_term(FnApp("max", (Nat(3), StarTerm())), {}) == STAR
    assert eval_term(FnApp("min", (Nat(3), StarTerm())), {}) == 3
    with pytest.raises(SortError):
        eval_term(FnApp("plus", (Nat(1), StarTerm())), {})
    with pytest.raises(SortError):
        eval_term(FnApp("min", (Nat(1), Const("x"))), {})


def test_eval_term_intervals():
    assert eval_term(IntervalTerm(Nat(1), Nat(4)), {}) == Interval(1, 4)
    assert eval_term(IntervalTerm(Nat(4), Nat(1)), {}) is None
    assert eval_term(IntervalTerm(Nat(1), StarTerm()), {}) == Interval(1, STAR)
    with pytest.raises(SortError):
        eval_term(IntervalTerm(StarTerm(), Nat(3)), {})
    with pytest.raises(SortError):
        eval_term(IntervalTerm(Const("a"), Nat(3)), {})
    i = IntervalFn((IntervalTerm(Nat(1), Nat(6)), IntervalTerm(Nat(4), Nat(9))))
    assert eval_term(i, {}) == Interval(4, 6)
    empty = IntervalFn((IntervalTerm(Nat(1), Nat(2)), IntervalTerm(Nat(5), Nat(9))))
    assert eval_term(empty, {}) is None
    with pytest.raises(SortError):
        eval_term(IntervalFn((Nat(3),)), {})


def test_fact_key_total_order():
    facts = [
        AnnotatedEventFact("a", (), Interval(0, 1), 1),
        ObservationFact("a", (), 0),
        AtemporalFact("a", ()),
    ]
    assert sorted(facts, key=fact_key) == list(reversed(facts))
    # ints order before symbols in argument positions
    assert fact_key(AtemporalFact("p", (2,))) < fact_key(AtemporalFact("p", ("b",)))
    assert fact_key(AnnotatedEventFact("a", (), Interval(0, 1), 1)) < fact_key(
        AnnotatedEventFact("a", (), Interval(0, 1), 2))


def test_fact_key_agrees_with_the_reference_key():
    # fact_key tells an event fact by its class and keys its arguments in
    # one list comprehension; its keys, so its order, must be those of the
    # definition kept in oracle.py, over facts of all three kinds whose
    # arguments mix symbols (digit ones among them) and naturals
    rng = random.Random(43)
    values = ("", "a", "b", "7", "10", 0, 7, 10, 2 ** 70)
    kinds = {AtemporalFact: 0, ObservationFact: 0, AnnotatedEventFact: 0, "mixed": 0}
    for _ in range(300):
        facts = []
        for _ in range(rng.randrange(2, 15)):
            pred, args = rng.choice("pq"), tuple(rng.choices(values, k=rng.randrange(4)))
            kind = rng.choice(list(kinds)[:3])
            kinds[kind] += 1
            kinds["mixed"] += len({type(a) for a in args}) == 2
            if kind is AtemporalFact:
                facts.append(AtemporalFact(pred, args))
            elif kind is ObservationFact:
                facts.append(ObservationFact(pred, args, rng.randrange(4)))
            else:
                start = rng.randrange(4)
                facts.append(AnnotatedEventFact(pred, args, Interval(
                    start, rng.choice((STAR, start, start + 2))), rng.randint(1, 3)))
        assert list(map(fact_key, facts)) == list(map(reference_fact_key, facts))
        assert sorted(facts, key=fact_key) == sorted(facts, key=reference_fact_key)
    assert min(kinds.values()) > 300, kinds


def test_interval_key_orders_ongoing_last():
    # fact_key orders intervals by start, then end, with ongoing ends last
    ivs = [Interval(1, STAR), Interval(1, 5), Interval(0, 2)]
    facts = [AnnotatedEventFact("a", (), iv, 1) for iv in ivs]
    assert [f.interval for f in sorted(facts, key=fact_key)] == [
        Interval(0, 2), Interval(1, 5), Interval(1, STAR)]


def test_dataset_dedups_and_rejects_events():
    obs = ObservationFact("adm", ("p1",), 5)
    d = Dataset([obs, obs, AtemporalFact("drug", ("amox",))])
    assert len(d) == 2
    assert obs in d
    assert list(d.probe(ObservationFact, "adm", (), ())) == [("p1", 5)]  # the rows
    assert list(d.probe(AtemporalFact, "none", (), ())) == []
    with pytest.raises(TypeError):
        Dataset([AnnotatedEventFact("e", (), Interval(0, 1), 1)])


def test_event_store():
    f1 = AnnotatedEventFact("e", ("a",), Interval(0, 2), 1)
    f2 = AnnotatedEventFact("e", ("b",), Interval(1, 3), 2)
    s = EventStore([f1])
    assert s.add(f2)
    assert not s.add(f1)
    assert s.add_all([f1, f2]) == []
    assert set(s.probe("e", (), ())) == {f1, f2}
    assert s.by_key("e", ("a",)) == (f1,)
    assert len(s) == 2 and f1 in s


def _positions(rng, n):
    return tuple(sorted(rng.sample(range(n), rng.randint(0, n))))


def test_dataset_probe_matches_filters_and_keeps_kinds_apart():
    """Atemporal and observation facts share predicate names, at other
    arities; each probe finds exactly the rows of the facts of its kind a
    literal filter over `facts` finds, in first-seen order."""
    rng = random.Random(23)
    values = ("a", "b", 0, 1)
    arity = {(AtemporalFact, "p"): 2, (ObservationFact, "p"): 1,
             (AtemporalFact, "q"): 0, (ObservationFact, "q"): 3}
    for _ in range(300):
        drawn = []
        for _ in range(rng.randint(0, 25)):
            kind, pred = rng.choice(list(arity))
            args = tuple(rng.choice(values) for _ in range(arity[kind, pred]))
            drawn.append(AtemporalFact(pred, args) if kind is AtemporalFact
                         else ObservationFact(pred, args, rng.randrange(3)))
        d = Dataset(drawn)
        assert d.facts == set(drawn) and len(d) == len(d.facts)
        seen = list(dict.fromkeys(drawn))
        for _ in range(10):
            kind, pred = rng.choice(list(arity))
            positions = _positions(rng, arity[kind, pred])
            key = tuple(rng.choice(values) for _ in positions)
            want = [f for f in seen if f.__class__ is kind and f.pred == pred
                    and all(f.args[i] == v for i, v in zip(positions, key))]
            assert list(d.probe(kind, pred, positions, key)) == [fact_row(f) for f in want]
            assert set(want) <= d.facts


def test_event_store_probe_and_by_key_follow_adds():
    """After interleaved adds and index-building probes, `probe` and
    `by_key` find exactly what literal filters find, in first-seen order."""
    rng = random.Random(31)
    values = ("a", "b", 0)
    arity = {"e": 2, "f": 1, "g": 0}

    def fact():
        pred = rng.choice(list(arity))
        lo = rng.randrange(4)
        return AnnotatedEventFact(pred, tuple(rng.choice(values) for _ in range(arity[pred])),
                                  Interval(lo, rng.choice([lo + rng.randrange(3), STAR])),
                                  rng.randint(1, 2))

    for _ in range(100):
        first = [fact() for _ in range(rng.randint(0, 5))]
        store, held = EventStore(first), list(dict.fromkeys(first))
        for _ in range(40):
            if rng.random() < 0.4:
                f = fact()
                assert store.add(f) == (f not in held)
                if f not in held:
                    held.append(f)
            else:
                pred = rng.choice(list(arity))
                n = arity[pred]
                positions = _positions(rng, n + 2)
                key = tuple(rng.choice(values + (1, 2, 3, STAR)) if i >= n
                            else rng.choice(values) for i in positions)
                vals = {f: f.args + (f.interval.start, f.interval.end) for f in held}
                want = [f for f in held if f.pred == pred
                        and all(vals[f][i] == v for i, v in zip(positions, key))]
                assert list(store.probe(pred, positions, key)) == want
                args = tuple(rng.choice(values) for _ in range(n))
                assert store.by_key(pred, args) == tuple(
                    f for f in held if f.pred == pred and f.args == args)
        assert store.facts == set(held) and len(store) == len(held)


# ---------------------------------------------------------------------------
# The value contract of the slotted classes


RULES = ("decl observation seen/1.\ndecl observation stop/1.\ndecl persistent e/1.\n"
         "decl meta m/1.\nexists_pers(e(P), T, 1) :- seen(P, T).\n"
         "ends(e(P), T, 2) :- stop(P, T).\nmeta m(P, I, L) :- e(P, I, L).\n"
         "constraint :- e(P, [T1, T2]), m(P, [T1, T2]), T2 < T1.\n")
FACTS = [AtemporalFact("ab", ("amox",)), ObservationFact("adm", ("p1", 2), 5),
         AnnotatedEventFact("e", ("p1",), Interval(3, STAR), 1)]
TERMS = [Const("a"), Nat(2), Var("X"), StarTerm(), FnApp("min", (Var("L"), Nat(2))),
         IntervalTerm(Var("T"), StarTerm()), IntervalFn((Var("I"), Var("J")))]


def test_values_are_equal_only_to_their_own_kind():
    assert Const("a") != Var("a") and Nat(1) != 1 and StarTerm() == StarTerm()
    assert Interval(1, 2) != (1, 2) and Interval(1, 2) == Interval(1, 2)
    for f in FACTS:
        assert f != tuple(getattr(f, name) for name in f._fields)
        twin = type(f)(*(getattr(f, name) for name in f._fields))
        assert twin == f and hash(twin) == hash(f) and twin is not f
    assert AtemporalFact("e", ("p1",)) != ObservationFact("e", ("p1",), 0)
    assert len({Const("a"), Var("a"), Nat(1), 1}) == 4


def test_values_with_equal_hashes_compare_their_fields():
    # ints hash modulo 2**61 - 1, so these pairs collide; equality must
    # still read every field after the stored hashes agree
    big = 2 ** 61 - 1
    pairs = [(Interval(0, 5), Interval(big, big + 5)),
             (AnnotatedEventFact("e", (0,), Interval(0, 1), 1),
              AnnotatedEventFact("e", (big,), Interval(0, 1), 1)),
             (AtemporalFact("a", (0,)), AtemporalFact("a", (big,))),
             (ObservationFact("o", (), 0), ObservationFact("o", (), big))]
    for a, b in pairs:
        assert hash(a) == hash(b) and a != b and not a == b
        assert len({a, b}) == 2 and b not in {a}
    assert AtemporalFact("e", ()) != ObservationFact("e", (), 0) != AtemporalFact("e", ())
    assert Interval(0, 5).__eq__((0, 5)) is NotImplemented


def test_rule_line_and_sorts_stay_out_of_equality():
    rule = parse_tes(RULES).existence[0]
    moved = rule._replace(line=rule.line + 7, var_sorts={})
    assert moved == rule and hash(moved) == hash(rule)
    assert moved.line == rule.line + 7 and moved.var_sorts == {} != rule.var_sorts
    assert rule._replace(level=2) != rule


def test_values_have_no_order_and_refuse_assignment():
    for a, b in ((Interval(1, 2), Interval(3, 4)), (Const("a"), Const("b")),
                 (FACTS[0], FACTS[0]), (FACTS[2], FACTS[2])):
        with pytest.raises(TypeError):
            a < b
    for value, name in ((Interval(1, 2), "end"), (FACTS[2], "level"), (Var("X"), "name"),
                        (parse_tes(RULES).existence[0], "line")):
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        with pytest.raises(AttributeError):
            delattr(value, name)
        with pytest.raises(AttributeError):
            value.other = 0


def test_constructors_take_keywords_and_defaults():
    atom = EventAtom("e", (Var("P"),), Var("I"))
    assert atom.level is None and Literal(atom) == Literal(atom=atom, negated=False)
    assert EventAtom(pred="e", args=(), interval=Var("I"), level=Nat(1)).level == Nat(1)
    assert AnnotatedEventFact(pred="e", args=(), interval=Interval(0, 1), level=1) == \
        AnnotatedEventFact("e", (), Interval(0, 1), 1)
    for call in (lambda: Const(), lambda: Const("a", "b"), lambda: Const(nom="a"),
                 lambda: Const("a", name="b"), lambda: Var("X")._replace(nom="Y")):
        with pytest.raises(TypeError):
            call()
    with pytest.raises(InvalidInterval):
        Interval(2, 5)._replace(end=1)


def test_values_survive_pickling():
    tes = parse_tes(RULES)
    data = Dataset([ObservationFact("seen", ("p1",), 0), ObservationFact("stop", ("p1",), 4)])
    rep = repairs(data, tes)
    result = timeline(data, tes, "consistent")
    assert len(rep.repairs) == 2 and len(result.models) == 2
    rules = tes.existence + tes.termination + tes.meta_rules + tes.constraints
    for value in [*FACTS, Interval(0, 4), *TERMS, *rules, rep, result]:
        clone = pickle.loads(pickle.dumps(value))
        assert clone == value and type(clone) is type(value)
        assert hash(clone) == hash(value)
    assert [r.var_sorts for r in pickle.loads(pickle.dumps(rules))] == \
        [r.var_sorts for r in rules]


def test_unpickled_facts_hash_under_another_hash_seed():
    # stored hashes are rebuilt by the constructor, not carried in the pickle
    code = ("import pickle, sys; from timeloom import AnnotatedEventFact, Interval, STAR\n"
            "f = pickle.loads(sys.stdin.buffer.read())\n"
            "print(f in {AnnotatedEventFact('e', ('p1',), Interval(3, STAR), 1)})")
    outs = {subprocess.run([sys.executable, "-c", code], input=pickle.dumps(FACTS[2]),
                           capture_output=True, check=True,
                           env={**os.environ, "PYTHONHASHSEED": seed}).stdout
            for seed in ("1", "2")}
    assert outs == {b"True\n"}


def test_repr_keeps_the_dataclass_format():
    assert repr(FACTS[2]) == \
        "AnnotatedEventFact(pred='e', args=('p1',), interval=[3,*], level=1)"
    assert repr(FACTS[1]) == "ObservationFact(pred='adm', args=('p1', 2), t=5)"
    assert repr(TERMS[4]) == "FnApp(fn='min', args=(Var(name='L'), Nat(value=2)))"
    assert repr(StarTerm()) == "StarTerm()"
    tes = parse_tes("decl observation adm/2.\ndecl persistent e/1.\n"
                    "exists_pers(e(P), T, 1) :- adm(P, D, T), D != 'x'.\n")
    assert repr(tes.existence[0]) == (
        "PointRule(pred='e', args=(Var(name='P'),), t=Var(name='T'), level=1, "
        "body=(Literal(atom=ObservationAtom(pred='adm', args=(Var(name='P'), Var(name='D')), "
        "t=Var(name='T')), negated=False), Literal(atom=Comparison(op='!=', lhs=Var(name='D'), "
        "rhs=Const(name='x')), negated=False)), line=3, var_sorts={'P': <SortKind.DATA: "
        "'data'>, 'T': <SortKind.NAT: 'nat'>, 'D': <SortKind.DATA: 'data'>})")
