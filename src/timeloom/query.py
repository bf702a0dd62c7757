"""Rule body evaluation over datasets and event stores.

Bodies are conjunctions of positive binder atoms plus tests (comparisons,
negated atoms, interval builtins). Each body compiles once into a join plan
over a slot array, one slot per variable. Evaluation expands the binder
with the fewest candidates under the slots bound so far, and fires each
test as soon as its variables are bound.

`ground_simple_heads` evaluates the existence, termination and window
rules this way, and adds each head to its event instance's group as it is
derived; the interval walk reads those groups directly.
"""

from __future__ import annotations

from functools import partial
from operator import eq, itemgetter
from typing import Callable, Mapping

from .errors import SortError
from .language import (
    BUILTIN_ATOMS,
    AllenTest,
    AtemporalAtom,
    Comparison,
    EventAtom,
    ExtremumTest,
    Literal,
    ObservationAtom,
    TES,
    atom_terms,
    head_positions,
    is_schematic_window,
    is_test,
)
from .model import (
    STAR,
    AnnotatedEventFact,
    AtemporalFact,
    Dataset,
    EventStore,
    IntervalTerm,
    Nat,
    ObservationFact,
    Record,
    SortKind,
    StarTerm,
    Var,
    allen,
    args_key,
    compile_term,
    eval_term,
    event_values,
    term_vars,
    variable_ends,
)

EventKey = tuple[str, tuple]

# the check a variable's sort makes of a value before it is bound (a plain
# symbol, the commonest data value, is accepted without a call)
_SORT_CHECKS = {
    SortKind.DATA: lambda v: v.__class__ is str or (isinstance(v, (str, int))
                                                    and not isinstance(v, bool)),
    SortKind.NAT: lambda v: isinstance(v, int) and v >= 0,
    SortKind.POSNAT: lambda v: isinstance(v, int) and v >= 1,
    SortKind.NAT_OR_STAR: lambda v: v == STAR or (isinstance(v, int) and v >= 0),
    SortKind.INTERVAL: lambda v: v.__class__ is tuple,  # a (start, end) pair
}


def _positions(atom) -> tuple[type, list]:
    """The kind of fact an atom matches, and each of its terms beside the
    position it matches: in a dataset row (`fact_row`), or in an event
    row's `event_values`. The terms are variables and constants, in the
    order of the atom's variables."""
    n = len(atom.args)
    pairs = list(enumerate(atom.args))
    if isinstance(atom, AtemporalAtom):
        return AtemporalFact, pairs
    if isinstance(atom, ObservationAtom):
        return ObservationFact, pairs + [(n, atom.t)]
    if not isinstance(atom, EventAtom):
        raise TypeError(f"not a matchable atom: {atom!r}")
    iv = atom.interval
    pairs += [(n + 3, iv)] if isinstance(iv, Var) else [(n, iv.lo), (n + 1, iv.hi)]
    if atom.level is not None:
        pairs.append((n + 2, atom.level))
    return AnnotatedEventFact, pairs


def _equals(term) -> Callable:
    """The check a constant, natural or `*` makes of a fact value."""
    if isinstance(term, Nat):
        return lambda v: not isinstance(v, bool) and v == term.value
    return partial(eq, STAR if isinstance(term, StarTerm) else term.name)


def _tuple_of(terms, slot_of: Mapping[str, int]) -> Callable:
    """A function from slots to the tuple of the terms' values."""
    at = [slot_of.get(t.name) if isinstance(t, Var) else None for t in terms]
    if None not in at:  # only variables with slots
        if len(at) > 1:
            return itemgetter(*at)
        if at:
            slot = at[0]
            return lambda slots: (slots[slot],)
        return lambda slots: ()
    fns = [compile_term(t, slot_of) for t in terms]
    return lambda slots: tuple([f(slots) for f in fns])


class _Match:
    """One atom compiled against a set of bound variables: the index probe
    its bound argument positions and interval ends allow, and, from
    `compile`, its match: one action per value position, which checks a
    constant, binds a slot after its sort's check, compares with a slot
    (bound earlier, or earlier in the atom), or puts the fact's interval in
    its interval term's slot. A dataset atom matches rows, which are their
    own values; an event atom matches event rows."""

    def __init__(self, atom, bound, slot_of: Mapping[str, int], sorts,
                 intervals: Mapping = {}, positioned: tuple | None = None):
        # `positioned`: the atom's `_positions`, when the caller has them,
        # with the fact's interval last where it has a slot in `intervals`
        self.kind, self._pairs = positioned or _positions(atom)
        self.pred = atom.pred
        probed = len(atom.args) + (2 if self.kind is AnnotatedEventFact else 0)
        positions, terms = [], []
        for i, t in self._pairs:
            if i < probed and (not isinstance(t, Var) or t.name in bound):
                positions.append(i)
                terms.append(t)
        self.positions = tuple(positions)
        self.key = _tuple_of(terms, slot_of)
        self._bound, self._slot_of, self._sorts, self._intervals = bound, slot_of, sorts, intervals

    def compile(self) -> Callable:
        """The match, a function of (dataset or event row, slots): whether
        the row matches, binding its fresh variables' slots."""
        checks, binds, sames = [], [], []
        values = event_values if self.kind is AnnotatedEventFact else None
        seen, slot_of = set(self._bound), self._slot_of
        for i, t in self._pairs:
            if t.__class__ is IntervalTerm:  # the fact's own interval, for the head
                binds.append((i, self._intervals[variable_ends(t)],
                              _SORT_CHECKS[SortKind.INTERVAL]))
            elif not isinstance(t, Var):
                checks.append((i, _equals(t)))
            elif t.name in seen:
                sames.append((i, slot_of[t.name]))
            else:
                seen.add(t.name)
                binds.append((i, slot_of[t.name],
                              _SORT_CHECKS[self._sorts.get(t.name, SortKind.DATA)]))

        def match(f, slots: list) -> bool:
            vals = f if values is None else values(f)
            for i, check in checks:
                if not check(vals[i]):
                    return False
            for i, slot, accepts in binds:
                v = vals[i]
                if not accepts(v):
                    return False
                slots[slot] = v
            for i, slot in sames:
                if slots[slot] != vals[i]:
                    return False
            return True
        return match

    def candidates(self, slots: list, dataset: Dataset, events: EventStore | None):
        """The dataset or event rows the probe finds; `match` still checks
        each one."""
        if self.kind is not AnnotatedEventFact:
            return dataset.probe(self.kind, self.pred, self.positions, self.key(slots))
        if events is None:
            return ()
        return events.probe(self.pred, self.positions, self.key(slots))


def _atom_vars(a) -> list[str]:
    """The variables of an atom in order of position."""
    return [v.name for t, _ in atom_terms(a) for v in term_vars(t)]


def _compare(op: str, lhs, rhs) -> bool:
    if op == "!=":
        return lhs != rhs
    if isinstance(lhs, str) or isinstance(rhs, str):
        raise SortError(f"ordering comparison over symbols: {lhs!r} {op} {rhs!r}")
    return lhs <= rhs if op == "<=" else lhs < rhs


def _test(lit: Literal, bound, slot_of: Mapping[str, int], sorts) -> Callable:
    """The test as a function of (slots, dataset, events), for when the
    variables in `bound` hold values."""
    a = lit.atom
    if isinstance(a, Comparison):
        lhs, rhs, op = compile_term(a.lhs, slot_of), compile_term(a.rhs, slot_of), a.op

        def holds(s, d, e):
            return _compare(op, lhs(s), rhs(s))
    elif isinstance(a, AllenTest):
        first, second, name = compile_term(a.a, slot_of), compile_term(a.b, slot_of), a.name

        def holds(s, d, e):
            ia, ib = first(s), second(s)
            return ia is not None and ib is not None and allen(ia, ib) == name
    elif isinstance(a, ExtremumTest):
        args, t = _tuple_of(a.args, slot_of), compile_term(a.t, slot_of)
        pred, start = a.pred, a.name == "start"

        def holds(s, d, e):
            facts = () if e is None else e.by_key(pred, args(s))
            if not facts:
                return False
            if start:
                return min([f[2] for f in facts]) == t(s)
            return max([f[3] for f in facts]) == t(s)
    else:
        m = _Match(a, bound, slot_of, sorts)
        match = m.compile()

        def holds(s, d, e):
            return any(match(f, s) for f in m.candidates(s, d, e))
    if lit.negated:
        return lambda s, d, e: not holds(s, d, e)
    return holds


class _Step(_Match):
    """Matching one more binder after a set of matched ones: the binder's
    `_Match` under the variables bound so far, its body index, the set of
    matched binders after it and whether it is an event atom. `take`, which
    its plan calls when it first takes the step, compiles `match` and
    `tests`, the tests whose variables the binder completes, in body
    order."""

    def __init__(self, plan: "JoinPlan", state: int, k: int, bound: frozenset):
        self.idx, atom, self._names, positioned = plan.binders[k]
        super().__init__(atom, bound, plan.slot_of, plan.sorts, plan.intervals, positioned)
        self.after, self.event = state | 1 << k, self.kind is AnnotatedEventFact
        self.match = self.tests = None

    def take(self, plan: "JoinPlan") -> None:
        bound, after = self._bound, self._bound | self._names
        self.tests = [_test(lit, after, plan.slot_of, plan.sorts)
                      for lit, need in plan.tests if need <= after and not need <= bound]
        self.match = self.compile()


class JoinPlan:
    """A body compiled for joins over slot arrays.

    `slot_of` gives each variable's slot; `names` are the binder variables,
    whose slots come first. Each positive event atom whose interval is a
    term of two variables, `[T1, T2]`, also has a slot, after them:
    `intervals` maps the pair of names to it. A match puts the row's own
    (start, end) pair there, for a head to read.
    The steps out of each set of matched binders (a bit mask) are made on
    first use, one `_Step` per remaining binder. A test reading a variable
    that no binder binds raises `SortError`.
    """

    def __init__(self, body: tuple[Literal, ...], sorts: Mapping[str, SortKind]):
        self.sorts = sorts
        # each binder: its body index, atom, variables and `_positions`
        self.binders: list[tuple[int, object, frozenset[str], tuple]] = []
        self.tests: list[tuple[Literal, frozenset[str]]] = []
        names: list[str] = []
        free: list[str] = []
        ends_seen = []  # the names of each event binder's [T1, T2], in order
        for idx, lit in enumerate(body):
            atom = lit.atom
            if not is_test(lit):
                kind, pairs = _positions(atom)
                atom_vars = [t.name for _, t in pairs if t.__class__ is Var]
                self.binders.append((idx, atom, frozenset(atom_vars), (kind, pairs)))
                names += atom_vars
                if kind is AnnotatedEventFact:
                    ends = variable_ends(atom.interval)
                    if ends is not None:
                        ends_seen.append(ends)
                        pairs.append((len(atom.args) + 3, atom.interval))
                continue
            atom_vars = _atom_vars(atom)
            free += atom_vars
            if not isinstance(atom, BUILTIN_ATOMS):  # a negated atom's wildcards stay free
                atom_vars = [n for n in atom_vars if not n.startswith("_")]
            self.tests.append((lit, frozenset(atom_vars)))
        self.names = list(dict.fromkeys(names))
        self.slot_of = {n: i for i, n in enumerate(dict.fromkeys(self.names + free))}
        self.intervals = {ends: len(self.slot_of) + i
                          for i, ends in enumerate(dict.fromkeys(ends_seen))}
        self.full = (1 << len(self.binders)) - 1
        bound = set(self.names)
        for _, need in self.tests:
            if not need <= bound:
                raise SortError("test with unbound variables after all binders")
        self.root_tests = [_test(lit, frozenset(), self.slot_of, sorts)
                           for lit, need in self.tests if not need]
        self._steps: dict[int, list[_Step]] = {}

    def steps(self, state: int) -> list[_Step]:
        """One `_Step` per binder outside `state`."""
        steps = self._steps.get(state)
        if steps is None:
            bound, rest = frozenset(), []
            for k, (_, _, names, _) in enumerate(self.binders):
                if state >> k & 1:
                    bound |= names
                else:
                    rest.append(k)
            steps = self._steps[state] = [_Step(self, state, k, bound) for k in rest]
        return steps

    def solve(self, dataset: Dataset, events: EventStore | None = None,
              delta: tuple | None = None, witnesses: bool = False) -> list:
        """Every binding that satisfies the body, each a tuple of slots (an
        empty ground body has one). `delta`, a (body index, candidates)
        pair, has that binder match only those candidates (a semi-naive
        step): event rows, or rows for a dataset atom. With `witnesses`,
        each result is a (slots, facts) pair: the event rows the positive
        event atoms matched, once per combination of them, as when an atom
        without a level matches an interval at several levels."""
        forced_idx, forced = delta if delta is not None else (None, None)
        slots: list = [None] * (len(self.slot_of) + len(self.intervals))
        out: list = []

        def run(state: int, matched: tuple) -> None:
            if state == self.full:  # only a body without binders gets here
                out.append((tuple(slots), matched) if witnesses else tuple(slots))
                return
            best, cands = None, None
            for step in self.steps(state):
                c = forced if step.idx == forced_idx else step.candidates(slots, dataset, events)
                if best is None or len(c) < len(cands):
                    best, cands = step, c
                    if not c:
                        return
            if best.match is None:
                best.take(self)
            match, tests, after = best.match, best.tests, best.after
            keep, last = witnesses and best.event, after == self.full
            for f in cands:
                if match(f, slots):
                    for t in tests:
                        if not t(slots, dataset, events):
                            break
                    else:
                        now = matched + (f,) if keep else matched
                        if not last:
                            run(after, now)
                        else:  # the last binder: emit here, saving a call per result
                            out.append((tuple(slots), now) if witnesses else tuple(slots))

        for t in self.root_tests:
            if not t(slots, dataset, events):
                return out
        run(0, ())
        return out


def rule_plan(tes: TES, rule) -> JoinPlan:
    """The join plan of a rule of `tes`, compiled once. Its head is compiled
    against the same slots: `args` gives the tuple of head arguments, and
    `head` the functions of the other head terms (see `head_positions`),
    which read a matched fact's interval where the plan keeps it."""
    hit = tes.plans.get(id(rule))
    if hit is None:  # the entry keeps the rule, so no other object takes its id
        plan = JoinPlan(rule.body, rule.var_sorts)
        args = getattr(rule, "args", ())
        plan.args = _tuple_of(args, plan.slot_of)
        plan.head = [compile_term(t, plan.slot_of, plan.intervals)
                     for t, _ in head_positions(rule)[len(args):]]
        hit = tes.plans[id(rule)] = (rule, plan)
    return hit[1]


# ---------------------------------------------------------------------------
# Grounded simple-event rule heads


class AuxStore(Record):
    """Grounded existence, termination and window facts for simple events,
    grouped by event instance as they are derived: `exists` and `ends` map
    an instance to its set of (timepoint, level) pairs, `windows` an
    instance to its window values, and `default_windows` a predicate to the
    values of its schematic window rules."""

    __slots__ = _fields = ("exists", "ends", "windows", "default_windows")

    def keys(self) -> list[EventKey]:
        """Event instances with at least one existence fact, sorted by
        `instance_key` (numbers before symbols at each argument)."""
        return sorted(self.exists, key=instance_key)


def instance_key(key: EventKey) -> tuple:
    """The order of event instances: by predicate, then by arguments."""
    return key[0], args_key(key[1])


def _natural(v, what: str) -> int:
    if not isinstance(v, int) or isinstance(v, bool) or v < 0:
        raise SortError(f"{what} evaluated to {v!r}, expected a natural")
    return v


def ground_simple_heads(tes: TES, dataset: Dataset) -> AuxStore:
    """Evaluate all existence/termination/window rules over the dataset,
    adding each solved binding's head to its instance's group."""
    aux = AuxStore({}, {}, {}, {})
    for rules, points in ((tes.existence, aux.exists), (tes.termination, aux.ends)):
        for rule in rules:
            plan = rule_plan(tes, rule)
            args, (value,), pred, level = plan.args, plan.head, rule.pred, rule.level
            for s in plan.solve(dataset):
                key, t = (pred, args(s)), value(s)
                if t.__class__ is not int or t < 0:  # only a plain natural skips the check
                    _natural(t, "timepoint")
                group = points.get(key)
                if group is None:  # a set made only when the instance is new
                    points[key] = {(t, level)}
                else:
                    group.add((t, level))
    for rule in tes.windows:
        if is_schematic_window(rule):
            aux.default_windows.setdefault(rule.pred, set()).add(
                _natural(eval_term(rule.w, {}), "window"))
        else:
            plan = rule_plan(tes, rule)
            args, (value,), pred = plan.args, plan.head, rule.pred
            for s in plan.solve(dataset):
                aux.windows.setdefault((pred, args(s)), set()).add(_natural(value(s), "window"))
    return aux
