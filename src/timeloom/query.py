"""Rule body evaluation over datasets and event stores.

Bodies are conjunctions of positive binder atoms plus tests (comparisons,
negated atoms, interval builtins). Evaluation joins binders smallest-first
and fires each test as soon as its variables are bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from .errors import InvalidSpec, SortError
from .language import (
    AllenTest,
    AnnEventAtom,
    AtemporalAtom,
    Comparison,
    EventAtom,
    ExtremumTest,
    Literal,
    ObservationAtom,
    PredKind,
    TES,
    is_schematic_window,
)
from .model import (
    STAR,
    AnnotatedEventFact,
    AtemporalFact,
    Const,
    Dataset,
    EventStore,
    Interval,
    IntervalTerm,
    Nat,
    ObservationFact,
    SortKind,
    StarTerm,
    Term,
    Var,
    allen_relation,
    args_key,
    eval_term,
    term_vars,
)

EventKey = tuple[str, tuple]


def _accepts(sort: SortKind, value) -> bool:
    if sort is SortKind.DATA:
        return isinstance(value, (str, int)) and not isinstance(value, bool)
    if sort is SortKind.NAT:
        return isinstance(value, int) and value >= 0
    if sort is SortKind.POSNAT:
        return isinstance(value, int) and value >= 1
    if sort is SortKind.NAT_OR_STAR:
        return value == STAR or (isinstance(value, int) and value >= 0)
    if sort is SortKind.INTERVAL:
        return isinstance(value, Interval)
    return False


def _match_term(term: Term, value, binding: dict, sorts: Mapping[str, SortKind]) -> bool:
    """Try to unify one term position with a fact value; extends binding."""
    if isinstance(term, Var):
        if term.name in binding:
            return binding[term.name] == value
        if not _accepts(sorts.get(term.name, SortKind.DATA), value):
            return False
        binding[term.name] = value
        return True
    if isinstance(term, Const):
        return term.name == value
    if isinstance(term, Nat):
        return not isinstance(value, bool) and term.value == value
    if isinstance(term, StarTerm):
        return value == STAR
    return False


def _match_atom(atom, fact, binding: dict, sorts: Mapping[str, SortKind]) -> dict | None:
    b = dict(binding)
    if isinstance(atom, AtemporalAtom):
        pairs = zip(atom.args, fact.args)
    elif isinstance(atom, ObservationAtom):
        pairs = list(zip(atom.args, fact.args)) + [(atom.t, fact.t)]
    elif isinstance(atom, EventAtom):
        pairs = list(zip(atom.args, fact.args))
        iv = atom.interval
        if isinstance(iv, Var):
            pairs.append((iv, fact.interval))
        else:
            pairs += [(iv.lo, fact.interval.start), (iv.hi, fact.interval.end)]
    elif isinstance(atom, AnnEventAtom):
        pairs = list(zip(atom.args, fact.args))
        iv = atom.interval
        if isinstance(iv, Var):
            pairs.append((iv, fact.interval))
        else:
            pairs += [(iv.lo, fact.interval.start), (iv.hi, fact.interval.end)]
        pairs.append((atom.level, fact.level))
    else:
        raise TypeError(f"not a matchable atom: {atom!r}")
    for term, value in pairs:
        if not _match_term(term, value, b, sorts):
            return None
    return b


def _candidates(atom, binding: Mapping, dataset: Dataset, events: EventStore | None):
    """The facts that can match an atom under a binding: its predicate's
    facts narrowed through a hash index on the argument positions the
    binding or a constant fixes. `_match_atom` still checks each one."""
    positions, values = [], []
    for i, term in enumerate(atom.args):
        if isinstance(term, Var):
            if term.name not in binding:
                continue
            values.append(binding[term.name])
        elif isinstance(term, Const):
            values.append(term.name)
        elif isinstance(term, Nat):
            values.append(term.value)
        else:
            continue
        positions.append(i)
    positions, values = tuple(positions), tuple(values)
    if isinstance(atom, AtemporalAtom):
        return dataset.probe(AtemporalFact, atom.pred, positions, values)
    if isinstance(atom, ObservationAtom):
        return dataset.probe(ObservationFact, atom.pred, positions, values)
    if events is None:
        return ()
    return events.probe(atom.pred, positions, values)


def _is_test(lit: Literal) -> bool:
    return lit.negated or isinstance(lit.atom, (Comparison, AllenTest, ExtremumTest))


def _test_ready(lit: Literal, bound: set[str]) -> bool:
    a = lit.atom
    if isinstance(a, Comparison):
        names = {v.name for v in term_vars(a.lhs)} | {v.name for v in term_vars(a.rhs)}
    elif isinstance(a, AllenTest):
        names = {v.name for v in term_vars(a.a)} | {v.name for v in term_vars(a.b)}
    elif isinstance(a, ExtremumTest):
        names = {v.name for v in term_vars(a.t)}
        for x in a.args:
            names |= {v.name for v in term_vars(x)}
    else:  # negated atom: wildcards stay free, everything else must be bound
        names = set()
        for v in _atom_vars(a):
            if not v.is_wildcard:
                names.add(v.name)
    return names <= bound


def _atom_vars(a) -> Iterator[Var]:
    if isinstance(a, AtemporalAtom):
        terms = a.args
    elif isinstance(a, ObservationAtom):
        terms = a.args + (a.t,)
    elif isinstance(a, EventAtom):
        terms = a.args + (a.interval,)
    elif isinstance(a, AnnEventAtom):
        terms = a.args + (a.interval, a.level)
    else:
        terms = ()
    for t in terms:
        yield from term_vars(t)


def _eval_test(lit: Literal, binding: dict, dataset: Dataset,
               events: EventStore | None, sorts) -> bool:
    a = lit.atom
    if isinstance(a, Comparison):
        lhs, rhs = eval_term(a.lhs, binding), eval_term(a.rhs, binding)
        result = _compare(a.op, lhs, rhs)
    elif isinstance(a, AllenTest):
        ia, ib = eval_term(a.a, binding), eval_term(a.b, binding)
        result = ia is not None and ib is not None and allen_relation(ia, ib) == a.name
    elif isinstance(a, ExtremumTest):
        result = _extremum_holds(a, binding, events)
    else:
        result = any(
            _match_atom(a, f, binding, sorts) is not None
            for f in _candidates(a, binding, dataset, events))
    return result != lit.negated


def _compare(op: str, lhs, rhs) -> bool:
    if op == "!=":
        return lhs != rhs
    if isinstance(lhs, str) or isinstance(rhs, str):
        raise SortError(f"ordering comparison over symbols: {lhs!r} {op} {rhs!r}")
    return lhs <= rhs if op == "<=" else lhs < rhs


def _extremum_holds(a: ExtremumTest, binding: dict, events: EventStore | None) -> bool:
    if events is None:
        return False
    args = tuple(eval_term(x, binding) for x in a.args)
    facts = events.by_key(a.pred, args)
    if not facts:
        return False
    t = eval_term(a.t, binding)
    if a.name == "start":
        return min(f.interval.start for f in facts) == t
    return max(f.interval.end for f in facts) == t


def eval_body(body: tuple[Literal, ...], sorts: Mapping[str, SortKind],
              dataset: Dataset, events: EventStore | None = None,
              delta: tuple | None = None, witnesses: bool = False) -> list:
    """All variable bindings satisfying the body; one empty dict for an
    empty ground body. `delta` optionally forces one binder literal (by
    index) to match within a restricted fact collection (semi-naive step).

    With `witnesses`, each result is a (binding, facts) pair instead: the
    event facts the positive event atoms matched. A binding then repeats
    once per combination of matching facts, as when an atom without a level
    matches an interval held at several levels."""
    binders: list[tuple[int, Literal]] = []
    tests: list[Literal] = []
    for idx, lit in enumerate(body):
        if _is_test(lit):
            tests.append(lit)
        else:
            binders.append((idx, lit))
    forced_idx, forced_facts = delta if delta is not None else (None, None)

    results: list = []

    def run(binding: dict, todo: list[tuple[int, Literal]], pending: list[Literal],
            matched: tuple) -> None:
        ready = []
        rest = []
        bound = set(binding)
        for lit in pending:
            (ready if _test_ready(lit, bound) else rest).append(lit)
        for lit in ready:
            if not _eval_test(lit, binding, dataset, events, sorts):
                return
        if not todo:
            if rest:  # unbound test variables: unreachable for safe rules
                raise SortError("test with unbound variables after all binders")
            results.append((binding, matched) if witnesses else binding)
            return
        # expand the binder with the fewest candidates under current binding
        best_i, best_cands = None, None
        for i, (idx, lit) in enumerate(todo):
            cands = (forced_facts if idx == forced_idx
                     else _candidates(lit.atom, binding, dataset, events))
            if best_cands is None or len(cands) < len(best_cands):
                best_i, best_cands = i, cands
                if not cands:
                    break
        idx, lit = todo[best_i]
        remaining = todo[:best_i] + todo[best_i + 1:]
        for fact in best_cands:
            nb = _match_atom(lit.atom, fact, binding, sorts)
            if nb is not None:
                run(nb, remaining, rest, matched + (fact,)
                    if witnesses and isinstance(fact, AnnotatedEventFact) else matched)

    run({}, binders, tests, ())
    return results


# ---------------------------------------------------------------------------
# Grounded simple-event rule heads


@dataclass(frozen=True)
class AuxStore:
    """Grounded existence, termination, and window facts for simple events,
    grouped by event instance in one pass at construction."""

    exists: frozenset[tuple[EventKey, int, int]]  # (key, timepoint, level)
    ends: frozenset[tuple[EventKey, int, int]]
    windows: frozenset[tuple[EventKey, int]]
    default_windows: frozenset[tuple[str, int]] = frozenset()  # per predicate
    # key -> (timepoint, level) pairs, key -> windows, pred -> default windows
    _exists_by_key: dict = field(init=False, repr=False, compare=False)
    _ends_by_key: dict = field(init=False, repr=False, compare=False)
    _windows_by_key: dict = field(init=False, repr=False, compare=False)
    _defaults_by_pred: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name, triples in (("_exists_by_key", self.exists), ("_ends_by_key", self.ends)):
            grouped: dict[EventKey, list[tuple[int, int]]] = {}
            for k, t, lvl in triples:
                grouped.setdefault(k, []).append((t, lvl))
            object.__setattr__(self, name, grouped)
        for name, pairs in (("_windows_by_key", self.windows),
                            ("_defaults_by_pred", self.default_windows)):
            grouped = {}
            for k, w in pairs:
                grouped.setdefault(k, set()).add(w)
            object.__setattr__(self, name, grouped)

    def keys(self) -> list[EventKey]:
        """Event instances with at least one existence fact, sorted (numbers
        before symbols at each argument)."""
        return sorted(self._exists_by_key, key=lambda k: (k[0], args_key(k[1])))

    def exists_of(self, key: EventKey) -> list[tuple[int, int]]:
        """(timepoint, level) of each existence fact of one instance."""
        return self._exists_by_key.get(key, [])

    def ends_of(self, key: EventKey) -> list[tuple[int, int]]:
        """(timepoint, level) of each termination fact of one instance."""
        return self._ends_by_key.get(key, [])

    def window_values(self, key: EventKey) -> list[int]:
        return sorted(self._windows_by_key.get(key, set())
                      | self._defaults_by_pred.get(key[0], set()))

    def window_for(self, key: EventKey) -> int:
        return self.window_values(key)[0]


def _ground_head_value(term: Term, binding: dict, what: str) -> int:
    v = eval_term(term, binding)
    if not isinstance(v, int) or isinstance(v, bool) or v < 0:
        raise SortError(f"{what} evaluated to {v!r}, expected a natural")
    return v


def ground_simple_heads(tes: TES, dataset: Dataset) -> AuxStore:
    """Evaluate all existence/termination/window rules over the dataset."""
    exists: set = set()
    ends: set = set()
    windows: set = set()
    for rule in tes.existence:
        for b in eval_body(rule.body, rule.var_sorts, dataset):
            args = tuple(eval_term(a, b) for a in rule.args)
            exists.add(((rule.pred, args), _ground_head_value(rule.t, b, "timepoint"), rule.level))
    for rule in tes.termination:
        for b in eval_body(rule.body, rule.var_sorts, dataset):
            args = tuple(eval_term(a, b) for a in rule.args)
            ends.add(((rule.pred, args), _ground_head_value(rule.t, b, "timepoint"), rule.level))
    defaults: set = set()
    for rule in tes.windows:
        if is_schematic_window(rule):
            defaults.add((rule.pred, _ground_head_value(rule.w, {}, "window")))
            continue
        for b in eval_body(rule.body, rule.var_sorts, dataset):
            args = tuple(eval_term(a, b) for a in rule.args)
            windows.add(((rule.pred, args), _ground_head_value(rule.w, b, "window")))
    return AuxStore(frozenset(exists), frozenset(ends), frozenset(windows),
                    frozenset(defaults))


def check_validity(aux: AuxStore, tes: TES) -> None:
    """Every non-persistent instance with existence facts needs exactly one
    positive window."""
    for key in aux.keys():
        if tes.kind(key[0]) is not PredKind.NONPERSISTENT:
            continue
        ws = aux.window_values(key)
        if not ws:
            raise InvalidSpec("MissingWindow", key)
        if len(ws) > 1:
            raise InvalidSpec("AmbiguousWindow", key)
        if ws[0] < 1:
            raise InvalidSpec("ZeroWindow", key)


# ---------------------------------------------------------------------------
# Level-indexed timepoints


@dataclass(frozen=True)
class LevelTimepoints:
    """Cumulative per-level existence and termination timepoints for one
    event instance: level l sees all evidence with confidence <= l."""

    key: EventKey
    exists_by_level: tuple[tuple[int, ...], ...]
    ends_by_level: tuple[tuple[int, ...], ...]

    @property
    def max_level(self) -> int:
        return len(self.exists_by_level)

    def exists_at(self, level: int) -> tuple[int, ...]:
        return self.exists_by_level[level - 1]

    def ends_at(self, level: int) -> tuple[int, ...]:
        return self.ends_by_level[level - 1]


def level_timepoints(aux: AuxStore, key: EventKey) -> LevelTimepoints:
    ex, en = aux.exists_of(key), aux.ends_of(key)
    top = max((lvl for _, lvl in ex + en), default=0)
    ex_cum, en_cum = [], []
    for lvl in range(1, top + 1):
        ex_cum.append(tuple(sorted({t for t, l in ex if l <= lvl})))
        en_cum.append(tuple(sorted({t for t, l in en if l <= lvl})))
    return LevelTimepoints(key, tuple(ex_cum), tuple(en_cum))
