"""Meta-event inference: stratified rule evaluation over inferred events.

Each stratum is evaluated to a fixpoint before the next begins, so negated
event references and extremum tests always see a completed collection.
Within a stratum, repeated passes restrict one body literal at a time to
the newest facts. Under monotone rules, models in factored form are
closed by one closure of their core and every result, whose recorded
firings give the core's closure, the units that meta rules join, and
each result's closure.
"""

from __future__ import annotations

from itertools import groupby, product
from math import prod
from typing import Callable, Iterable, Mapping, Sequence

from .errors import LevelOverflow, NaturalOverflow, SortError
from .language import TES, EventAtom, MetaRule
from .model import AnnotatedEventFact, Dataset, EventStore, Interval, Record
from .query import rule_plan


def _fire(tes: TES, rule: MetaRule, dataset: Dataset, store: EventStore, delta: tuple | None,
          witnesses: bool) -> list[tuple[tuple, AnnotatedEventFact]]:
    """Each head fact the rule derives, beside the event facts its body
    matched (empty without `witnesses`)."""
    plan = rule_plan(tes, rule)
    results = plan.solve(dataset, store, delta, witnesses)
    if not witnesses:
        results = [(s, ()) for s in results]
    interval_of, level_of = plan.head
    out: list[tuple[tuple, AnnotatedEventFact]] = []
    for slots, matched in results:
        interval = interval_of(slots)
        if interval is None:  # empty intersection or inverted endpoints
            continue
        assert isinstance(interval, Interval)
        level = level_of(slots)
        if not isinstance(level, int) or level < 1:
            raise LevelOverflow(f"rule for {rule.pred} computed level {level}")
        out.append((matched, AnnotatedEventFact(rule.pred, plan.args(slots), interval, level)))
    return out


def _event_positions(rule: MetaRule, preds: frozenset[str]) -> list[int]:
    """The body positions of the rule's positive event atoms over `preds`."""
    return [i for i, lit in enumerate(rule.body)
            if not lit.negated and isinstance(lit.atom, EventAtom) and lit.atom.pred in preds]


Fired = list[tuple[tuple, AnnotatedEventFact]]


def _fire_delta(tes: TES, joins: list[tuple[MetaRule, list[int]]],
                delta: list[AnnotatedEventFact], dataset: Dataset, store: EventStore,
                witnesses: bool) -> Fired:
    """Each rule fired once per listed position, that position restricted to
    the facts of `delta` over its predicate."""
    fired: Fired = []
    for rule, positions in joins:
        for pos in positions:
            pred = rule.body[pos].atom.pred
            fresh = [f for f in delta if f.pred == pred]
            if fresh:
                fired += _fire(tes, rule, dataset, store, (pos, fresh), witnesses)
    return fired


def _close(tes: TES, dataset: Dataset, store: EventStore,
           absorb: Callable[[Fired], list[AnnotatedEventFact]], witnesses: bool = False) -> None:
    """Evaluate the strata in order, each to a fixpoint by semi-naive passes.

    `absorb` receives one pass's firings (see `_fire`) and returns the facts
    that changed, which the next pass joins against. It must add new facts
    to the store; the store is not touched while a pass fires.
    """
    stratum_of = {p: k for k, stratum in enumerate(tes.strata) for p in stratum}
    # the sort is stable: each stratum's rules stay in `tes.meta_rules` order
    ordered = sorted(tes.meta_rules, key=lambda r: stratum_of[r.pred])
    for k, group in groupby(ordered, key=lambda r: stratum_of[r.pred]):
        rules, members = list(group), frozenset(tes.strata[k])
        delta = absorb([x for r in rules for x in _fire(tes, r, dataset, store, None, witnesses)])
        recursive = [(r, _event_positions(r, members)) for r in rules]
        recursive = [(r, ps) for r, ps in recursive if ps]
        while delta:
            delta = absorb(_fire_delta(tes, recursive, delta, dataset, store, witnesses))


def infer_meta(tes: TES, dataset: Dataset,
               simple: frozenset[AnnotatedEventFact]) -> frozenset[AnnotatedEventFact]:
    """All meta-event facts derivable from the dataset and simple events."""
    store = EventStore(simple)
    _close(tes, dataset, store, lambda fired: store.add_all([f for _, f in fired]))
    return store.facts.difference(simple)


def _firings(tes: TES, dataset: Dataset, facts: frozenset[AnnotatedEventFact]) -> list[list]:
    """Each firing of one closure of `facts` from scratch, as `[head, *matched]`."""
    store, firings = EventStore(facts), []

    def absorb(fired: Fired) -> list[AnnotatedEventFact]:
        firings.extend([head, *matched] for matched, head in fired)
        return store.add_all([head for _, head in fired])

    _close(tes, dataset, store, absorb, witnesses=True)
    return firings


def derived(firings: Sequence[list], given: Iterable) -> frozenset:
    """`given` with what it derives through `firings`, each `[head,
    *matched]`: a firing derives its head once each matched fact is given
    or derived, in whatever order the firings were recorded."""
    have, todo = set(given), []
    waiting: dict = {}  # fact -> the firings whose body holds it, once per holding
    missing: list[int] = []  # per firing, its matched facts not yet derived
    for k, (head, *body) in enumerate(firings):
        need = [x for x in body if x not in have]
        for x in need:
            waiting.setdefault(x, []).append(k)
        missing.append(len(need))
        if not need:
            todo.append(head)
    while todo:
        x = todo.pop()
        if x not in have:
            have.add(x)
            for k in waiting.get(x, ()):
                missing[k] -= 1
                if not missing[k]:
                    todo.append(firings[k][0])
    return frozenset(have)


def link(groups: Iterable[Iterable]) -> Callable:
    """Union-find over the values of `groups`: returns the class
    representative of a value, one for the values of each group and of
    groups sharing a value; any other value is its own."""
    parent: dict = {}

    def find(v):
        while v in parent:
            up = parent[v]
            parent[v] = parent.get(up, up)  # path halving
            v = up
        return v

    for group in groups:
        values = iter(group)
        for first in values:
            root = find(first)
            for v in values:
                r = find(v)
                # equal but distinct values are one dict key: never a parent of itself
                if r is not root and r != root:
                    parent[r] = root
    return find


class Factored(Record):
    """Models in factored form: the facts every model holds (`core`); per
    unit its results, each the facts it adds, which no other unit's hold;
    and each model as one result index per unit (`picks`), in order."""

    __slots__ = _fields = ("core", "units", "picks")

    def models(self) -> tuple[frozenset[AnnotatedEventFact], ...]:
        core, units = self.core, self.units
        return tuple(core.union(*[units[u][i] for u, i in enumerate(p)]) for p in self.picks)


def regroup(f: Factored, picks: Sequence[tuple[int, ...]],
            members: Sequence[Sequence[int]] | None = None) -> Factored:
    """The models `picks` lists, keeping only the results they use. Each
    list of `members` (by default each unit alone) becomes one unit whose
    results are the combinations of its members' results the models use."""
    members = members or [(u,) for u in range(len(f.units))]
    index: list[dict[tuple, int]] = [{} for _ in members]
    kept = tuple([tuple([index[g].setdefault(tuple([p[u] for u in us]), len(index[g]))
                         for g, us in enumerate(members)]) for p in picks])
    return Factored(f.core, tuple([
        tuple([frozenset().union(*[f.units[u][i] for u, i in zip(us, combo)]) for combo in combos])
        for us, combos in zip(members, index)]), kept)


def factor_models(models: Sequence[frozenset[AnnotatedEventFact]]) -> Factored:
    """Models as their intersection plus one unit of what each adds."""
    if len(models) == 1:  # the model is its own core, taken without a copy
        return Factored(frozenset(models[0]), (), ((),))
    core = frozenset.intersection(*models) if models else frozenset()
    return Factored(core, (tuple([m - core for m in models]),),
                    tuple([(i,) for i in range(len(models))]))


def _close_units(tes: TES, dataset: Dataset, f: Factored) -> Factored:
    """`close_factored` for two or more models under monotone rules."""
    facts = [frozenset().union(*results) for results in f.units]
    firings = _firings(tes, dataset, f.core.union(*facts))
    base = derived(firings, f.core)
    cut = [[head, *[x for x in body if x not in base]]
           for head, *body in firings if head not in base]
    find = link([*facts, *cut])
    members: dict = {}  # link class -> the units in it; a unit without facts is its own
    for u, unit_facts in enumerate(facts):
        members.setdefault(find(next(iter(unit_facts))) if unit_facts else u, []).append(u)
    if len(members) < len(f.units):
        f = regroup(f, f.picks, list(members.values()))
    return Factored(base, tuple([tuple([derived(cut, r) for r in rs]) for rs in f.units]),
                    f.picks)


def close_factored(tes: TES, dataset: Dataset, f: Factored) -> Factored:
    """The models of `f`, sets of simple events, each with the meta facts
    derivable from it, in factored form.

    Under monotone rules the core and every result, U, are closed together
    once from scratch, recording each firing with the facts its body
    matched, and each closure is read off those firings (`derived`). For S
    a subset of U, every binding over the closure of S is one over the
    closure of U, as the rules are monotone, and semi-naive evaluation
    fires, and so records, each binding over the closure of U. So what S
    derives through the firings is its closure. The core derives its own.
    A result derives the facts of its closure outside the core's through
    the cut firings: those whose head lies outside the core's closure,
    each body cut to its facts outside it. A cut firing links its head with
    its body, and the facts of each unit link with each other; the units
    of one link class are joined before their results are derived.

    Soundness: cut the derivation tree of a fact derived from a model but
    not from the core at the facts of the core's closure. Every firing left
    is a cut firing, and links its head with its children. So the tree lies
    in one link class, and its leaves in the core's closure plus one result
    of one joined unit.

    A single model, or rules that negate an event or test a start or end,
    are closed from scratch, and so are all models when a firing over the
    core and every result raises: it may combine facts no model holds
    together.
    """
    if len(f.picks) > 1 and tes.is_monotone:
        try:
            return _close_units(tes, dataset, f)
        except (LevelOverflow, NaturalOverflow, SortError):
            pass
    return factor_models([m | infer_meta(tes, dataset, m) for m in f.models()])


Supports = list[frozenset]


def _add_minimal(antichain: Supports, s: frozenset) -> bool:
    """Add `s` to a list of pairwise incomparable sets unless a member is a
    subset of it, dropping the members it is a subset of. True if added."""
    if any(t <= s for t in antichain):
        return False
    antichain[:] = [t for t in antichain if not s < t]
    antichain.append(s)
    return True


def combine_supports(matched: tuple[AnnotatedEventFact, ...],
                     why: Mapping[AnnotatedEventFact, Supports],
                     spend: Callable[[], None]) -> list[frozenset]:
    """The simple-fact sets supporting one body match: one support of each
    matched fact, in every combination. A fact missing from `why` supports
    itself. The first combination is free; `spend` is called once for each
    further one, before any is built."""
    options = [why.get(f, (frozenset((f,)),)) for f in matched]
    for _ in range(prod(len(o) for o in options) - 1):
        spend()
    return [frozenset().union(*combo) for combo in product(*options)]


def meta_provenance(tes: TES, dataset: Dataset, simple: frozenset[AnnotatedEventFact],
                    spend: Callable[[], None]) -> dict[AnnotatedEventFact, Supports]:
    """Why-provenance of the meta closure: each derivable meta fact with the
    minimal sets of simple facts from which the rules derive it.

    For monotone rule sets (no negated event atoms, no extremum tests) a
    meta fact is derivable from a subset of `simple` exactly when the
    subset contains one of its supports. The closure runs the same passes
    as `infer_meta`; a pass re-joins every fact whose supports grew, and
    `spend` is charged as `combine_supports` says.
    """
    store = EventStore(simple)
    why: dict[AnnotatedEventFact, Supports] = {}

    def absorb(fired: Fired) -> list[AnnotatedEventFact]:
        changed: dict[AnnotatedEventFact, None] = {}
        for matched, fact in fired:
            for s in combine_supports(matched, why, spend):
                if _add_minimal(why.setdefault(fact, []), s):
                    changed[fact] = None
        store.add_all(changed)
        return list(changed)

    _close(tes, dataset, store, absorb, witnesses=True)
    return why
