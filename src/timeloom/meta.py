"""Meta-event inference: stratified rule evaluation over inferred events.

Each stratum is evaluated to a fixpoint before the next begins, so negated
event references and extremum tests always see a completed collection.
Within a stratum, repeated passes restrict one body literal at a time to
the newest facts. Under monotone rules, models in factored form are
closed from the closure of their core, and each result of a unit, units
that meta rules join merged, is closed once.
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


def _event_positions(rule: MetaRule, preds: frozenset[str] | None = None) -> list[int]:
    """The body positions of the rule's positive event atoms, only those
    over `preds` when given."""
    return [i for i, lit in enumerate(rule.body)
            if not lit.negated
            and isinstance(lit.atom, EventAtom)
            and (preds is None or lit.atom.pred in preds)]


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
           absorb: Callable[[Fired], list[AnnotatedEventFact]],
           witnesses: bool = False, new: list[AnnotatedEventFact] | None = None) -> None:
    """Evaluate the strata in order, each to a fixpoint by semi-naive passes.

    `absorb` receives one pass's firings (see `_fire`) and returns the facts
    that changed, which the next pass joins against. It must add new facts
    to the store; the store is not touched while a pass fires.

    With `new`, the store already holds the closure of its other facts, and
    `new` lists the facts added since; the rules must be monotone. Then the
    first pass of a stratum joins only bindings that match some new fact at
    a positive event atom, and each stratum's derived facts count as new for
    the strata after it.
    """
    stratum_of = {p: k for k, stratum in enumerate(tes.strata) for p in stratum}
    # the sort is stable: each stratum's rules stay in `tes.meta_rules` order
    ordered = sorted(tes.meta_rules, key=lambda r: stratum_of[r.pred])
    for k, group in groupby(ordered, key=lambda r: stratum_of[r.pred]):
        rules, members = list(group), frozenset(tes.strata[k])
        if new is None:
            fired = [x for r in rules for x in _fire(tes, r, dataset, store, None, witnesses)]
        else:
            fired = _fire_delta(tes, [(r, _event_positions(r)) for r in rules], new,
                                dataset, store, witnesses)
        delta = absorb(fired)
        derived = list(delta)
        recursive = [(r, _event_positions(r, members)) for r in rules]
        recursive = [(r, ps) for r, ps in recursive if ps]
        while delta:
            delta = absorb(_fire_delta(tes, recursive, delta, dataset, store, witnesses))
            derived += delta
        if new is not None:
            new = new + derived


def _adding_to(store: EventStore) -> Callable[[Fired], list[AnnotatedEventFact]]:
    """The `_close` absorber that adds each derived fact to the store."""
    return lambda fired: store.add_all([f for _, f in fired])


def infer_meta(tes: TES, dataset: Dataset,
               simple: frozenset[AnnotatedEventFact]) -> frozenset[AnnotatedEventFact]:
    """All meta-event facts derivable from the dataset and simple events."""
    store = EventStore(simple)
    _close(tes, dataset, store, _adding_to(store))
    return store.facts.difference(simple)


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
    shared = EventStore(f.core)
    _close(tes, dataset, shared, _adding_to(shared))
    base = shared.facts
    facts = [frozenset().union(*results) for results in f.units]
    groups: list = list(facts)
    store = shared.copy()

    def absorb(fired: Fired) -> list[AnnotatedEventFact]:
        for matched, head in fired:
            if head not in base:
                groups.append([head, *[x for x in matched if x not in base]])
        return store.add_all([x for _, x in fired])

    _close(tes, dataset, store, absorb, witnesses=True,
           new=store.add_all(frozenset().union(*facts)))
    find = link(groups)
    members: dict = {}  # link class -> the units in it; a unit without facts is its own
    for u, unit_facts in enumerate(facts):
        members.setdefault(find(next(iter(unit_facts))) if unit_facts else u, []).append(u)
    if len(members) < len(f.units):
        f = regroup(f, f.picks, list(members.values()))

    def closed(result: frozenset) -> frozenset:
        if not result:
            return result
        store = shared.copy()
        _close(tes, dataset, store, _adding_to(store), new=store.add_all(result))
        return store.facts - base

    return Factored(base, tuple([tuple(map(closed, rs)) for rs in f.units]), f.picks)


def close_factored(tes: TES, dataset: Dataset, f: Factored) -> Factored:
    """The models of `f`, sets of simple events, each with the meta facts
    derivable from it, in factored form.

    Under monotone rules the core is closed once. One pass on a copy of its
    closure adds every result's facts as new (incremental view maintenance)
    and links each derived fact outside the core's closure with the matched
    facts of its body outside it, and the facts of each unit with each
    other. Units of one link class are joined, and each result is closed
    once on a copy of the core's closure.

    These are the links of a closure of the core and every result from
    scratch: by semi-naive completeness the pass fires each binding over it
    that matches a fact outside the core's closure, and any other binding
    derives a fact of that closure, which is not linked.

    Soundness: cut the derivation tree of a fact derived from a model but
    not from the core at the facts of the core's closure. Every firing left
    is one of the pass, and joins its head with its children outside the
    core's closure. So the tree lies in one link class, and its leaves in
    the core's closure plus one result of one joined unit.

    A single model, or rules that negate an event or test a start or end,
    are closed from scratch, and so are all models when a firing raises: a
    firing over the core and every result may combine facts no model holds
    together. Such a firing lies in the core's closure, which raised while
    closed, or the pass makes it.
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
