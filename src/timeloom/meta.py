"""Meta-event inference: stratified rule evaluation over inferred events.

Each stratum is evaluated to a fixpoint before the next begins, so negated
event references and extremum tests always see a completed collection.
Within a stratum, repeated passes restrict one body literal at a time to
the newest facts. Under monotone rules, many models are closed from the
closure of the facts they share, and each independent piece of their own
facts is closed once.
"""

from __future__ import annotations

from itertools import product
from math import prod
from typing import Callable, Mapping, Sequence

from .errors import LevelOverflow, SortError
from .language import TES, EventAtom, MetaRule
from .model import AnnotatedEventFact, Dataset, EventStore, Interval
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
    for stratum in tes.strata:
        members = frozenset(stratum)
        rules = [r for r in tes.meta_rules if r.pred in members]
        if not rules:
            continue
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


def _link_classes(tes: TES, dataset: Dataset, union: frozenset[AnnotatedEventFact],
                  shared: EventStore) -> Callable:
    """Close `union` once, joining each derived fact outside `shared` with
    the facts outside `shared` its body matched. Returns the class
    representative of a fact (union-find)."""
    parent: dict[AnnotatedEventFact, AnnotatedEventFact] = {}

    def find(f: AnnotatedEventFact) -> AnnotatedEventFact:
        while f in parent:
            up = parent[f]
            parent[f] = parent.get(up, up)  # path halving
            f = up
        return f

    store = EventStore(union)

    def absorb(fired: Fired) -> list[AnnotatedEventFact]:
        for matched, head in fired:
            if head in shared:
                continue
            for f in matched:
                if f not in shared:
                    a, b = find(head), find(f)
                    if a != b:
                        parent[a] = b
        return store.add_all([f for _, f in fired])

    _close(tes, dataset, store, absorb, witnesses=True)
    return find


def _close_by_pieces(tes: TES, dataset: Dataset,
                     models: Sequence[frozenset[AnnotatedEventFact]]
                     ) -> tuple[frozenset[AnnotatedEventFact], ...]:
    """`close_models` for two or more models under monotone rules."""
    core = frozenset.intersection(*models)
    shared = EventStore(core)
    _close(tes, dataset, shared, _adding_to(shared))
    link = _link_classes(tes, dataset, frozenset().union(*models), shared)
    base = shared.facts
    grown: dict[frozenset, frozenset] = {}  # piece -> its closure beyond base
    closed = []
    for m in models:
        pieces: dict[AnnotatedEventFact, list] = {}
        for f in m - core:
            pieces.setdefault(link(f), []).append(f)
        own = [frozenset(p) for p in pieces.values()]
        for piece in own:
            if piece not in grown:
                store = shared.copy()
                _close(tes, dataset, store, _adding_to(store), new=store.add_all(piece))
                grown[piece] = store.facts - base
        closed.append(base.union(*map(grown.__getitem__, own)))
    return tuple(closed)


def close_models(tes: TES, dataset: Dataset,
                 models: Sequence[frozenset[AnnotatedEventFact]]
                 ) -> tuple[frozenset[AnnotatedEventFact], ...]:
    """Each set of simple events together with the meta facts derivable
    from it, in order.

    Under monotone rules the facts all models share, the core, are closed
    once. One closure over the union of the models then links each derived
    fact with the matched facts of its body, leaving out facts of the
    shared closure. A model's own facts split by link class into pieces.
    Each distinct piece is closed once, extending a copy of the shared
    closure (incremental view maintenance), and a model's closure is the
    shared closure plus those of its pieces.

    Soundness: a fact derived from a model but not from the core has a
    derivation tree over the model. Cut it at the facts of the shared
    closure, which become leaves. Every firing left is also a firing over
    the union (the rules are monotone), and joins its derived head with
    its children outside the shared closure. So the tree lies in one link
    class, and its leaves lie in the core's closure plus one piece.

    A single model, or rules that negate an event or test a start or end,
    are closed from scratch, and so are all models when a firing raises:
    a firing over the union may combine facts that no model holds together.
    """
    if len(models) > 1 and tes.is_monotone:
        try:
            return _close_by_pieces(tes, dataset, models)
        except (LevelOverflow, SortError):
            pass
    return tuple(m | infer_meta(tes, dataset, m) for m in models)


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
    store = EventStore()
    store.add_all(simple)
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
