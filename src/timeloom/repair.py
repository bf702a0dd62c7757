"""Conflict handling: repairs, preferred repairs, cautious cores, and
timeline recognition.

A set of simple-event facts is consistent when no two facts about the same
event instance carry clashing intervals and no domain constraint body is
satisfiable over the data plus the facts. Repairs are the maximal
consistent subsets of the inferred simple events; the four timeline modes
differ only in which repairs they keep.

When consistency is downward closed (monotone rules, or constraints that
negate no event and name no meta event) the repairs are the maximal sets
containing no minimal inconsistent set: the maximal independent sets of
one conflict hypergraph, and every mode reads its minimal edges: repairs
and preferred repairs are the facts in no edge times per-component
results, the cautious core is the facts in no edge, and recognition tests
the candidate against the edges. Other rule sets scan candidate subsets
in one pass that yields the repairs, or only the preferred ones.
"""

from __future__ import annotations

from contextlib import suppress
from itertools import combinations, groupby, islice, product
from math import inf, prod
from operator import attrgetter
from typing import Callable, Iterator

from .errors import EnumerationCapExceeded
from .language import TES, EventAtom
from .meta import (
    Factored,
    close_factored,
    combine_supports,
    factor_models,
    infer_meta,
    link,
    meta_provenance,
    regroup,
)
from .model import AnnotatedEventFact, Dataset, EventStore, Record, fact_key
from .query import rule_plan
from .simple import infer_all_simple

DEFAULT_CAP = 10000

SimpleSet = frozenset[AnnotatedEventFact]


def temporal_conflict(a, b) -> bool:
    """Whether two facts about the same event instance clash: equal starts
    with different ends, equal ends with different starts, or one interval
    starting strictly inside the other."""
    if a.key != b.key:
        return False
    i, j = a.interval, b.interval
    if i == j:
        return False
    if i.start == j.start or i.end == j.end:
        return True
    return i.start < j.start < i.end or j.start < i.start < j.end


_start = attrgetter("interval.start")


def clash_pairs(facts) -> Iterator[tuple]:
    """Every clashing pair among the facts, each once.

    Only facts of one event instance, the (pred, args) key, can clash. In
    order of start, a fact can clash only with the earlier facts that end
    at or after its start, so only those are tested. A test that finds no
    clash is of equal intervals at two levels, or of an interval ending
    where the other starts; facts ending at one point clash pairwise, and
    so do facts starting there. So, with few levels, the sweep costs
    O(n log n) plus the pairs."""
    groups: dict[tuple, list] = {}
    for f in facts:
        groups.setdefault(f.key, []).append(f)
    for group in groups.values():
        if len(group) < 2:
            continue
        group.sort(key=_start)
        running: list = []  # earlier facts, none known to end before this start
        for b in group:
            start = b.interval.start
            running = [a for a in running if a.interval.end >= start]
            for a in running:
                if temporal_conflict(a, b):
                    yield a, b
            running.append(b)


def is_consistent(facts, tes: TES, dataset: Dataset) -> bool:
    """Whether a set of event facts violates no temporal or domain constraint."""
    if next(clash_pairs(facts), None) is not None:
        return False
    if not tes.constraints:
        return True
    store = EventStore(facts)
    if tes.constraints_mention_meta():
        simple = frozenset(f for f in facts if tes.is_simple_pred(f.pred))
        store.add_all(infer_meta(tes, dataset, simple))
    return not any(rule_plan(tes, c).solve(dataset, store) for c in tes.constraints)


class RepairSet(Record):
    """Maximal consistent subsets of the inferred simple events, in canonical
    order; exhaustive is False when enumeration stopped at the cap."""

    __slots__ = _fields = ("repairs", "exhaustive")


class _Budget:
    """The cap of every enumerator: `spend` pays for one unit of work, and
    past `cap` raises `EnumerationCapExceeded`, leaving `left` below zero."""

    def __init__(self, cap: int):
        self.cap = self.left = cap

    def spend(self) -> None:
        self.left -= 1
        if self.left < 0:
            raise EnumerationCapExceeded(self.cap)


def _downward_closed(tes: TES) -> bool:
    """Whether every subset of a consistent set is consistent. Clashes are
    pairwise, and a constraint body matched over a subset is matched over
    the whole set when the rules are monotone, or when the body negates no
    event atom and names no meta event, whatever the meta rules."""
    return tes.is_monotone or not tes.constraints_mention_meta() and not any(
        lit.negated and isinstance(lit.atom, EventAtom) for c in tes.constraints for lit in c.body)


def _minimal_edges(edges) -> list[frozenset]:
    """The edges no other edge is a proper subset of, each once, smallest
    first. Distinct edges of one size are never proper subsets of each
    other, so each edge is tested only against the smaller ones kept."""
    kept: list[frozenset] = []
    by_fact: dict = {}  # fact -> the smaller kept edges holding it
    for _, group in groupby(sorted(set(edges), key=len), key=len):
        new = [e for e in group if not any(k <= e for f in e for k in by_fact.get(f, ()))]
        for e in new:
            for f in e:
                by_fact.setdefault(f, []).append(e)
        kept += new
    if kept and not kept[0]:
        return kept[:1]
    return kept


def conflict_hypergraph(se: SimpleSet, tes: TES, dataset: Dataset,
                        spend: Callable[[], None]) -> list[frozenset]:
    """The minimal inconsistent subsets of `se` under downward closed
    consistency.

    Clashing pairs are edges of size 2. Each constraint is ground once over
    all of `se` (and, when it mentions meta events, over their closure); the
    simple facts behind each satisfying binding, through the meta facts'
    why-provenance, form an edge. A subset of `se` is consistent exactly
    when it contains no edge. An empty edge means no subset is consistent.
    `spend` is charged for alternative supports (see `combine_supports`).
    """
    edges: list[frozenset] = [frozenset(pair) for pair in clash_pairs(se)]
    if tes.constraints:
        store = EventStore(se)
        why = meta_provenance(tes, dataset, se, spend) if tes.constraints_mention_meta() else {}
        store.add_all(why)
        for c in tes.constraints:
            for _, matched in rule_plan(tes, c).solve(dataset, store, witnesses=True):
                edges.extend(combine_supports(matched, why, spend))
    return _minimal_edges(edges)


def _components(edges: list[frozenset]) -> list[tuple[list, list[frozenset]]]:
    """Connected components of a hypergraph, each as its facts in canonical
    order and its edges."""
    find = link(edges)
    groups: dict = {}
    for e in edges:
        groups.setdefault(find(next(iter(e))), []).append(e)
    comps = []
    for comp_edges in groups.values():
        facts = sorted({f for e in comp_edges for f in e}, key=fact_key)
        comps.append((facts, comp_edges))
    comps.sort(key=lambda c: fact_key(c[0][0]))
    return comps


def _independent_sets(n: int, edges: list[tuple[int, ...]],
                      budget: _Budget) -> Iterator[frozenset[int]]:
    """Maximal independent sets of a hypergraph on 0..n-1: Bron–Kerbosch
    with a pivot, iterative, one frame per chosen vertex.

    Choosing `v` bars each vertex that some edge of `v` would then have as
    its only member not chosen; over a pair that is the other member. Every
    maximal set extending the chosen ones holds the pivot or a vertex that
    shares an edge with it, so only those need a branch of their own. A
    leaf that some skipped vertex could still extend is a dead end."""
    adj: list[set[int]] = [set() for _ in range(n)]  # vertices sharing an edge
    others: list[list[tuple[int, ...]]] = [[] for _ in range(n)]
    for e in edges:
        for v in e:
            rest = tuple(u for u in e if u != v)
            adj[v].update(rest)
            others[v].append(rest)
    is_chosen = [False] * n

    def bars(v: int) -> set[int]:
        frees = ([u for u in rest if not is_chosen[u]] for rest in others[v])
        return {free[0] for free in frees if len(free) == 1}

    def branches(allowed: set[int], seen: set[int]) -> Iterator[int]:
        # the pivot shares an edge with the fewest allowed vertices, itself
        # counted when allowed
        pivot = min(allowed | seen,
                    key=lambda u: len(adj[u] & allowed) + (u in allowed))
        return iter(sorted(allowed & (adj[pivot] | {pivot})))

    chosen: list[int] = []
    root = set(range(n))
    stack = [(root, set(), branches(root, set()))]
    while stack:
        allowed, seen, todo = stack[-1]
        v = next(todo, None)
        if v is None:
            stack.pop()
            if stack:
                is_chosen[chosen.pop()] = False
            continue
        barred = bars(v)
        sub_allowed = allowed - barred
        sub_allowed.discard(v)
        sub_seen = seen - barred
        allowed.discard(v)
        seen.add(v)
        chosen.append(v)
        is_chosen[v] = True
        if sub_allowed:
            stack.append((sub_allowed, sub_seen, branches(sub_allowed, sub_seen)))
            continue
        if sub_seen:
            budget.spend()
        else:
            yield frozenset(chosen)
        is_chosen[chosen.pop()] = False


def _component_results(facts: list, edges: list[frozenset], budget: _Budget,
                       level: Callable[[AnnotatedEventFact], int]) -> Iterator[frozenset]:
    """One component's results, level by level, strongest first: with P the
    facts chosen at stronger levels, the maximal independent sets of a
    level's facts under the edges `e - P` of each edge `e` inside P and the
    level. A reduced edge of one fact excludes that fact. With every fact at
    one level these are the component's maximal independent sets; by fact
    level they are its preferred results."""
    layers: dict = {}  # level -> its facts, in canonical order
    for f in facts:
        layers.setdefault(level(f), []).append(f)
    levels = sorted(layers)

    def extend(k: int, chosen: frozenset) -> Iterator[frozenset]:
        # the sets of facts chosen through level k that extend `chosen`
        layer = layers[levels[k]]
        pool = chosen.union(layer)
        reduced = {e - chosen for e in edges if e <= pool}
        barred = {f for e in reduced if len(e) == 1 for f in e}
        live_edges = [e for e in reduced if not e & barred]
        touched = {f for e in live_edges for f in e}
        kept = chosen.union(f for f in layer if f not in barred and f not in touched)
        live = [f for f in layer if f in touched]  # in canonical order
        pos = {f: i for i, f in enumerate(live)}
        index_edges = [tuple(pos[f] for f in e) for e in live_edges]
        picks = _independent_sets(len(live), index_edges, budget) if live else ((),)
        return (kept.union(live[i] for i in pick) for pick in picks)

    # one iterator per level entered, so a component of many levels needs
    # no deep recursion; the results and budget charges come in the order
    # of a depth-first walk
    stack = [extend(0, frozenset())]
    while stack:
        chosen = next(stack[-1], None)
        if chosen is None:
            stack.pop()
        elif len(stack) == len(levels):
            yield chosen
        else:
            stack.append(extend(len(stack), chosen))


def _in_order(core: SimpleSet, units: tuple[tuple[SimpleSet, ...], ...], picks) -> Factored:
    """The models `picks` lists in the order of their sorted `fact_key`
    lists, given that none is a proper subset of another, as holds for
    repairs and preferred repairs, capped partial results included.

    Each fact of a result gets a bit, the first in `fact_key` order the
    highest, and models go by the sum of their results' bits, largest
    first. Let `x` be the least fact in one of two models but not the
    other. Their sorted lists agree before `x`, and the list holding `x`
    comes first, as the other cannot end before `x` without being a proper
    subset. The sums agree above the bit of `x`, so the sum holding it is
    the larger."""
    facts = sorted(frozenset().union(*[r for rs in units for r in rs]), key=fact_key)
    bit = {f: 1 << k for k, f in enumerate(reversed(facts))}.__getitem__
    masks = [[sum(map(bit, r)) for r in rs] for rs in units]
    return Factored(core, units, tuple(sorted(
        picks, key=lambda p: sum([m[i] for m, i in zip(masks, p)]), reverse=True)))


def _repairs_general(se: SimpleSet, tes: TES, dataset: Dataset, spend: Callable[[], None],
                     preferred: bool) -> Iterator[SimpleSet]:
    """The repairs, or the preferred repairs, under arbitrary constraints:
    the maximal consistent subsets no other beats by being strictly larger
    at the first level where the two differ. Preferred reads each fact's
    level; otherwise all share one, where beating is being a proper
    superset. `spend` is charged once per subset examined.

    The scan goes by per-level sizes, strongest level first, in descending
    lexicographic order. A proper superset of a set is no smaller at any
    level and larger at one, and a set beating it is as large before their
    first differing level and larger there: both come before it. Beating is
    transitive, so a repair some repair beats is beaten by an unbeaten one,
    found earlier. So a set no repair found earlier beats is beaten by no
    repair, and is a repair exactly when it is consistent: a consistent set
    lies in a repair, which beats it unless equal. A beaten set needs no
    test."""
    level = attrgetter("level") if preferred else lambda f: 0
    # each level's facts in canonical order, the strongest level first
    layers = [list(g) for _, g in groupby(sorted(se, key=lambda f: (level(f), fact_key(f))),
                                          key=level)]

    def beaten(s: SimpleSet) -> bool:
        # t beats s when its strongest fact outside s is stronger than all of s outside t
        return any(min(map(level, t - s), default=inf) < min(map(level, s - t), default=inf)
                   for t in found)

    found: list[SimpleSet] = []
    for sizes in product(*[range(len(layer), -1, -1) for layer in layers]):
        for parts in product(*map(combinations, layers, sizes)):
            spend()
            s = frozenset().union(*parts)
            if not beaten(s) and is_consistent(s, tes, dataset):
                found.append(s)
                yield s


def _repair_factors(dataset: Dataset, tes: TES, se: SimpleSet | None, cap: int,
                    preferred: bool) -> tuple[Factored, bool]:
    """The repairs, or the preferred repairs, in factored form and in
    canonical order, and whether the cap left them all. Under downward
    closed consistency they are the facts in no edge plus one result per
    component (by level for preferred), the budget paying per dead end and
    per model, the first in product order; a component stops at more
    results than the budget has left. A fact in a one-fact edge is in no
    repair. Otherwise they are one unit, what the scan yields within the cap."""
    if se is None:
        se = infer_all_simple(dataset, tes)
    budget = _Budget(cap)
    if not _downward_closed(tes):
        found: list[SimpleSet] = []
        with suppress(EnumerationCapExceeded):
            for r in _repairs_general(se, tes, dataset, budget.spend, preferred):
                found.append(r)
        picks = [(i,) for i in range(len(found))]
        return _in_order(frozenset(), (tuple(found),), picks), budget.left >= 0
    level = attrgetter("level") if preferred else lambda f: 0
    try:
        edges = conflict_hypergraph(se, tes, dataset, budget.spend)
        if edges and not edges[0]:  # no subset is consistent
            return Factored(frozenset(), (), ()), True
        units = []
        for facts, comp_edges in _components([e for e in edges if len(e) > 1]):
            results: list[frozenset] = []
            for result in _component_results(facts, comp_edges, budget, level):
                results.append(result)
                if len(results) > budget.left:
                    break
            units.append(tuple(results))
    except EnumerationCapExceeded:
        return Factored(frozenset(), (), ()), False
    sizes = [len(results) for results in units]
    picks = islice(product(*map(range, sizes)), budget.left)
    found = _in_order(se.difference(*edges), tuple(units), picks)
    if prod(sizes) <= budget.left:
        return found, True
    return regroup(found, found.picks), False


def repairs(dataset: Dataset, tes: TES, se: SimpleSet | None = None,
            cap: int = DEFAULT_CAP) -> RepairSet:
    """Enumerate repairs; a capped run returns the sound partial result.

    `cap` bounds the work: repairs emitted plus dead ends when consistency
    is downward closed, candidate subsets examined otherwise."""
    found, exhaustive = _repair_factors(dataset, tes, se, cap, False)
    return RepairSet(found.models(), exhaustive)


def preferred_repairs(dataset: Dataset, tes: TES, se: SimpleSet | None = None,
                      cap: int = DEFAULT_CAP) -> RepairSet:
    """Repairs preferred under the level ordering: no other repair beats them
    at their first differing confidence level.

    When consistency is downward closed they are the product of each
    component's level-wise results, and `cap` bounds the results emitted
    plus each level's dead ends. Otherwise one subset scan, strongest level
    first, yields them alone, and `cap` bounds the subsets examined."""
    found, exhaustive = _repair_factors(dataset, tes, se, cap, True)
    return RepairSet(found.models(), exhaustive)


def cautious_core(dataset: Dataset, tes: TES, se: SimpleSet | None = None,
                  cap: int = DEFAULT_CAP) -> SimpleSet:
    """Facts present in every repair.

    When consistency is downward closed these are the facts in no edge of
    the conflict hypergraph (none when it has the empty edge): a fact of a
    minimal edge `e` is missing from any repair extending `e` less that
    fact. `cap` then bounds only alternative provenance supports. Otherwise
    the repairs are enumerated. A capped run raises rather than return an
    unsound core."""
    if se is None:
        se = infer_all_simple(dataset, tes)
    spend = _Budget(cap).spend
    if not _downward_closed(tes):
        reps = list(_repairs_general(se, tes, dataset, spend, False))
        return frozenset.intersection(*reps) if reps else frozenset()
    edges = conflict_hypergraph(se, tes, dataset, spend)
    return frozenset() if edges and not edges[0] else se.difference(*edges)


class TimelineResult(Record):
    """Computed timelines for one mode: each model is a full event set,
    simple and meta facts together. `factored` holds them in factored form
    (see `meta.Factored`), which `models` expands when first read."""

    __slots__ = ("mode", "_models", "exhaustive", "factored")
    _fields = ("mode", "models", "exhaustive")

    def __init__(self, mode: str, models: tuple | None, exhaustive: bool,
                 factored: Factored | None = None):
        values = (mode, models, exhaustive, factored or factor_models(models))
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    @property
    def models(self) -> tuple[frozenset, ...]:
        if self._models is None:
            object.__setattr__(self, "_models", self.factored.models())
        return self._models


def timeline(dataset: Dataset, tes: TES, mode: str = "consistent", cap: int = DEFAULT_CAP,
             max_models: int | None = None) -> TimelineResult:
    """Compute the timelines of a rule set over a dataset.

    Modes: "naive" keeps every inferred fact, "consistent" yields one model
    per repair, "preferred" keeps only level-preferred repairs, "cautious"
    yields the single model every repair agrees on. With `max_models`, the
    models past the first that many are neither closed nor kept; the cap
    still counts them.
    """
    se = infer_all_simple(dataset, tes)
    if mode in ("naive", "cautious"):  # one model: its simple facts as the core
        core = se if mode == "naive" else cautious_core(dataset, tes, se=se, cap=cap)
        found, exhaustive = Factored(core, (), ((),)), True
    elif mode in ("consistent", "preferred"):
        found, exhaustive = _repair_factors(dataset, tes, se, cap, mode == "preferred")
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if max_models is not None and max_models < len(found.picks):
        found = regroup(found, found.picks[:max_models])
    return TimelineResult(mode, None, exhaustive, close_factored(tes, dataset, found))


def recognize_timeline(dataset: Dataset, tes: TES, candidate, mode: str = "consistent",
                       cap: int = DEFAULT_CAP) -> bool:
    """Decide whether a given event set is one of the mode's timelines.

    Shape first: the simple part must be inferable and the meta part must be
    exactly what the rules derive from it. When consistency is downward
    closed, the conflict hypergraph decides the rest: the simple part
    contains no edge, every fact left out completes an edge with it, and
    for the preferred check with its same-or-stronger-level slice. Other
    rule sets look the candidate up as the scan yields: it is recognized
    once yielded, and a scan capped before then raises."""
    if mode not in ("consistent", "preferred"):
        raise ValueError(f"unknown mode {mode!r}")
    candidate = frozenset(candidate)
    if not all(tes.is_event_pred(f.pred) for f in candidate):
        return False
    se = infer_all_simple(dataset, tes)
    s_se = frozenset(f for f in candidate if tes.is_simple_pred(f.pred))
    if not s_se <= se:
        return False
    if candidate != s_se | infer_meta(tes, dataset, s_se):
        return False
    preferred = mode == "preferred"
    spend = _Budget(cap).spend
    if not _downward_closed(tes):
        return s_se in _repairs_general(se, tes, dataset, spend, preferred)
    by_fact: dict = {}
    for e in conflict_hypergraph(se, tes, dataset, spend):
        if e <= s_se:
            return False
        for f in e:
            by_fact.setdefault(f, []).append(e)

    def completes_edge(sigma, bound) -> bool:
        # an edge of sigma whose other facts are kept, none weaker than `bound`
        return any(all(f in s_se and f.level <= bound for f in e - {sigma})
                   for e in by_fact.get(sigma, ()))

    return all(completes_edge(sigma, sigma.level if preferred else inf) for sigma in se - s_se)
