"""Conflict handling: repairs, preferred repairs, cautious cores, and
timeline recognition.

A set of simple-event facts is consistent when no two facts about the same
event instance carry clashing intervals and no domain constraint body is
satisfiable over the data plus the facts. Repairs are the maximal
consistent subsets of the inferred simple events; the four timeline modes
differ only in which repairs they keep.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from .errors import EnumerationCapExceeded, GuardViolated
from .language import TES
from .meta import infer_meta
from .model import AnnotatedEventFact, Dataset, EventStore, _end_rank, fact_key
from .query import eval_body
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
    if i.start == j.start:
        return True
    ei, ej = _end_rank(i.end), _end_rank(j.end)
    if ei == ej:
        return True
    return i.start < j.start < ei or j.start < i.start < ej


def _instances(facts) -> dict[tuple, list]:
    """Facts grouped by event instance, the (pred, args) key; only facts of
    one instance can clash."""
    groups: dict[tuple, list] = {}
    for f in facts:
        groups.setdefault(f.key, []).append(f)
    return groups


def clash_pairs(facts) -> Iterator[tuple]:
    """Every clashing pair among the facts, testing pairs within one event
    instance only."""
    for group in _instances(facts).values():
        for a, b in combinations(group, 2):
            if temporal_conflict(a, b):
                yield a, b


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
    return not any(eval_body(c.body, c.var_sorts, dataset, store)
                   for c in tes.constraints)


@dataclass(frozen=True)
class RepairSet:
    """Maximal consistent subsets of the inferred simple events, in canonical
    order; exhaustive is False when enumeration stopped at the cap."""

    repairs: tuple[SimpleSet, ...]
    exhaustive: bool


class _CapHit(Exception):
    pass


class _Budget:
    def __init__(self, cap: int):
        self.left = cap

    def spend(self) -> None:
        if self.left <= 0:
            raise _CapHit()
        self.left -= 1


def _canonical(found: set[SimpleSet]) -> tuple[SimpleSet, ...]:
    return tuple(sorted(found, key=lambda r: sorted(fact_key(f) for f in r)))


def _repairs_conflict_graph(se: SimpleSet, budget: _Budget,
                            found: set[SimpleSet]) -> None:
    """Maximal conflict-free subsets when consistency is purely pairwise.

    Facts in no conflict belong to every repair; over the rest, maximal
    compatible groups are enumerated directly.
    """
    pairs = list(clash_pairs(se))
    conflicted = sorted({f for pair in pairs for f in pair}, key=fact_key)
    core = frozenset(se).difference(conflicted)
    n = len(conflicted)
    pos = {f: i for i, f in enumerate(conflicted)}
    compat = [set(range(n)) - {i} for i in range(n)]
    for a, b in pairs:
        compat[pos[a]].discard(pos[b])
        compat[pos[b]].discard(pos[a])

    def extend(chosen: set[int], allowed: set[int], seen: set[int]) -> None:
        if not allowed and not seen:
            budget.spend()
            found.add(core | frozenset(conflicted[i] for i in chosen))
            return
        pivot = max(allowed | seen, key=lambda v: len(compat[v] & allowed))
        for v in sorted(allowed - compat[pivot]):
            extend(chosen | {v}, allowed & compat[v], seen & compat[v])
            allowed = allowed - {v}
            seen = seen | {v}

    extend(set(), set(range(n)), set())


def _repairs_monotone(se: SimpleSet, tes: TES, dataset: Dataset, budget: _Budget,
                      found: set[SimpleSet]) -> None:
    """Maximal consistent subsets when consistency is downward closed:
    grow/skip each fact in turn, then confirm nothing skipped while addable
    could still be added."""
    facts = sorted(se, key=fact_key)

    def rec(i: int, kept: frozenset, live_dropped: tuple) -> None:
        if i == len(facts):
            for g in live_dropped:
                budget.spend()
                if is_consistent(kept | {g}, tes, dataset):
                    return
            found.add(kept)
            return
        f = facts[i]
        budget.spend()
        if is_consistent(kept | {f}, tes, dataset):
            rec(i + 1, kept | {f}, live_dropped)
            rec(i + 1, kept, live_dropped + (f,))
        else:
            # stays inadmissible against any superset, no justification needed
            rec(i + 1, kept, live_dropped)

    budget.spend()
    if is_consistent(frozenset(), tes, dataset):
        rec(0, frozenset(), ())


def _repairs_general(se: SimpleSet, tes: TES, dataset: Dataset, budget: _Budget,
                     found: set[SimpleSet]) -> None:
    """Maximal consistent subsets under arbitrary constraints: scan subsets
    by decreasing size, keeping those no earlier consistent set contains."""
    facts = sorted(se, key=fact_key)
    consistent_seen: list[frozenset] = []
    for size in range(len(facts), -1, -1):
        for combo in combinations(facts, size):
            s = frozenset(combo)
            budget.spend()
            if is_consistent(s, tes, dataset):
                if not any(s < t for t in consistent_seen):
                    found.add(s)
                consistent_seen.append(s)


def repairs(dataset: Dataset, tes: TES, se: SimpleSet | None = None,
            cap: int = DEFAULT_CAP) -> RepairSet:
    """Enumerate repairs; a capped run returns the sound partial result."""
    if se is None:
        se = infer_all_simple(dataset, tes)
    budget = _Budget(cap)
    found: set[SimpleSet] = set()
    try:
        if not tes.has_domain_constraints:
            _repairs_conflict_graph(se, budget, found)
        elif tes.is_monotone:
            _repairs_monotone(se, tes, dataset, budget, found)
        else:
            _repairs_general(se, tes, dataset, budget, found)
        return RepairSet(_canonical(found), True)
    except _CapHit:
        return RepairSet(_canonical(found), False)


def _level_slices(r: SimpleSet, levels: tuple[int, ...]) -> tuple[frozenset, ...]:
    return tuple(frozenset(f for f in r if f.level == lvl) for lvl in levels)


def _dominates(better: tuple[frozenset, ...], worse: tuple[frozenset, ...]) -> bool:
    """Given two repairs' level slices: strictly larger at the first
    confidence level where the two differ."""
    for a, b in zip(better, worse):
        if a != b:
            return b < a
    return False


def _filter_preferred(reps: tuple[SimpleSet, ...]) -> tuple[SimpleSet, ...]:
    levels = tuple(sorted({f.level for r in reps for f in r}))
    slices = [_level_slices(r, levels) for r in reps]
    return tuple(r for r, s in zip(reps, slices)
                 if not any(_dominates(sp, s) for rp, sp in zip(reps, slices) if rp != r))


def greedy_preferred(se: SimpleSet, tes: TES) -> SimpleSet:
    """Single-pass preferred repair: keep every strongest-level fact, then
    sweep weaker levels adding whatever does not clash with the kept set.

    Only valid without domain constraints and with all termination rules at
    the strongest level; otherwise raises GuardViolated.
    """
    if tes.has_domain_constraints:
        raise GuardViolated("DomainConstraintsPresent")
    if any(lvl != 1 for lvl in tes.termination_levels()):
        raise GuardViolated("TerminationLevelAboveOne")
    kept: set[AnnotatedEventFact] = set()
    for group in _instances(se).values():
        chosen: list[AnnotatedEventFact] = []
        for f in sorted(group, key=lambda f: (f.level, fact_key(f))):
            if not any(temporal_conflict(f, g) for g in chosen):
                chosen.append(f)
        kept.update(chosen)
    return frozenset(kept)


def preferred_repairs(dataset: Dataset, tes: TES, se: SimpleSet | None = None,
                      cap: int = DEFAULT_CAP) -> RepairSet:
    """Repairs preferred under the level ordering: no other repair beats them
    at their first differing confidence level."""
    if se is None:
        se = infer_all_simple(dataset, tes)
    if (not tes.has_domain_constraints
            and all(lvl == 1 for lvl in tes.termination_levels())):
        return RepairSet((greedy_preferred(se, tes),), True)
    rep = repairs(dataset, tes, se=se, cap=cap)
    return RepairSet(_filter_preferred(rep.repairs), rep.exhaustive)


def cautious_core(dataset: Dataset, tes: TES, se: SimpleSet | None = None,
                  cap: int = DEFAULT_CAP) -> SimpleSet:
    """Facts present in every repair.

    Without domain constraints this is exactly the facts in no conflict;
    otherwise the repairs are enumerated, and a capped enumeration raises
    rather than return an unsound core.
    """
    if se is None:
        se = infer_all_simple(dataset, tes)
    if not tes.has_domain_constraints:
        return frozenset(se).difference(f for pair in clash_pairs(se) for f in pair)
    rep = repairs(dataset, tes, se=se, cap=cap)
    if not rep.exhaustive:
        raise EnumerationCapExceeded(cap)
    if not rep.repairs:
        return frozenset()
    core = set(rep.repairs[0])
    for r in rep.repairs[1:]:
        core &= r
    return frozenset(core)


@dataclass(frozen=True)
class TimelineResult:
    """Computed timelines for one mode: each model is a full event set,
    simple and meta facts together."""

    mode: str
    models: tuple[SimpleSet, ...]
    exhaustive: bool


def timeline(dataset: Dataset, tes: TES, mode: str = "consistent",
             cap: int = DEFAULT_CAP) -> TimelineResult:
    """Compute the timelines of a rule set over a dataset.

    Modes: "naive" keeps every inferred fact, "consistent" yields one model
    per repair, "preferred" keeps only level-preferred repairs, "cautious"
    yields the single model every repair agrees on.
    """
    se = infer_all_simple(dataset, tes)
    if mode == "naive":
        return TimelineResult(mode, (se | infer_meta(tes, dataset, se),), True)
    if mode == "cautious":
        core = cautious_core(dataset, tes, se=se, cap=cap)
        return TimelineResult(mode, (core | infer_meta(tes, dataset, core),), True)
    if mode == "consistent":
        rep = repairs(dataset, tes, se=se, cap=cap)
    elif mode == "preferred":
        rep = preferred_repairs(dataset, tes, se=se, cap=cap)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    models = tuple(r | infer_meta(tes, dataset, r) for r in rep.repairs)
    return TimelineResult(mode, models, rep.exhaustive)


def recognize_timeline(dataset: Dataset, tes: TES, candidate, mode: str = "consistent",
                       cap: int = DEFAULT_CAP) -> bool:
    """Decide whether a given event set is one of the mode's timelines.

    Shape first: the simple part must be inferable and the meta part must be
    exactly what the rules derive from it. Consistency and maximality follow;
    with monotone rules maximality needs only single-fact probes, and the
    preferred check compares against same-or-stronger-level slices.
    """
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
    if not is_consistent(s_se, tes, dataset):
        return False
    rest = sorted(se - s_se, key=fact_key)
    if tes.is_monotone:
        for sigma in rest:
            if is_consistent(s_se | {sigma}, tes, dataset):
                return False
        if mode == "preferred":
            for sigma in rest:
                prefix = frozenset(f for f in s_se if f.level <= sigma.level)
                if is_consistent(prefix | {sigma}, tes, dataset):
                    return False
        return True
    rep = repairs(dataset, tes, se=se, cap=cap)
    if not rep.exhaustive:
        raise EnumerationCapExceeded(cap)
    pool = _filter_preferred(rep.repairs) if mode == "preferred" else rep.repairs
    return s_se in set(pool)
