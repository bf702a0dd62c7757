"""Independent reference implementations used to validate the fast paths.

Everything here trades speed for directness: subsets are enumerated
explicitly, truth tables are scanned in full, and candidate intervals are
checked one by one against the defining conditions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from timeloom.errors import IoError, TimeloomError
from timeloom.language import TES, parse_tes
from timeloom.meta import _close, link
from timeloom.model import (
    STAR,
    AnnotatedEventFact,
    AtemporalFact,
    Dataset,
    EventStore,
    Interval,
    ObservationFact,
    fact_key,
)
from timeloom.repair import is_consistent, temporal_conflict
from timeloom.simple import infer_all_simple

SimpleSet = frozenset


class TooLarge(TimeloomError):
    """A brute-force oracle was asked to enumerate an infeasibly large set."""

    def __init__(self, size: int):
        self.size = size
        super().__init__(f"instance with {size} facts is too large for exhaustive search")


def brute_repairs(dataset: Dataset, tes: TES, se: SimpleSet | None = None) -> tuple[SimpleSet, ...]:
    """Every maximal consistent subset, found by scanning all subsets.

    Instances above 18 facts are refused rather than ground through.
    """
    if se is None:
        se = infer_all_simple(dataset, tes)
    facts = sorted(se, key=fact_key)
    n = len(facts)
    if n > 18:
        raise TooLarge(n)
    if tes.constraints:
        consistent = [m for m in range(1 << n)
                      if is_consistent(_subset(facts, m), tes, dataset)]
    else:
        clash = [sum(1 << j for j in range(n)
                     if j != i and temporal_conflict(facts[i], facts[j]))
                 for i in range(n)]
        consistent = [m for m in range(1 << n)
                      if all(not (m >> i & 1) or not (clash[i] & m) for i in range(n))]
    cons_set = set(consistent)
    if tes.constraints and not tes.is_monotone:
        maximal = [m for m in consistent
                   if not any(s != m and s & m == m for s in consistent)]
    else:
        # consistency only shrinks as facts are added: single-fact probes suffice
        maximal = [m for m in consistent
                   if all(m >> i & 1 or (m | (1 << i)) not in cons_set for i in range(n))]
    reps = {_subset(facts, m) for m in maximal}
    return tuple(sorted(reps, key=lambda r: sorted(fact_key(f) for f in r)))


def _subset(facts: list, mask: int) -> frozenset:
    return frozenset(f for i, f in enumerate(facts) if mask >> i & 1)


def reference_fact_key(f) -> tuple:
    """`model.fact_key` as first written: each kind told by isinstance,
    each argument keyed in a generator, ints before symbols."""
    args = tuple((0, a, "") if isinstance(a, int) else (1, 0, a) for a in f.args)
    if isinstance(f, AtemporalFact):
        return (0, f.pred, args, (), 0)
    if isinstance(f, ObservationFact):
        return (1, f.pred, args, (f.t,), 0)
    return (2, f.pred, args, (f.interval.start, f.interval.end), f.level)


def link_classes(tes: TES, dataset: Dataset, union: frozenset[tuple],
                 shared: frozenset[tuple], groups: Sequence[frozenset]) -> Callable:
    """The links of `union`'s closure from scratch, over event rows: close `union` once,
    linking each derived fact outside `shared` with the facts outside
    `shared` its body matched, and the facts of each of `groups` with each
    other. Returns the class representative of a fact (`meta.link`)."""
    groups = list(groups)
    store = EventStore(union)

    def absorb(fired):
        for matched, head in fired:
            if head not in shared:
                groups.append([head, *[f for f in matched if f not in shared]])
        return store.add_all([f for _, f in fired])

    _close(tes, dataset, store, absorb, witnesses=True)
    return link(groups)


def brute_independent_sets(n: int, edges) -> set[frozenset[int]]:
    """The maximal independent sets of a hypergraph on 0..n-1: the subsets
    holding no edge to which no vertex can be added, by scanning all
    subsets."""
    masks = [sum(1 << v for v in e) for e in edges]
    free = [not any(s & m == m for m in masks) for s in range(1 << n)]
    return {frozenset(v for v in range(n) if s >> v & 1) for s in range(1 << n)
            if free[s] and not any(free[s | 1 << v] for v in range(n) if not s >> v & 1)}


def brute_preferred(reps: tuple[SimpleSet, ...]) -> tuple[SimpleSet, ...]:
    """Filter repairs to those no other repair beats at the first
    confidence level where the two differ."""
    levels = sorted({f.level for r in reps for f in r})

    def beats(rp, r):
        for lvl in levels:
            a = frozenset(f for f in rp if f.level == lvl)
            b = frozenset(f for f in r if f.level == lvl)
            if a != b:
                return b < a
        return False

    return tuple(r for r in reps if not any(beats(rp, r) for rp in reps if rp != r))


# An instance's evidence as the walk reads it: its existence and its
# termination (timepoint, level) pairs.
Timepoints = tuple


def window_values(aux, key) -> list[int]:
    """The window values an instance of a grounded `AuxStore` reads: those
    of its own window rules and of its predicate's schematic ones."""
    return sorted(aux.windows.get(key, set()) | aux.default_windows.get(key[0], set()))


def points_at(pairs, level: int) -> tuple[int, ...]:
    """The sorted timepoints of the pairs whose level is at most `level`:
    what that level sees of one side of an instance's evidence."""
    return tuple(sorted({t for t, lvl in pairs if lvl <= level}))


def max_level(tp: Timepoints) -> int:
    """The highest confidence level any evidence of the instance names, 0
    without evidence."""
    return max((lvl for pairs in tp for _, lvl in pairs), default=0)


def oracle_infer(tp: Timepoints, persistent: bool,
                 w: int | None = None) -> set[tuple[Interval, int]]:
    """Infer one instance's intervals by checking every candidate against
    the defining conditions."""
    return {(iv, lvl)
            for iv in candidate_intervals(tp, persistent)
            for lvl in range(1, max_level(tp) + 1)
            if oracle_check_interval(persistent, tp, iv, lvl, w)}


# ---------------------------------------------------------------------------
# Definitional checker


def oracle_check_interval(persistent: bool, tp: Timepoints, interval: Interval,
                          level: int, w: int | None = None) -> bool:
    """Check one candidate interval directly against the defining conditions.

    This is the item-by-item reference used to test the constructive
    inference; it is deliberately literal rather than fast.
    """
    if level < 1 or level > max_level(tp):
        return False
    if persistent:
        if not _pers_items(tp, interval, level):
            return False
        return all(not _pers_items(tp, interval, lo) for lo in range(1, level))
    if w is None or w < 1 or interval.ongoing:
        return False
    if not _np_items(tp, interval, level, w):
        return False
    return all(not _np_items(tp, interval, lo, w) for lo in range(1, level))


def _np_items(tp: Timepoints, interval: Interval, level: int, w: int) -> bool:
    te, tx = set(points_at(tp[0], level)), set(points_at(tp[1], level))
    t1, t2 = interval.start, interval.end
    # existence chain from t1, gaps within w, confined to the interval
    pts = sorted(p for p in te if t1 <= p <= t2)
    if not pts or pts[0] != t1:
        return False
    chain_ends = [pts[0]]
    for p in pts[1:]:
        if p - chain_ends[-1] <= w:
            chain_ends.append(p)
        else:
            break
    # no termination strictly inside [t1, t2)
    if any(t1 <= x < t2 for x in tx):
        return False
    # every existence point just before t1 was terminated before t1
    for t1n in te:
        if t1 - w <= t1n < t1 and not any(t1n <= x < t1 for x in tx):
            return False
    for tn in chain_ends:
        # closed at the first termination at or after the chain end
        if tn <= t2 <= tn + w and t2 in tx:
            return True
        # open chain end with no evidence within the window after it
        if t2 == tn and not any(tn < x <= tn + w for x in te | tx):
            return True
    return False


def _pers_items(tp: Timepoints, interval: Interval, level: int) -> bool:
    te, tx = set(points_at(tp[0], level)), set(points_at(tp[1], level))
    t1, t2 = interval.start, interval.end
    if t1 not in te:
        return False
    # every earlier existence point was terminated before t1
    for t1n in te:
        if t1n < t1 and not any(t1n <= x < t1 for x in tx):
            return False
    if interval.ongoing:
        return not any(x >= t1 for x in tx)
    if t2 not in tx:
        return False
    return not any(t1 <= x < t2 for x in tx)


def candidate_intervals(tp: Timepoints, persistent: bool) -> list[Interval]:
    """Every interval a definitional check could accept: pairs of mentioned
    timepoints, plus ongoing ends for persistent instances."""
    pts = sorted({t for lvl in range(1, max_level(tp) + 1)
                  for pairs in tp for t in points_at(pairs, lvl)})
    out = [Interval(a, b) for a in pts for b in pts if a <= b]
    if persistent:
        out += [Interval(a, STAR) for a in pts]
    return sorted(out, key=lambda i: (i.start, i.end))


# ---------------------------------------------------------------------------
# Propositional formulas


@dataclass(frozen=True)
class Cnf3:
    """A 3CNF formula: clauses of exactly three nonzero literals, where
    literal n means variable n and -n its negation."""

    num_vars: int
    clauses: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if self.num_vars < 1 or not self.clauses:
            raise IoError("a formula needs at least one variable and one clause")
        for cl in self.clauses:
            for lit in cl:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise IoError(f"literal {lit} out of range")


def read_dimacs(text: str) -> Cnf3:
    """Read a DIMACS-style CNF: a "p cnf" header, comment lines starting
    with c, and zero-terminated clauses of up to three literals (shorter
    clauses are padded by repetition)."""
    num_vars = None
    body: list[int] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise IoError(f"bad header {line!r}")
            num_vars = int(parts[2])
            continue
        try:
            body.extend(int(tok) for tok in line.split())
        except ValueError:
            raise IoError(f"bad clause line {line!r}") from None
    if num_vars is None:
        raise IoError("missing p cnf header")
    clauses: list[tuple[int, int, int]] = []
    cur: list[int] = []
    for lit in body:
        if lit == 0:
            if not 1 <= len(cur) <= 3:
                raise IoError(f"clause {cur} must have one to three literals")
            while len(cur) < 3:
                cur.append(cur[-1])
            clauses.append(tuple(cur))
            cur = []
        else:
            cur.append(lit)
    if cur:
        raise IoError("unterminated clause")
    return Cnf3(num_vars, tuple(clauses))


def sat_by_truth_table(cnf: Cnf3) -> bool:
    """Exhaustive satisfiability check."""
    for bits in range(1 << cnf.num_vars):
        if all(any((lit > 0) == bool(bits >> (abs(lit) - 1) & 1) for lit in cl)
               for cl in cnf.clauses):
            return True
    return False


# ---------------------------------------------------------------------------
# Satisfiability reductions
#
# Both encoders plant a zero-argument persistent "probe" event alongside a
# pair of candidate "assigned" events per variable. Repairs then mirror
# truth assignments, and the probe's fate across repairs tracks whether the
# formula can be satisfied.

_CONSISTENT_RULES = """\
decl observation variable/1.
decl atemporal clause/6.
decl persistent probe/0.
decl persistent assigned/2.

exists_pers(probe, T, 1) :- variable(X, T).
exists_pers(assigned(X, 1), T, 1) :- variable(X, T).
exists_pers(assigned(X, 0), T, 1) :- variable(X, T).

constraint :- assigned(X, 1, [T, T2]), assigned(X, 0, [T, T2]).
constraint :- variable(X, T), probe([T, T2]), assigned(Y, B, [T, T2]),
    not assigned(X, 1, [T, T2]), not assigned(X, 0, [T, T2]).
constraint :- clause(X1, Y1, X2, Y2, X3, Y3), probe([T, T2]), assigned(Z, B, [T, T2]),
    not assigned(X1, Y1, [T, T2]), not assigned(X2, Y2, [T, T2]),
    not assigned(X3, Y3, [T, T2]).
"""

_CAUTIOUS_RULES = """\
decl observation variable/1.
decl atemporal clause/7.
decl atemporal first/1.
decl atemporal next/2.
decl atemporal last/1.
decl persistent probe/0.
decl persistent assigned/2.
decl meta satisfied/1.

exists_pers(probe, T, 1) :- variable(X, T).
exists_pers(assigned(X, 1), T, 1) :- variable(X, T).
exists_pers(assigned(X, 0), T, 1) :- variable(X, T).

meta satisfied(C, I, 1) :- first(C), clause(C, X1, Y1, _, _, _, _), assigned(X1, Y1, I, L).
meta satisfied(C, I, 1) :- first(C), clause(C, _, _, X2, Y2, _, _), assigned(X2, Y2, I, L).
meta satisfied(C, I, 1) :- first(C), clause(C, _, _, _, _, X3, Y3), assigned(X3, Y3, I, L).
meta satisfied(C2, I, 1) :- next(C1, C2), satisfied(C1, I, L1), clause(C2, X1, Y1, _, _, _, _), assigned(X1, Y1, I, L2).
meta satisfied(C2, I, 1) :- next(C1, C2), satisfied(C1, I, L1), clause(C2, _, _, X2, Y2, _, _), assigned(X2, Y2, I, L2).
meta satisfied(C2, I, 1) :- next(C1, C2), satisfied(C1, I, L1), clause(C2, _, _, _, _, X3, Y3), assigned(X3, Y3, I, L2).

constraint :- assigned(X, 1, I), assigned(X, 0, I).
constraint :- probe(I), last(C), satisfied(C, I).
"""


def _var(i: int) -> str:
    return f"v{i}"


def _lit_pair(lit: int) -> tuple[str, int]:
    return _var(abs(lit)), 1 if lit > 0 else 0


def encode_3sat_consistent(cnf: Cnf3) -> tuple[Dataset, TES]:
    """Reduction targeting timeline recognition: the probe-only event set is
    one of the consistent timelines exactly when the formula is
    unsatisfiable, since any satisfying assignment extends it."""
    facts: list = [ObservationFact("variable", (_var(i),), 0)
                   for i in range(1, cnf.num_vars + 1)]
    for cl in cnf.clauses:
        args = sum((_lit_pair(lit) for lit in cl), ())
        facts.append(AtemporalFact("clause", args))
    return Dataset(facts), parse_tes(_CONSISTENT_RULES)


def encode_3sat_cautious(cnf: Cnf3) -> tuple[Dataset, TES]:
    """Reduction targeting the cautious core: clause satisfaction is chained
    through the clause list, a satisfied final clause expels the probe from
    a repair, so the probe survives every repair exactly when the formula is
    unsatisfiable."""
    facts: list = [ObservationFact("variable", (_var(i),), 0)
                   for i in range(1, cnf.num_vars + 1)]
    ids = [f"c{j}" for j in range(1, len(cnf.clauses) + 1)]
    for cid, cl in zip(ids, cnf.clauses):
        args = (cid,) + sum((_lit_pair(lit) for lit in cl), ())
        facts.append(AtemporalFact("clause", args))
    facts.append(AtemporalFact("first", (ids[0],)))
    facts.append(AtemporalFact("last", (ids[-1],)))
    for a, b in zip(ids, ids[1:]):
        facts.append(AtemporalFact("next", (a, b)))
    return Dataset(facts), parse_tes(_CAUTIOUS_RULES)


def probe_fact() -> AnnotatedEventFact:
    """The distinguished fact both reductions revolve around."""
    return AnnotatedEventFact("probe", (), Interval(0, STAR), 1)
