"""Core value model: timepoints, intervals, terms, facts, and fact containers.

Timepoints are naturals. The right end of an interval is either a natural or
the ongoing marker ``STAR``, which compares greater than every natural so that
ordinary ``<``/``max`` work on mixed endpoints.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .errors import InvalidInterval, SortError, UnboundVariable


class Star:
    """The ongoing-interval marker; a singleton ordered above every natural."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "*"

    def __reduce__(self):
        return "STAR"  # unpickle to the module singleton, preserving identity

    def __lt__(self, other):
        if isinstance(other, (int, Star)):
            return False
        return NotImplemented

    def __le__(self, other):
        if isinstance(other, Star):
            return True
        if isinstance(other, int):
            return False
        return NotImplemented

    def __gt__(self, other):
        if isinstance(other, int):
            return True
        if isinstance(other, Star):
            return False
        return NotImplemented

    def __ge__(self, other):
        if isinstance(other, (int, Star)):
            return True
        return NotImplemented


STAR = Star()

# A data value is a symbol or a natural; interval ends may also be STAR.
Value = Union[str, int]
Timepoint = int


@dataclass(frozen=True)
class Interval:
    """A closed interval [start, end] over naturals; end may be STAR (ongoing)."""

    start: int
    end: int | Star

    def __post_init__(self):
        if not isinstance(self.start, int) or isinstance(self.start, bool) or self.start < 0:
            raise InvalidInterval(f"bad interval start: {self.start!r}")
        if isinstance(self.end, Star):
            return
        if not isinstance(self.end, int) or isinstance(self.end, bool) or self.end < 0:
            raise InvalidInterval(f"bad interval end: {self.end!r}")
        if self.end < self.start:
            raise InvalidInterval(f"interval end {self.end} before start {self.start}")

    @property
    def ongoing(self) -> bool:
        return isinstance(self.end, Star)

    def contains(self, other: "Interval") -> bool:
        return self.start <= other.start and other.end <= self.end

    def intersect(self, other: "Interval") -> "Interval | None":
        """Intersection of two intervals, or None when they are disjoint."""
        lo = max(self.start, other.start)
        hi = min(self.end, other.end, key=_end_rank)
        if not isinstance(hi, Star) and hi < lo:
            return None
        return Interval(lo, hi)

    def __repr__(self) -> str:
        return f"[{self.start},{self.end}]"


def _end_rank(e: int | Star) -> float:
    return float("inf") if isinstance(e, Star) else float(e)


def interval_key(i: Interval) -> tuple:
    """Sort key ordering intervals by start, then end, with ongoing last."""
    return (i.start, 1, 0) if i.ongoing else (i.start, 0, i.end)


_ALLEN_NAMES = (
    "before", "meets", "overlaps", "starts", "during", "finishes", "equals",
    "after", "met_by", "overlapped_by", "started_by", "contains", "finished_by",
)


def allen_relation(a: Interval, b: Interval) -> str:
    """The unique Allen relation holding from a to b (point intervals included)."""
    s = _cmp(a.start, b.start)
    e = _cmp_end(a.end, b.end)
    if s == 0:
        if e == 0:
            return "equals"
        return "starts" if e < 0 else "started_by"
    if e == 0:
        return "finished_by" if s < 0 else "finishes"
    if s < 0 and e > 0:
        return "contains"
    if s > 0 and e < 0:
        return "during"
    if s < 0:
        # a begins first and ends first: separated, touching, or overlapping
        if isinstance(a.end, Star):  # unreachable: e > 0 would hold
            return "overlaps"
        if a.end < b.start:
            return "before"
        return "meets" if a.end == b.start else "overlaps"
    if isinstance(b.end, Star):
        return "overlapped_by"
    if b.end < a.start:
        return "after"
    return "met_by" if b.end == a.start else "overlapped_by"


def _cmp(x: int, y: int) -> int:
    return (x > y) - (x < y)


def _cmp_end(x: int | Star, y: int | Star) -> int:
    xs, ys = isinstance(x, Star), isinstance(y, Star)
    if xs or ys:
        return (not ys) - (not xs)
    return (x > y) - (x < y)


# ---------------------------------------------------------------------------
# Terms


class SortKind(enum.Enum):
    """Static sort of a variable or term position."""

    DATA = "data"
    NAT = "nat"
    POSNAT = "posnat"
    NAT_OR_STAR = "nat_or_star"
    INTERVAL = "interval"  # internal: variables standing for whole intervals


@dataclass(frozen=True)
class Const:
    """A symbolic data constant."""

    name: str


@dataclass(frozen=True)
class Nat:
    """A natural-number literal (usable as data or as a timepoint)."""

    value: int


@dataclass(frozen=True)
class Var:
    name: str

    @property
    def is_wildcard(self) -> bool:
        return self.name.startswith("_")


@dataclass(frozen=True)
class StarTerm:
    """The literal ongoing marker in rule text."""


@dataclass(frozen=True)
class FnApp:
    """Application of min, max, plus, or minus to numeric terms."""

    fn: str
    args: tuple["Term", ...]


@dataclass(frozen=True)
class IntervalTerm:
    """A literal interval [lo, hi] built from two endpoint terms."""

    lo: "Term"
    hi: "Term"


@dataclass(frozen=True)
class IntervalFn:
    """Intersection of interval terms; evaluates to None when empty."""

    args: tuple["Term", ...]


Term = Union[Const, Nat, Var, StarTerm, FnApp, IntervalTerm, IntervalFn]

FN_NAMES = ("min", "max", "plus", "minus")


def term_vars(t: Term) -> Iterator[Var]:
    """All variable occurrences inside a term, in left-to-right order."""
    if isinstance(t, Var):
        yield t
    elif isinstance(t, FnApp):
        for a in t.args:
            yield from term_vars(a)
    elif isinstance(t, IntervalTerm):
        yield from term_vars(t.lo)
        yield from term_vars(t.hi)
    elif isinstance(t, IntervalFn):
        for a in t.args:
            yield from term_vars(a)


def eval_term(t: Term, binding: Mapping[str, object]):
    """Evaluate a ground-under-binding term to a value.

    Interval-sorted terms may evaluate to None, meaning the empty interval;
    callers derive no fact from an empty interval.
    """
    if isinstance(t, Const):
        return t.name
    if isinstance(t, Nat):
        return t.value
    if isinstance(t, StarTerm):
        return STAR
    if isinstance(t, Var):
        try:
            return binding[t.name]
        except KeyError:
            raise UnboundVariable(t.name) from None
    if isinstance(t, FnApp):
        vals = [eval_term(a, binding) for a in t.args]
        for v in vals:
            if isinstance(v, str):
                raise SortError(f"symbol {v!r} used in {t.fn}")
        if t.fn in ("min", "max"):
            return min(vals, key=_end_rank) if t.fn == "min" else max(vals, key=_end_rank)
        for v in vals:
            if isinstance(v, Star):
                raise SortError(f"ongoing marker used in {t.fn}")
        if t.fn == "plus":
            return vals[0] + vals[1]
        return max(vals[0] - vals[1], 0)  # natural subtraction
    if isinstance(t, IntervalTerm):
        lo = eval_term(t.lo, binding)
        hi = eval_term(t.hi, binding)
        if isinstance(lo, Star) or isinstance(lo, str) or isinstance(hi, str):
            raise SortError(f"bad interval endpoint in {t}")
        if not isinstance(hi, Star) and hi < lo:
            return None
        return Interval(lo, hi)
    if isinstance(t, IntervalFn):
        acc: Interval | None = None
        for a in t.args:
            v = eval_term(a, binding)
            if v is None:
                return None
            if not isinstance(v, Interval):
                raise SortError(f"non-interval argument to inter: {v!r}")
            acc = v if acc is None else acc.intersect(v)
            if acc is None:
                return None
        return acc
    raise TypeError(f"not a term: {t!r}")


# ---------------------------------------------------------------------------
# Facts


@dataclass(frozen=True)
class AtemporalFact:
    pred: str
    args: tuple[Value, ...]


@dataclass(frozen=True)
class ObservationFact:
    pred: str
    args: tuple[Value, ...]
    t: Timepoint


@dataclass(frozen=True)
class EventFact:
    """An event over an interval, without a confidence annotation."""

    pred: str
    args: tuple[Value, ...]
    interval: Interval


@dataclass(frozen=True)
class AnnotatedEventFact:
    """An event over an interval at a confidence level (1 is the strongest)."""

    pred: str
    args: tuple[Value, ...]
    interval: Interval
    level: int

    def strip(self) -> EventFact:
        return EventFact(self.pred, self.args, self.interval)

    @property
    def key(self) -> tuple[str, tuple[Value, ...]]:
        return (self.pred, self.args)


Fact = Union[AtemporalFact, ObservationFact, EventFact, AnnotatedEventFact]


def value_key(v: Value) -> tuple:
    # ints sort before symbols; bool is not a data value
    return (0, v, "") if isinstance(v, int) else (1, 0, v)


def args_key(args: tuple[Value, ...]) -> tuple:
    return tuple(value_key(a) for a in args)


def fact_key(f) -> tuple:
    """Total deterministic order over facts of any kind."""
    if isinstance(f, AtemporalFact):
        return (0, f.pred, args_key(f.args), (), 0)
    if isinstance(f, ObservationFact):
        return (1, f.pred, args_key(f.args), (f.t,), 0)
    if isinstance(f, EventFact):
        return (2, f.pred, args_key(f.args), interval_key(f.interval), 0)
    return (3, f.pred, args_key(f.args), interval_key(f.interval), f.level)


def _group_by_args(facts: Iterable, positions: tuple[int, ...]) -> dict[tuple, list]:
    """Facts grouped by their argument values at `positions`, order kept."""
    index: dict[tuple, list] = {}
    for f in facts:
        index.setdefault(tuple([f.args[i] for i in positions]), []).append(f)
    return index


class Dataset:
    """An immutable collection of atemporal and observation facts.

    `probe` narrows a predicate's facts to those with given values at some
    argument positions through a hash index built on first use.
    """

    def __init__(self, facts: Iterable[AtemporalFact | ObservationFact] = ()):
        atemporal: dict[str, list[AtemporalFact]] = {}
        observations: dict[str, list[ObservationFact]] = {}
        seen: set = set()
        for f in facts:
            if f in seen:
                continue
            seen.add(f)
            if isinstance(f, AtemporalFact):
                atemporal.setdefault(f.pred, []).append(f)
            elif isinstance(f, ObservationFact):
                observations.setdefault(f.pred, []).append(f)
            else:
                raise TypeError(f"not a dataset fact: {f!r}")
        self._atemporal = {p: tuple(sorted(fs, key=fact_key)) for p, fs in atemporal.items()}
        self._observations = {p: tuple(sorted(fs, key=fact_key)) for p, fs in observations.items()}
        self._all = frozenset(seen)
        self._indexes: dict[tuple, dict[tuple, list]] = {}

    @property
    def facts(self) -> frozenset:
        return self._all

    def atemporal(self, pred: str) -> tuple[AtemporalFact, ...]:
        return self._atemporal.get(pred, ())

    def observations(self, pred: str) -> tuple[ObservationFact, ...]:
        return self._observations.get(pred, ())

    def probe(self, kind: type, pred: str, positions: tuple[int, ...],
              values: tuple) -> Sequence[AtemporalFact | ObservationFact]:
        """Facts of one kind (AtemporalFact or ObservationFact) and predicate
        whose arguments at `positions` equal `values`. Do not mutate."""
        facts = (self._atemporal if kind is AtemporalFact else self._observations).get(pred, ())
        if not positions:
            return facts
        index = self._indexes.get((kind, pred, positions))
        if index is None:
            index = self._indexes[kind, pred, positions] = _group_by_args(facts, positions)
        return index.get(values, ())

    def __len__(self) -> int:
        return len(self._all)

    def __contains__(self, f) -> bool:
        return f in self._all


class EventStore:
    """Annotated event facts indexed by predicate, by (predicate, args) key,
    and by values at chosen argument positions (built on first `probe`,
    then kept up to date by `add`)."""

    def __init__(self, facts: Iterable[AnnotatedEventFact] = ()):
        self._facts: set[AnnotatedEventFact] = set()
        self._by_pred: dict[str, list[AnnotatedEventFact]] = {}
        self._by_key: dict[tuple, list[AnnotatedEventFact]] = {}
        # pred -> positions -> values at those positions -> facts
        self._indexes: dict[str, dict[tuple[int, ...], dict[tuple, list]]] = {}
        self.add_all(facts)

    def add(self, f: AnnotatedEventFact) -> bool:
        if f in self._facts:
            return False
        self._facts.add(f)
        self._by_pred.setdefault(f.pred, []).append(f)
        self._by_key.setdefault(f.key, []).append(f)
        for positions, index in self._indexes.get(f.pred, {}).items():
            index.setdefault(tuple([f.args[i] for i in positions]), []).append(f)
        return True

    def add_all(self, facts: Iterable[AnnotatedEventFact]) -> list[AnnotatedEventFact]:
        return [f for f in facts if self.add(f)]

    def copy(self) -> "EventStore":
        """An independent store with the same facts and built indexes."""
        other = EventStore()
        other._facts = set(self._facts)
        other._by_pred = {p: list(fs) for p, fs in self._by_pred.items()}
        other._by_key = {k: list(fs) for k, fs in self._by_key.items()}
        other._indexes = {p: {pos: {v: list(fs) for v, fs in index.items()}
                              for pos, index in by_pos.items()}
                          for p, by_pos in self._indexes.items()}
        return other

    def by_pred(self, pred: str) -> tuple[AnnotatedEventFact, ...]:
        return tuple(self._by_pred.get(pred, ()))

    def by_key(self, pred: str, args: tuple[Value, ...]) -> tuple[AnnotatedEventFact, ...]:
        return tuple(self._by_key.get((pred, args), ()))

    def probe(self, pred: str, positions: tuple[int, ...],
              values: tuple) -> Sequence[AnnotatedEventFact]:
        """Facts of `pred` whose arguments at `positions` equal `values`,
        without copying; the result must not be mutated or held across an
        `add`. With every position given this reads the (pred, args) map."""
        facts = self._by_pred.get(pred, ())
        if not positions or not facts:
            return facts
        if len(positions) == len(facts[0].args):
            return self._by_key.get((pred, values), ())
        indexes = self._indexes.setdefault(pred, {})
        index = indexes.get(positions)
        if index is None:
            index = indexes[positions] = _group_by_args(facts, positions)
        return index.get(values, ())

    @property
    def facts(self) -> frozenset:
        return frozenset(self._facts)

    def __len__(self) -> int:
        return len(self._facts)

    def __contains__(self, f) -> bool:
        return f in self._facts
