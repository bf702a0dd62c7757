"""Core value model: timepoints, intervals, terms, facts, and fact containers.

Timepoints are naturals. The right end of an interval is either a natural or
the ongoing marker ``STAR``, which is ``math.inf``: it compares greater than
every natural, so ordinary ``<``, ``min`` and ``max`` work on mixed endpoints,
and it hashes and pickles like any float. Rule text and output spell it ``*``.
"""

from __future__ import annotations

import enum
import math
from operator import attrgetter, itemgetter
from typing import Callable, Collection, Iterable, Mapping, Sequence, Union

from .errors import InvalidInterval, NaturalOverflow, SortError, UnboundVariable

STAR = math.inf  # the ongoing end of an interval

# A data value is a symbol or a natural; interval ends may also be STAR.
Value = Union[str, int]

# A natural has at most this many digits, whether read or derived, on every
# Python version: from CPython 3.10.7 on, int() and str() refuse more by
# default.
MAX_DIGITS = 4300
_PAST_MAX_DIGITS = 10 ** MAX_DIGITS  # the least natural with more digits


_MISSING = object()


class Record:
    """Base of the immutable value classes; creating a subclass generates
    no code. A subclass keeps its values in `__slots__`, whose first names,
    listed in `_fields`, are its constructor arguments in order; trailing
    ones may have `_defaults`. Equality, hashing, `repr`, pickling and
    `_replace` read the fields. An instance equals only instances of its own
    class whose fields are equal, the `_uncompared` ones aside."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _uncompared: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls):
        # the setter of each field, then of each other slot: __setattr__
        # refuses, so constructors store through these
        names = cls._fields + tuple([name for name in cls.__slots__ if name not in cls._fields])
        cls._setters = tuple([getattr(cls, name).__set__ for name in names])
        compared = tuple([name for name in cls._fields if name not in cls._uncompared])
        # an instance's compared fields as a tuple
        cls._key_of = staticmethod(attrgetter(*compared) if len(compared) > 1 else
                                   lambda self: tuple([getattr(self, n) for n in compared]))

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._complete(args, kwargs)
        for setter, value in zip(self._setters, args):
            setter(self, value)

    @classmethod
    def _complete(cls, args: tuple, kwargs: dict) -> list:
        """The value of each field, from a call that names some of them or
        leaves some to their defaults."""
        if len(args) > len(cls._fields):
            raise TypeError(f"{cls.__name__} takes {len(cls._fields)} arguments, got {len(args)}")
        values = list(args)
        for name in cls._fields[len(args):]:
            values.append(kwargs.pop(name, cls._defaults.get(name, _MISSING)))
            if values[-1] is _MISSING:
                raise TypeError(f"{cls.__name__} missing argument {name!r}")
        if kwargs:
            raise TypeError(f"{cls.__name__} got an unexpected argument {next(iter(kwargs))!r}")
        return values

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key_of(self) == self._key_of(other)

    def __hash__(self) -> int:
        return hash(self._key_of(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # rebuilt through the constructor, which validates and stores hashes
        return type(self), tuple([getattr(self, name) for name in self._fields])

    def _replace(self, **changes):
        """A copy with the given fields changed."""
        return type(self)(**{**{name: getattr(self, name) for name in self._fields}, **changes})

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _stored_hash(self) -> int:
    return self._hash


class Interval(Record):
    """A closed interval [start, end] over naturals; end may be STAR (ongoing)."""

    __slots__ = ("start", "end", "_hash")
    _fields = ("start", "end")
    __hash__ = _stored_hash

    def __init__(self, start: int, end: int | float):  # end: a natural, or STAR
        if not isinstance(start, int) or isinstance(start, bool) or start < 0:
            raise InvalidInterval(f"bad interval start: {start!r}")
        if end != STAR:
            if not isinstance(end, int) or isinstance(end, bool) or end < 0:
                raise InvalidInterval(f"bad interval end: {end!r}")
            if end < start:
                raise InvalidInterval(f"interval end {end} before start {start}")
        set_start, set_end, set_hash = self._setters
        set_start(self, start)
        set_end(self, end)
        set_hash(self, hash((start, end)))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._hash == other._hash and self.start == other.start and self.end == other.end

    @property
    def ongoing(self) -> bool:
        return self.end == STAR

    def intersect(self, other: "Interval") -> "Interval | None":
        """Intersection of two intervals, or None when they are disjoint."""
        lo, hi = max(self.start, other.start), min(self.end, other.end)
        return None if hi < lo else Interval(lo, hi)

    def __repr__(self) -> str:
        return f"[{self.start},{'*' if self.ongoing else self.end}]"


def allen_relation(a: Interval, b: Interval) -> str:
    """The unique Allen relation holding from a to b (point intervals included)."""
    s = _cmp(a.start, b.start)
    e = _cmp(a.end, b.end)
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
        if a.end < b.start:
            return "before"
        return "meets" if a.end == b.start else "overlaps"
    if b.end < a.start:
        return "after"
    return "met_by" if b.end == a.start else "overlapped_by"


def _cmp(x, y) -> int:
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


class Const(Record):
    """A symbolic data constant."""

    __slots__ = _fields = ("name",)


class Nat(Record):
    """A natural-number literal (usable as data or as a timepoint)."""

    __slots__ = _fields = ("value",)


class Var(Record):
    __slots__ = _fields = ("name",)

    @property
    def is_wildcard(self) -> bool:
        return self.name.startswith("_")


class StarTerm(Record):
    """The literal ongoing marker in rule text."""

    __slots__ = ()


class FnApp(Record):
    """Application of min, max, plus, or minus to numeric terms."""

    __slots__ = _fields = ("fn", "args")  # args: a tuple of terms


class IntervalTerm(Record):
    """A literal interval [lo, hi] built from two endpoint terms."""

    __slots__ = _fields = ("lo", "hi")


def variable_ends(t) -> tuple[str, str] | None:
    """The names of the two variables of an interval term `[T1, T2]`, or
    None for any other term."""
    if isinstance(t, IntervalTerm) and isinstance(t.lo, Var) and isinstance(t.hi, Var):
        return t.lo.name, t.hi.name
    return None


class IntervalFn(Record):
    """Intersection of interval terms; evaluates to None when empty."""

    __slots__ = _fields = ("args",)


Term = Union[Const, Nat, Var, StarTerm, FnApp, IntervalTerm, IntervalFn]

FN_NAMES = ("min", "max", "plus", "minus")


def term_vars(t: Term) -> list[Var]:
    """All variable occurrences inside a term, in left-to-right order."""
    if isinstance(t, Var):
        return [t]
    if isinstance(t, (FnApp, IntervalFn)):
        return [v for a in t.args for v in term_vars(a)]
    if isinstance(t, IntervalTerm):
        return term_vars(t.lo) + term_vars(t.hi)
    return []


def compile_term(t: Term, slot_of: Mapping[str, object],
                 intervals: Mapping[tuple[str, str], object] = {}) -> Callable:
    """A function computing the term's value from a binding that holds each
    variable at `slot_of[name]`: a slot array, or a dict when the slots are
    the names. An interval term whose `variable_ends` are in `intervals`
    reads the interval held at that slot, a matched fact's, equal to the one
    it would build. It raises as `eval_term` says; a variable
    `slot_of` lacks raises `UnboundVariable` here."""
    if isinstance(t, (Const, Nat, StarTerm)):
        value = t.name if isinstance(t, Const) else STAR if isinstance(t, StarTerm) else t.value
        return lambda slots: value
    if isinstance(t, Var):
        if t.name not in slot_of:
            raise UnboundVariable(t.name)
        return itemgetter(slot_of[t.name])
    if isinstance(t, FnApp):
        fns, fn = [compile_term(a, slot_of, intervals) for a in t.args], t.fn

        def apply(slots):
            vals = [f(slots) for f in fns]
            for v in vals:
                if isinstance(v, str):
                    raise SortError(f"symbol {v!r} used in {fn}")
            if fn in ("min", "max"):
                return min(vals) if fn == "min" else max(vals)
            if STAR in vals:
                raise SortError(f"ongoing marker used in {fn}")
            if fn == "plus":
                total = vals[0] + vals[1]
                if total >= _PAST_MAX_DIGITS:
                    raise NaturalOverflow(
                        f"plus derives a natural of more than {MAX_DIGITS} digits")
                return total
            return max(vals[0] - vals[1], 0)  # natural subtraction
        return apply
    if isinstance(t, IntervalTerm):
        if intervals and variable_ends(t) in intervals:
            return itemgetter(intervals[variable_ends(t)])
        lo_of, hi_of = compile_term(t.lo, slot_of), compile_term(t.hi, slot_of)

        def interval(slots):
            lo, hi = lo_of(slots), hi_of(slots)
            if lo == STAR or isinstance(lo, str) or isinstance(hi, str):
                raise SortError(f"bad interval endpoint in {t}")
            return None if hi < lo else Interval(lo, hi)
        return interval
    if isinstance(t, IntervalFn):
        fns = [compile_term(a, slot_of, intervals) for a in t.args]

        def inter(slots):
            acc: Interval | None = None
            for f in fns:
                v = f(slots)
                if v is None:
                    return None
                if not isinstance(v, Interval):
                    raise SortError(f"non-interval argument to inter: {v!r}")
                acc = v if acc is None else acc.intersect(v)
                if acc is None:
                    return None
            return acc
        return inter
    raise TypeError(f"not a term: {t!r}")


def eval_term(t: Term, binding: Mapping[str, object]):
    """Evaluate a ground-under-binding term to a value.

    Interval-sorted terms may evaluate to None, meaning the empty interval;
    callers derive no fact from an empty interval.
    """
    return compile_term(t, {name: name for name in binding})(binding)


# ---------------------------------------------------------------------------
# Facts


class AtemporalFact(Record):
    __slots__ = _fields = ("pred", "args")  # args: a tuple of values


class ObservationFact(Record):
    __slots__ = _fields = ("pred", "args", "t")


class AnnotatedEventFact(Record):
    """An event over an interval at a confidence level (1 is the strongest)."""

    __slots__ = ("pred", "args", "interval", "level", "_hash")
    _fields = ("pred", "args", "interval", "level")
    __hash__ = _stored_hash

    def __init__(self, pred: str, args: tuple[Value, ...], interval: Interval, level: int):
        set_pred, set_args, set_interval, set_level, set_hash = self._setters
        set_pred(self, pred)
        set_args(self, args)
        set_interval(self, interval)
        set_level(self, level)
        set_hash(self, hash((pred, args, interval, level)))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self._hash == other._hash and self.interval == other.interval
                and self.level == other.level and self.pred == other.pred
                and self.args == other.args)

    @property
    def key(self) -> tuple[str, tuple[Value, ...]]:
        return (self.pred, self.args)


Fact = Union[AtemporalFact, ObservationFact, AnnotatedEventFact]


def args_key(args: tuple[Value, ...]) -> tuple:
    # ints sort before symbols; bool is not a data value
    return tuple([(0, a, "") if isinstance(a, int) else (1, 0, a) for a in args])


def value_key(v: Value) -> tuple:
    return args_key((v,))[0]


def fact_key(f) -> tuple:
    """Total deterministic order over facts of any kind."""
    if f.__class__ is not AnnotatedEventFact:  # events, the kind sorted most, pass one test
        return (0, f.pred, args_key(f.args), (), 0) if f.__class__ is AtemporalFact \
            else (1, f.pred, args_key(f.args), (f.t,), 0)
    iv = f.interval
    return (2, f.pred, args_key(f.args), (iv.start, iv.end), f.level)


def event_values(f: AnnotatedEventFact) -> tuple:
    """An event fact's arguments, then its interval's start and end, its
    level and its interval: the positions rule atoms match."""
    iv = f.interval
    return f.args + (iv.start, iv.end, f.level, iv)


def fact_row(f: AtemporalFact | ObservationFact) -> tuple:
    """A dataset fact's row, the values rule atoms match: its arguments,
    then an observation's timestamp."""
    return f.args + (f.t,) if f.__class__ is ObservationFact else f.args


def row_fact(kind: type, pred: str, row: tuple) -> AtemporalFact | ObservationFact:
    """The dataset fact of one kind and predicate whose row is `row`."""
    return ObservationFact(pred, row[:-1], row[-1]) if kind is ObservationFact \
        else AtemporalFact(pred, row)


def _group(items: Iterable, positions: tuple[int, ...],
           values: Callable | None = None) -> dict[tuple, list]:
    """Items grouped by their values (`values(item)`, or the item itself)
    at `positions`, order kept; `items` is walked twice."""
    pick, one = itemgetter(*positions), len(positions) == 1
    index: dict[tuple, list] = {}
    for item, key in zip(items, map(pick, items if values is None else map(values, items))):
        index.setdefault((key,) if one else key, []).append(item)
    return index


class EventStore:
    """Event facts indexed by predicate and by their `event_values` at
    chosen positions (built on first `probe`, then kept up to date by
    `add`). Each predicate's facts keep their first-seen order."""

    def __init__(self, facts: Iterable[AnnotatedEventFact] = ()):
        self._facts: set = set()
        self._by_pred: dict[str, list] = {}
        # pred -> positions -> values at those positions -> facts
        self._indexes: dict[str, dict[tuple[int, ...], dict[tuple, list]]] = {}
        self.add_all(facts)

    def add(self, f: AnnotatedEventFact) -> bool:
        if f in self._facts:
            return False
        self._facts.add(f)
        self._by_pred.setdefault(f.pred, []).append(f)
        indexes = self._indexes.get(f.pred)
        if indexes:
            vals = event_values(f)
            for positions, index in indexes.items():
                index.setdefault(tuple([vals[i] for i in positions]), []).append(f)
        return True

    def add_all(self, facts: Iterable) -> list:
        return [f for f in facts if self.add(f)]

    def by_key(self, pred: str, args: tuple[Value, ...]) -> tuple:
        """The facts of `pred` whose arguments are `args`, in first-seen order."""
        return tuple(self.probe(pred, tuple(range(len(args))), args))

    def probe(self, pred: str, positions: tuple[int, ...], values: tuple) -> Sequence:
        """Facts of `pred` whose `event_values` at `positions` (ascending:
        its arguments, then its interval's start and end) equal `values`,
        without copying; the result must not be mutated or held across an
        `add`."""
        facts = self._by_pred.get(pred, ())
        if not positions or not facts:
            return facts
        try:
            index = self._indexes[pred][positions]
        except KeyError:
            # every position inside the arguments reads them without a new tuple
            values_of = attrgetter("args") if positions[-1] < len(facts[0].args) else event_values
            index = self._indexes.setdefault(pred, {})[positions] = _group(
                facts, positions, values_of)
        return index.get(values, ())

    @property
    def facts(self) -> frozenset:
        return frozenset(self._facts)

    def __len__(self) -> int:
        return len(self._facts)

    def __contains__(self, f) -> bool:
        return f in self._facts


class Dataset:
    """An immutable collection of atemporal and observation facts, held as
    the rows rule atoms match (`fact_row`): per kind (`AtemporalFact` or
    `ObservationFact`) and predicate, one dict whose keys are its distinct
    rows in first-seen order. The fact objects are built when `facts` is
    first read."""

    def __init__(self, facts: Iterable[AtemporalFact | ObservationFact] = ()):
        rows: dict[tuple[type, str], dict[tuple, None]] = {}
        for f in facts:
            if f.__class__ not in (AtemporalFact, ObservationFact):
                raise TypeError(f"not a dataset fact: {f!r}")
            rows.setdefault((f.__class__, f.pred), {}).setdefault(fact_row(f))
        self._rows = rows
        self._facts: frozenset | None = None
        # (kind, pred, positions) -> values at those positions -> rows
        self._indexes: dict[tuple, dict[tuple, list]] = {}

    @classmethod
    def from_rows(cls, rows: dict[tuple[type, str], dict[tuple, None]]) -> "Dataset":
        """The dataset of `rows`, shaped as `rows` gives them, which it
        keeps: the caller must not change them afterwards."""
        dataset = cls()
        dataset._rows = rows
        return dataset

    @property
    def rows(self) -> Mapping[tuple[type, str], Collection[tuple]]:
        """Per (kind, predicate), its distinct rows in first-seen order. Do
        not mutate."""
        return self._rows

    @property
    def facts(self) -> frozenset:
        if self._facts is None:
            self._facts = frozenset([row_fact(kind, pred, r)
                                     for (kind, pred), rows in self._rows.items() for r in rows])
        return self._facts

    def probe(self, kind: type, pred: str, positions: tuple[int, ...],
              values: tuple) -> Collection[tuple]:
        """The rows of one kind (AtemporalFact or ObservationFact) and
        predicate whose values at `positions` (ascending) equal `values`,
        in first-seen order. Do not mutate."""
        if not positions:
            return self._rows.get((kind, pred), {}).keys()
        try:
            index = self._indexes[kind, pred, positions]
        except KeyError:
            index = self._indexes[kind, pred, positions] = _group(
                self._rows.get((kind, pred), ()), positions)
        return index.get(values, ())

    def __len__(self) -> int:
        return sum(map(len, self._rows.values()))

    def __contains__(self, f) -> bool:
        return f in self.facts
