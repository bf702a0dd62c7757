"""Exception types raised across the package."""

from __future__ import annotations


class TimeloomError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(TimeloomError):
    """A rule file is syntactically or semantically malformed."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.message = message
        self.line = line
        self.col = col
        where = f" at line {line}" if line is not None else ""
        where += f", col {col}" if col is not None else ""
        super().__init__(f"{message}{where}")


class ArityMismatch(ParseError):
    """A predicate is used with a different number of arguments than declared."""


class DuplicateDeclaration(ParseError):
    """The same predicate name is declared twice."""


class UndeclaredPredicate(ParseError):
    """A predicate is used without a prior declaration."""


class SortError(ParseError):
    """A term is used where its sort is not permitted (also raised at evaluation
    time when ongoing timepoints reach strict arithmetic)."""


class SafetyViolation(ParseError):
    """A rule variable is not bound by any positive body atom."""

    def __init__(self, rule: str, variable: str, line: int | None = None):
        self.rule = rule
        self.variable = variable
        super().__init__(f"unsafe variable {variable} in {rule}", line=line)


class NotStratified(ParseError):
    """The meta-event rules have a cycle through negation or an aggregate."""

    def __init__(self, cycle: tuple[str, ...]):
        self.cycle = cycle
        super().__init__("negation cycle through " + " -> ".join(cycle))


class MissingWindowRule(ParseError):
    """A non-persistent event predicate has existence rules but no window rule."""

    def __init__(self, predicate: str):
        self.predicate = predicate
        super().__init__(f"non-persistent predicate {predicate} has no window rule")


class InvalidInterval(TimeloomError):
    """An interval was constructed with end before start or a negative bound."""


class UnboundVariable(TimeloomError):
    """A term was evaluated under a binding that misses one of its variables."""


class InvalidSpec(TimeloomError):
    """A grounded rule set fails a validity requirement for some event instance.

    kind is one of "MissingWindow", "AmbiguousWindow", "ZeroWindow"; key is
    the instance, a (predicate, argument values) pair, and instance its rule
    text, which the message names.
    """

    def __init__(self, kind: str, key: tuple, instance: str):
        self.kind = kind
        self.key = key
        super().__init__(f"{kind} for {instance}")


class LevelOverflow(TimeloomError):
    """A rule computed a confidence level below 1."""


class NaturalOverflow(TimeloomError):
    """A rule's `plus` derived a natural of more digits than any input may
    hold (`model.MAX_DIGITS`)."""


class EnumerationCapExceeded(TimeloomError):
    """Repair enumeration spent its budget before completing. The budget
    counts repairs emitted plus dead-end branches (and alternative
    provenance supports of constraint matches, all that the cautious core
    spends), or the candidate subsets examined when removing facts can make
    a set inconsistent: when a constraint negates an event, or names a meta
    event while a meta rule negates an event or uses start/end. On either
    path the partial result of a capped enumeration holds only repairs, and
    of a capped preferred enumeration only preferred repairs."""

    def __init__(self, cap: int):
        self.cap = cap
        super().__init__(f"enumeration cap of {cap} exceeded (repairs emitted plus "
                         "dead ends and provenance supports, or candidate subsets "
                         "examined when a constraint negates an event, or names a "
                         "meta event while a meta rule negates an event or uses "
                         "start/end)")


class ResourceExhausted(TimeloomError):
    """Enumeration ran past Python's recursion limit or out of memory."""


class IoError(TimeloomError):
    """A data or rule file could not be read or written."""


class MappingError(TimeloomError):
    """A CSV mapping file is malformed or references a missing column."""

    def __init__(self, column: object, message: str | None = None):
        self.column = column
        super().__init__(message or f"bad column reference: {column}")


class MalformedTimestamp(TimeloomError):
    """A timestamp field could not be parsed under the configured format."""
