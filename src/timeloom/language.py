"""Rule language: concrete syntax, AST, validation, and stratification.

A rule file is a sequence of `.`-terminated statements. Predicates are
declared before use with their kind and data arity:

    decl atemporal ab/1.
    decl observation adm/2.
    decl nonpersistent abth/2.
    decl persistent tkith/2.
    decl meta gestdiab/1.

Simple-event rules derive existence, termination, and window facts from
atemporal and observation atoms:

    exists(abth(P, D), T, 1) :- adm(P, D, T), ab(D).
    ends(abth(P, D), T, 1) :- stop(P, D, T).
    window(abth(P, D), 48) :- adm(P, D, T), ab(D).

Meta-event rules combine annotated event atoms, comparisons, and interval
builtins; constraints forbid fact combinations:

    meta gestdiab(P, inter([T1,T2],[T3,T4]), min(L1,L2)) :-
        preg(P, [T1,T2], L1), hyperglyc(P, [T3,T4], L2),
        not prediabatonset(P, [T3,T4], _).
    constraint :- tkith(P, D, [T1,T2]), allergic(P, D).

Variables start with an uppercase letter, `_` is a fresh wildcard, `*` is the
ongoing interval end, and `#` starts a comment.
"""

from __future__ import annotations

import enum
import re
from typing import Callable, Iterator, Mapping, Union

from .errors import (
    ArityMismatch,
    DuplicateDeclaration,
    MissingWindowRule,
    NotStratified,
    ParseError,
    SafetyViolation,
    SortError,
    UndeclaredPredicate,
)
from .model import (
    FN_NAMES,
    MAX_DIGITS,
    Const,
    FnApp,
    IntervalFn,
    IntervalTerm,
    Nat,
    Record,
    SortKind,
    StarTerm,
    Term,
    Var,
    term_vars,
)

ALLEN_BUILTINS = (
    "before", "meets", "overlaps", "starts", "during", "finishes", "equals",
    "after", "met_by", "overlapped_by", "started_by", "contains", "finished_by",
)
EXTREMUM_BUILTINS = ("start", "end")
MAX_TERM_DEPTH = 100

KEYWORDS = frozenset(
    ("decl", "atemporal", "observation", "nonpersistent", "persistent", "meta",
     "exists", "exists_pers", "ends", "window", "constraint", "not", "inter")
    + FN_NAMES + ALLEN_BUILTINS + EXTREMUM_BUILTINS
)


class PredKind(enum.Enum):
    ATEMPORAL = "atemporal"
    OBSERVATION = "observation"
    NONPERSISTENT = "nonpersistent"
    PERSISTENT = "persistent"
    META = "meta"


EVENT_KINDS = (PredKind.NONPERSISTENT, PredKind.PERSISTENT, PredKind.META)
SIMPLE_KINDS = (PredKind.NONPERSISTENT, PredKind.PERSISTENT)


class PredicateDecl(Record):
    __slots__ = _fields = ("name", "arity", "kind")


# ---------------------------------------------------------------------------
# Atoms and literals


class AtemporalAtom(Record):
    __slots__ = _fields = ("pred", "args")  # args: a tuple of terms


class ObservationAtom(Record):
    __slots__ = _fields = ("pred", "args", "t")


class EventAtom(Record):
    """An event atom; constraint bodies give it no confidence position, so
    its `level` is None there."""

    __slots__ = _fields = ("pred", "args", "interval", "level")
    _defaults = {"level": None}


class Comparison(Record):
    __slots__ = _fields = ("op", "lhs", "rhs")  # op: "!=", "<" or "<="


class AllenTest(Record):
    """Exact Allen-relation test between two interval terms."""

    __slots__ = _fields = ("name", "a", "b")


class ExtremumTest(Record):
    """start(p(x),T) / end(p(x),T): T equals the least start (greatest end)
    over all stored intervals for that event instance, at any level."""

    __slots__ = _fields = ("name", "pred", "args", "t")  # name: "start" or "end"


Atom = Union[AtemporalAtom, ObservationAtom, EventAtom, Comparison, AllenTest, ExtremumTest]
BUILTIN_ATOMS = (Comparison, AllenTest, ExtremumTest)


class Literal(Record):
    __slots__ = _fields = ("atom", "negated")
    _defaults = {"negated": False}


def atom_terms(a: Atom) -> list[tuple[Term, SortKind | None]]:
    """The atom's terms with the sort of their positions: the data
    arguments, then the timepoint, or the interval and level; for a
    builtin, its operands. A comparison's operands take their sorts from
    the atoms that bind them, so theirs is None."""
    if isinstance(a, Comparison):
        return [(a.lhs, None), (a.rhs, None)]
    if isinstance(a, AllenTest):
        return [(a.a, SortKind.INTERVAL), (a.b, SortKind.INTERVAL)]
    terms: list[tuple[Term, SortKind | None]] = [(x, SortKind.DATA) for x in a.args]
    if isinstance(a, ObservationAtom):
        terms.append((a.t, SortKind.NAT))
    elif isinstance(a, ExtremumTest):
        terms.append((a.t, SortKind.NAT if a.name == "start" else SortKind.NAT_OR_STAR))
    elif isinstance(a, EventAtom):
        terms.append((a.interval, SortKind.INTERVAL))
        if a.level is not None:
            terms.append((a.level, SortKind.POSNAT))
    return terms


def is_test(lit: Literal) -> bool:
    """Whether the literal only tests bindings: a builtin or a negated atom.
    The other literals, positive predicate atoms, bind variables."""
    return lit.negated or isinstance(lit.atom, BUILTIN_ATOMS)


# ---------------------------------------------------------------------------
# Rules


class _Rule(Record):
    """A rule ends with its source line and, once validated, the sort of
    each variable (a Mapping[str, SortKind]); neither takes part in
    equality."""

    __slots__ = ()
    _uncompared = ("line", "var_sorts")
    _defaults = {"line": 0, "var_sorts": None}


class PointRule(_Rule):
    """An existence rule (exists, exists_pers) or a termination rule (ends)."""

    __slots__ = _fields = ("pred", "args", "t", "level", "body", "line", "var_sorts")


class WindowRule(_Rule):
    __slots__ = _fields = ("pred", "args", "w", "body", "line", "var_sorts")


class MetaRule(_Rule):
    __slots__ = _fields = ("pred", "args", "interval", "level", "body", "line", "var_sorts")


class Constraint(_Rule):
    __slots__ = _fields = ("body", "line", "var_sorts")


Rule = Union[PointRule, WindowRule, MetaRule, Constraint]


class TES(Record):
    """A validated rule set: declarations (name -> PredicateDecl), the rules
    of each kind as tuples, constraints, and strata."""

    __slots__ = ("decls", "existence", "termination", "windows", "meta_rules",
                 "constraints", "strata", "plans")
    _fields = __slots__[:-1]

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # id of a rule -> (rule, its compiled join plan), built by
        # query.rule_plan; plans hold closures, so pickles leave them out
        object.__setattr__(self, "plans", {})

    def kind(self, pred: str) -> PredKind:
        return self.decls[pred].kind

    def is_event_pred(self, pred: str) -> bool:
        d = self.decls.get(pred)
        return d is not None and d.kind in EVENT_KINDS

    def is_simple_pred(self, pred: str) -> bool:
        d = self.decls.get(pred)
        return d is not None and d.kind in SIMPLE_KINDS

    @property
    def is_monotone(self) -> bool:
        """True when no meta rule or constraint negates an event atom and no
        meta rule tests a start or end (a constraint body holds no builtin):
        then every meta fact derived from a set of facts is derived from
        each superset too. `meta.close_factored` closes per unit only then;
        `repair._downward_closed`, which decides the repair path, counts
        this as one of its cases."""
        for rule in self.meta_rules + self.constraints:
            for lit in rule.body:
                if isinstance(lit.atom, ExtremumTest) or (
                        lit.negated and isinstance(lit.atom, EventAtom)):
                    return False
        return True

    def constraints_mention_meta(self) -> bool:
        for c in self.constraints:
            for lit in c.body:
                a = lit.atom
                if isinstance(a, EventAtom) and self.kind(a.pred) is PredKind.META:
                    return True
        return False


# ---------------------------------------------------------------------------
# Lexer


# A natural is a run of ASCII digits in rule files, fact files, CSV cells and
# epoch timestamps alike. (str.isdigit also accepts "²", which int() rejects.)
# One of more than MAX_DIGITS digits is refused on every Python version.
NATURAL = re.compile(r"[0-9]+")


def read_natural(text: str) -> int:
    """The value of a NATURAL match; ValueError past MAX_DIGITS digits."""
    if len(text) > MAX_DIGITS:
        raise ValueError(f"natural of {len(text)} digits (at most {MAX_DIGITS})")
    return int(text)

_PUNCT = {
    ":-": "ARROW", "<=": "LE", "!=": "NEQ", "<": "LT", "(": "LPAREN",
    ")": "RPAREN", "[": "LBRACK", "]": "RBRACK", ",": "COMMA", ".": "PERIOD",
    "/": "SLASH", "*": "STAR",
}

# One match per lexeme: the blanks and comments before it (group 1), then the
# lexeme, one alternative each, tried in order (punctuation and naturals
# share one); at the end of the text only the blanks match. Blanks take every
# newline and a comment runs to one, so what follows them always matches and
# nothing backtracks into them. \w is what str.isalnum admits, and _, so a
# word may start with a numeric character such as "²": the lexer refuses it
# as not a letter.
_LEXEME = re.compile(r"""([ \t\r\n]*(?:\#[^\n]*[ \t\r\n]*)*)
    (?: ('[^'\n]*'?) | (:-|<=|!=|[<()\[\],./*]|[0-9]+) | ([^\W\d]\w*) | (.) | \Z )""",
                     re.VERBOSE)


def _tokenize(text: str) -> list[tuple]:
    """The tokens of a rule text, each a (kind, text, line, col) tuple, the
    last of kind EOF; a ParseError at the first character no token takes.
    One `findall` call reads every lexeme, and each token's position is the
    lengths of the text before it."""
    toks: list[tuple] = []
    line, line_start, at = 1, 0, 0  # `at`: the offset of the next blank or lexeme
    for blank, qsym, sym, word, other in _LEXEME.findall(text):
        if "\n" in blank:
            line += blank.count("\n")
            line_start = at + blank.rfind("\n") + 1
        col = at + len(blank) - line_start + 1
        at += len(blank) + len(sym or word or qsym or other)
        if sym:
            toks.append((_PUNCT.get(sym, "NAT"), sym, line, col))
        elif word[:1].isalpha():
            toks.append(("VAR" if word[0].isupper() else "IDENT", word, line, col))
        elif word == "_":
            toks.append(("WILD", word, line, col))
        elif word[:1] == "_":
            raise ParseError(f"names may not start with underscore: {word}", line, col)
        elif qsym:
            if len(qsym) == 1 or qsym[-1] != "'":
                raise ParseError("unterminated quoted symbol", line, col)
            toks.append(("QSYM", qsym[1:-1], line, col))
        elif word or other:
            raise ParseError(f"unexpected character {(word or other)[0]!r}", line, col)
    toks.append(("EOF", "", line, at - line_start + 1))
    return toks


# ---------------------------------------------------------------------------
# Parser


_BUILTIN_NAMES = frozenset(ALLEN_BUILTINS + EXTREMUM_BUILTINS)
_COMPARISON_KINDS = frozenset(("NEQ", "LT", "LE"))


class _Parser:
    """Recursive descent over `_tokenize`'s tokens, (kind, text, line, col)
    tuples: `tok[2:]` is a token's position. Each variable, symbol and
    natural of the text is one term object, made where it first stands."""

    def __init__(self, toks: list[tuple]):
        self.toks = toks + toks[-1:]  # a second EOF: a look one token ahead stays inside
        self.i = 0
        self.decls: dict[str, PredicateDecl] = {}
        self._wild = 0
        self._depth = 0
        self._terms: dict[tuple, Term] = {}

    def peek(self, ahead: int = 0) -> tuple:
        return self.toks[self.i + ahead]

    def advance(self) -> tuple:
        t = self.toks[self.i]
        if t[0] != "EOF":
            self.i += 1
        return t

    def expect(self, kind: str, what: str | None = None) -> tuple:
        t = self.toks[self.i]
        if t[0] != kind:
            raise ParseError(f"expected {what or kind}, found {t[1]!r}", *t[2:])
        self.i += 1
        return t

    def natural(self, tok: tuple) -> int:
        """The value of a NAT token, or a ParseError at it."""
        try:
            return read_natural(tok[1])
        except ValueError as e:
            raise ParseError(str(e), *tok[2:]) from None

    def comma_list(self, item: Callable) -> list:
        items = [item()]
        while self.toks[self.i][0] == "COMMA":
            self.i += 1
            items.append(item())
        return items

    def operands(self, item: Callable[[], Term]) -> list[Term]:
        """The parenthesized operands after a function name, nested at most
        MAX_TERM_DEPTH deep, so that no walk over a term exhausts the stack."""
        t = self.advance()
        if self._depth == MAX_TERM_DEPTH:
            raise ParseError(f"terms may nest at most {MAX_TERM_DEPTH} deep", *t[2:])
        self._depth += 1
        self.expect("LPAREN")
        items = self.comma_list(item)
        self.expect("RPAREN")
        self._depth -= 1
        return items

    # -- statements ---------------------------------------------------------

    def parse_program(self):
        existence: list[PointRule] = []
        termination: list[PointRule] = []
        windows: list[WindowRule] = []
        meta_rules: list[MetaRule] = []
        constraints: list[Constraint] = []
        while True:
            kind, text, line, col = self.toks[self.i]
            if kind == "EOF":
                break
            self._wild = 0
            if kind != "IDENT":
                raise ParseError(f"expected a statement, found {text!r}", line, col)
            if text == "decl":
                self.parse_decl()
            elif text in ("exists", "exists_pers", "ends"):
                (termination if text == "ends" else existence).append(self.parse_point())
            elif text == "window":
                windows.append(self.parse_window())
            elif text == "meta":
                meta_rules.append(self.parse_meta())
            elif text == "constraint":
                constraints.append(self.parse_constraint())
            else:
                raise ParseError(f"unknown statement keyword {text!r}", line, col)
        return self.decls, existence, termination, windows, meta_rules, constraints

    def parse_decl(self) -> None:
        self.i += 1
        kind_tok = self.expect("IDENT", "a predicate kind")
        try:
            kind = PredKind(kind_tok[1])
        except ValueError:
            raise ParseError(f"unknown predicate kind {kind_tok[1]!r}", *kind_tok[2:]) from None
        name_tok = self.expect("IDENT", "a predicate name")
        name = name_tok[1]
        if name in KEYWORDS:
            raise ParseError(f"{name!r} is reserved", *name_tok[2:])
        self.expect("SLASH")
        arity_tok = self.expect("NAT", "an arity")
        self.expect("PERIOD")
        if name in self.decls:
            raise DuplicateDeclaration(f"predicate {name} declared twice", *name_tok[2:])
        self.decls[name] = PredicateDecl(name, self.natural(arity_tok), kind)

    def _decl(self, tok: tuple) -> PredicateDecl:
        d = self.decls.get(tok[1])
        if d is None:
            raise UndeclaredPredicate(f"predicate {tok[1]} is not declared", *tok[2:])
        return d

    def parse_event_ref(self, want: tuple[PredKind, ...],
                        what: str) -> tuple[PredicateDecl, tuple[Term, ...]]:
        tok = self.expect("IDENT", "an event predicate")
        d = self._decl(tok)
        if d.kind not in want:
            raise ParseError(f"{tok[1]} is {d.kind.value}, expected {what}", *tok[2:])
        args: tuple[Term, ...] = ()
        if self.toks[self.i][0] == "LPAREN":
            self.i += 1
            args = tuple(self.comma_list(self.parse_term))
            self.expect("RPAREN")
        if len(args) != d.arity:
            raise ArityMismatch(f"{d.name} declared with arity {d.arity}, used with {len(args)}",
                                *tok[2:])
        return d, args

    def parse_point(self) -> PointRule:
        kw = self.advance()
        self.expect("LPAREN")
        if kw[1] == "ends":
            d, args = self.parse_event_ref(SIMPLE_KINDS, "a simple event")
        else:
            want = PredKind.NONPERSISTENT if kw[1] == "exists" else PredKind.PERSISTENT
            d, args = self.parse_event_ref((want,), f"a {want.value} event (use "
                                           + ("exists_pers" if kw[1] == "exists" else "exists")
                                           + " for the other kind)")
        self.expect("COMMA")
        t = self.parse_term()
        self.expect("COMMA")
        lvl_tok = self.expect("NAT", "a confidence level literal")
        level = self.natural(lvl_tok)
        if level < 1:
            raise ParseError("confidence levels start at 1", *lvl_tok[2:])
        self.expect("RPAREN")
        body = self.parse_body("se")
        self.expect("PERIOD")
        return PointRule(d.name, args, t, level, body, kw[2], None)

    def parse_window(self) -> WindowRule:
        kw = self.advance()
        self.expect("LPAREN")
        d, args = self.parse_event_ref((PredKind.NONPERSISTENT,),
                                       "a nonpersistent event (persistent events take no window)")
        self.expect("COMMA")
        w = self.parse_term()
        self.expect("RPAREN")
        body = self.parse_body("se")
        self.expect("PERIOD")
        return WindowRule(d.name, args, w, body, kw[2], None)

    def parse_meta(self) -> MetaRule:
        kw = self.advance()
        tok = self.expect("IDENT", "a meta predicate")
        d = self._decl(tok)
        if d.kind is not PredKind.META:
            raise ParseError(f"{tok[1]} is {d.kind.value}, expected meta", *tok[2:])
        self.expect("LPAREN")
        items = self.comma_list(self.parse_term)
        self.expect("RPAREN")
        if len(items) != d.arity + 2:
            raise ArityMismatch(
                f"meta head {d.name} needs {d.arity} data arguments plus interval and level",
                *tok[2:])
        body = self.parse_body("meta")
        self.expect("PERIOD")
        return MetaRule(d.name, tuple(items[:-2]), items[-2], items[-1], body, kw[2], None)

    def parse_constraint(self) -> Constraint:
        kw = self.advance()
        body = self.parse_body("constraint")
        if not body:
            raise ParseError("constraint requires a body", *kw[2:])
        self.expect("PERIOD")
        return Constraint(body, kw[2], None)

    # -- bodies -------------------------------------------------------------

    def parse_body(self, context: str) -> tuple[Literal, ...]:
        if self.toks[self.i][0] != "ARROW":
            return ()
        self.i += 1
        return tuple(self.comma_list(lambda: self.parse_literal(context)))

    def parse_literal(self, context: str) -> Literal:
        negated = False
        t = self.toks[self.i]
        if t[0] == "IDENT" and t[1] == "not":
            self.i += 1
            negated = True
            t = self.toks[self.i]
        if t[0] == "IDENT":
            if t[1] in _BUILTIN_NAMES:
                if context != "meta":
                    raise ParseError(f"builtin {t[1]} is only allowed in meta rule bodies",
                                     *t[2:])
                return Literal(self.parse_builtin(), negated)
            # could still be a comparison whose left side is a constant
            after = self.peek(1)[0]
            if t[1] not in KEYWORDS and (after == "LPAREN" or after not in _COMPARISON_KINDS):
                return Literal(self.parse_atom(context), negated)
        if negated:
            raise ParseError("not applies to predicate atoms and builtins only", *t[2:])
        lhs = self.parse_term()
        op_tok = self.toks[self.i]
        if op_tok[0] not in _COMPARISON_KINDS:
            raise ParseError(f"expected a comparison operator, found {op_tok[1]!r}", *op_tok[2:])
        self.i += 1
        rhs = self.parse_term()
        return Literal(Comparison(op_tok[1], lhs, rhs), negated)

    def parse_builtin(self) -> Atom:
        tok = self.advance()
        self.expect("LPAREN")
        if tok[1] in EXTREMUM_BUILTINS:
            d, args = self.parse_event_ref(EVENT_KINDS, "an event")
            self.expect("COMMA")
            t = self.parse_term()
            self.expect("RPAREN")
            return ExtremumTest(tok[1], d.name, args, t)
        a = self.parse_term()
        self.expect("COMMA")
        b = self.parse_term()
        self.expect("RPAREN")
        return AllenTest(tok[1], a, b)

    def parse_atom(self, context: str) -> Atom:
        tok = self.expect("IDENT", "a predicate")
        d = self._decl(tok)
        args: list[Term] = []
        if self.toks[self.i][0] == "LPAREN":
            self.i += 1
            args = self.comma_list(self.parse_term)
            self.expect("RPAREN")
        if d.kind is PredKind.ATEMPORAL:
            self._check_arity(d, len(args), tok)
            return AtemporalAtom(d.name, tuple(args))
        if not args:
            raise ParseError(f"{d.name} needs its temporal arguments here", *tok[2:])
        if d.kind is PredKind.OBSERVATION:
            self._check_arity(d, len(args) - 1, tok)
            return ObservationAtom(d.name, tuple(args[:-1]), args[-1])
        if context == "se":
            raise ParseError("event atoms are not allowed in simple-event rule bodies", *tok[2:])
        if context == "constraint":
            self._check_arity(d, len(args) - 1, tok,
                              note=" (constraint event atoms take no confidence argument)")
            return EventAtom(d.name, tuple(args[:-1]), args[-1], None)
        self._check_arity(d, len(args) - 2, tok,
                          note=" (meta-rule event atoms take interval and confidence arguments)")
        return EventAtom(d.name, tuple(args[:-2]), args[-2], args[-1])

    def _check_arity(self, d: PredicateDecl, n: int, tok: tuple, note: str = "") -> None:
        if n != d.arity:
            raise ArityMismatch(f"{d.name} declared with arity {d.arity}{note}", *tok[2:])

    # -- terms ---------------------------------------------------------------

    def _shared(self, cls: type, value) -> Term:
        """The one term of class `cls` over `value` in this text."""
        term = self._terms.get((cls, value))
        if term is None:
            term = self._terms[cls, value] = cls(value)
        return term

    def parse_term(self) -> Term:
        """Any term; `_validate_rule` decides where each kind may stand."""
        t = self.toks[self.i]
        kind, text = t[0], t[1]
        if kind == "VAR":
            self.i += 1
            return self._shared(Var, text)
        if kind == "IDENT":
            if text == "inter":
                return IntervalFn(tuple(self.operands(self.parse_term)))
            if text in FN_NAMES:
                items = self.operands(self.parse_term)
                if text in ("plus", "minus") and len(items) != 2:
                    raise ParseError(f"{text} takes exactly two arguments", *t[2:])
                return FnApp(text, tuple(items))
            if text in KEYWORDS:
                raise ParseError(f"{text!r} is reserved", *t[2:])
            self.i += 1
            return self._shared(Const, text)
        if kind == "WILD":
            self.i += 1
            self._wild += 1
            return Var(f"_{self._wild}")
        if kind == "NAT":
            self.i += 1
            return self._shared(Nat, self.natural(t))
        if kind == "LBRACK":
            self.i += 1
            lo = self._endpoint(False)
            self.expect("COMMA")
            hi = self._endpoint(True)
            self.expect("RBRACK")
            return IntervalTerm(lo, hi)
        if kind == "STAR":
            self.i += 1
            return StarTerm()
        if kind == "QSYM":
            self.i += 1
            return self._shared(Const, text)
        raise ParseError(f"expected a term, found {text!r}", *t[2:])

    def _endpoint(self, is_hi: bool) -> Term:
        t = self.toks[self.i]
        if t[0] == "STAR" and not is_hi:
            raise ParseError("* may only close an interval", *t[2:])
        if t[0] not in ("NAT", "VAR", "WILD", "STAR"):
            raise ParseError("interval endpoints must be naturals, variables, _, or *", *t[2:])
        return self.parse_term()


# ---------------------------------------------------------------------------
# Validation: sorts and safety


_NUMERIC = (SortKind.NAT, SortKind.POSNAT, SortKind.NAT_OR_STAR)

# meet of two numeric sorts is the stricter one
_STRICTNESS = {SortKind.NAT_OR_STAR: 0, SortKind.NAT: 1, SortKind.POSNAT: 2}


def _meet(a: SortKind, b: SortKind, var: str, line: int) -> SortKind:
    if a is b:
        return a
    if a in _NUMERIC and b in _NUMERIC:
        return a if _STRICTNESS[a] >= _STRICTNESS[b] else b
    raise SortError(f"variable {var} used both as {a.value} and as {b.value}", line)


class _SortWalk:
    def __init__(self, line: int):
        self.line = line
        self.sorts: dict[str, SortKind] = {}

    def term(self, t: Term, ctx: SortKind, found: list[Var]) -> None:
        """Check the term in a position of sort `ctx`, meeting each of its
        variables' sorts with its position's, and append each variable
        occurrence to `found`."""
        if isinstance(t, Var):
            found.append(t)
            prev = self.sorts.get(t.name)
            self.sorts[t.name] = ctx if prev is None else _meet(prev, ctx, t.name, self.line)
        elif isinstance(t, Const):
            if ctx is not SortKind.DATA:
                raise SortError(f"symbol {t.name} in a {ctx.value} position", self.line)
        elif isinstance(t, Nat):
            if ctx is SortKind.POSNAT and t.value < 1:
                raise SortError(f"{t.value} in a position requiring a positive natural", self.line)
            if ctx is SortKind.DATA or ctx in _NUMERIC:
                return
            raise SortError(f"natural {t.value} in an interval position", self.line)
        elif isinstance(t, StarTerm):
            if ctx is not SortKind.NAT_OR_STAR:
                raise SortError("* outside an interval-end or comparison position", self.line)
        elif isinstance(t, FnApp):
            if ctx is SortKind.DATA or ctx is SortKind.INTERVAL:
                raise SortError(f"{t.fn}(...) in a {ctx.value} position", self.line)
            arg_ctx = SortKind.NAT if t.fn in ("plus", "minus") else ctx
            for a in t.args:
                self.term(a, arg_ctx, found)
        elif isinstance(t, IntervalTerm):
            if ctx is not SortKind.INTERVAL:
                raise SortError("interval term in a non-interval position", self.line)
            self.term(t.lo, SortKind.NAT, found)
            self.term(t.hi, SortKind.NAT_OR_STAR, found)
        elif isinstance(t, IntervalFn):
            if ctx is not SortKind.INTERVAL:
                raise SortError("inter(...) in a non-interval position", self.line)
            for a in t.args:
                self.term(a, SortKind.INTERVAL, found)

    def comparison(self, c: Comparison) -> None:
        # operand sorts are fixed by binder positions; here we only rule out
        # ordering symbols and mixing symbols with numbers
        kinds = []
        for side in (c.lhs, c.rhs):
            if isinstance(side, Var):
                kinds.append(self.sorts.get(side.name, SortKind.DATA))
            elif isinstance(side, Const):
                kinds.append(SortKind.DATA)
            elif isinstance(side, (Nat, FnApp, StarTerm)):
                kinds.append(SortKind.NAT_OR_STAR)
        data = [k is SortKind.DATA for k in kinds]
        if c.op in ("<", "<=") and any(data):
            raise SortError(f"ordering comparison over symbols: {c.op}", self.line)
        if c.op in ("<", "<=") and SortKind.INTERVAL in kinds:
            raise SortError(f"ordering comparison over intervals: {c.op}", self.line)
        if c.op == "!=" and any(data) != all(data):
            # symbols compare only against data-sorted operands; naturals used
            # as data values still satisfy this
            for side, k in zip((c.lhs, c.rhs), kinds):
                if k is SortKind.DATA and isinstance(side, Var):
                    return
            raise SortError("!= mixes a symbol with a numeric-only term", self.line)


def head_positions(rule: Rule) -> list[tuple[Term, SortKind]]:
    """The head's terms with the sort of their positions: the arguments,
    then the timepoint or window, or the interval and level."""
    if isinstance(rule, PointRule):
        return [(a, SortKind.DATA) for a in rule.args] + [(rule.t, SortKind.NAT)]
    if isinstance(rule, WindowRule):
        return [(a, SortKind.DATA) for a in rule.args] + [(rule.w, SortKind.POSNAT)]
    if isinstance(rule, MetaRule):
        return ([(a, SortKind.DATA) for a in rule.args]
                + [(rule.interval, SortKind.INTERVAL), (rule.level, SortKind.POSNAT)])
    return []


def _rule_name(rule: Rule) -> str:
    if isinstance(rule, Constraint):
        return "constraint"
    return f"rule for {rule.pred}"


def is_schematic_window(rule: Rule) -> bool:
    """A window rule covering every instance of its predicate: empty body,
    head arguments that are variables but not `_`, and a closed window term."""
    return (isinstance(rule, WindowRule) and not rule.body
            and all(isinstance(a, Var) and not a.is_wildcard for a in rule.args)
            and not term_vars(rule.w))


def _with_sorts(rule: Rule, sorts: Mapping[str, SortKind]) -> Rule:
    """The rule with its variables' sorts, its last field."""
    return rule.__class__(*[getattr(rule, name) for name in rule._fields[:-1]], dict(sorts))


def _validate_rule(rule: Rule) -> Rule:
    """The rule with its variables' sorts, once every term stands where its
    kind may: the parser reads any term in any position. Functions stand in
    heads and comparisons, and `inter` also in Allen tests; interval terms
    stand where an interval does, but are not compared."""
    walk = _SortWalk(rule.line)
    used: list[Var] = []  # the head's variables, then those of its builtin tests
    for term, ctx in head_positions(rule):
        walk.term(term, ctx, used)
    if is_schematic_window(rule):
        return _with_sorts(rule, walk.sorts)
    # each literal beside its variable occurrences, in order
    body_vars: list[tuple[Literal, list[Var]]] = []
    for lit in rule.body:
        a, names = lit.atom, []
        if not isinstance(a, Comparison):
            for term, ctx in atom_terms(a):
                if isinstance(term, (FnApp, IntervalFn)) and not isinstance(a, AllenTest):
                    name = term.fn if isinstance(term, FnApp) else "inter"
                    raise SortError(f"{name}(...) in the arguments of an atom", rule.line)
                walk.term(term, ctx, names)
        body_vars.append((lit, names))
    for lit, names in body_vars:
        a = lit.atom
        if isinstance(a, Comparison):
            for side in (a.lhs, a.rhs):
                if isinstance(side, (IntervalTerm, IntervalFn)):
                    raise SortError(f"interval term compared with {a.op}", rule.line)
                if isinstance(side, FnApp):
                    walk.term(side, SortKind.NAT, [])
            names += term_vars(a.lhs) + term_vars(a.rhs)
            for v in names:
                walk.sorts.setdefault(v.name, SortKind.DATA)
            walk.comparison(a)

    bound = {v.name for lit, names in body_vars if not is_test(lit) for v in names}
    for lit, names in body_vars:
        if not is_test(lit):
            continue
        if isinstance(lit.atom, BUILTIN_ATOMS):
            used.extend(names)
            continue
        for v in names:  # a negated atom's wildcards stay free
            if not v.is_wildcard and v.name not in bound:
                raise SafetyViolation(_rule_name(rule), v.name, rule.line)
    for v in used:
        if v.is_wildcard:
            raise SafetyViolation(_rule_name(rule), "_", rule.line)
        if v.name not in bound:
            raise SafetyViolation(_rule_name(rule), v.name, rule.line)
    return _with_sorts(rule, walk.sorts)


# ---------------------------------------------------------------------------
# Stratification


def _stratify(meta_rules: tuple[MetaRule, ...], decls: Mapping[str, PredicateDecl]
              ) -> tuple[tuple[str, ...], ...]:
    meta_preds = sorted(n for n, d in decls.items() if d.kind is PredKind.META)
    edges: dict[str, set[str]] = {p: set() for p in meta_preds}
    neg_edges: set[tuple[str, str]] = set()
    for rule in meta_rules:
        for lit in rule.body:
            a = lit.atom
            if isinstance(a, EventAtom) and decls[a.pred].kind is PredKind.META:
                edges[a.pred].add(rule.pred)
                if lit.negated:
                    neg_edges.add((a.pred, rule.pred))
            elif isinstance(a, ExtremumTest) and decls[a.pred].kind is PredKind.META:
                # aggregates over a predicate need it fully computed first
                edges[a.pred].add(rule.pred)
                neg_edges.add((a.pred, rule.pred))

    # Tarjan strongly connected components, deterministic by name order;
    # `work` holds each open vertex beside the rest of its successors, so a
    # long chain of predicates needs no deep recursion
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[tuple[str, ...]] = []
    work: list[tuple[str, Iterator[str]]] = []

    def visit(v: str) -> None:
        index[v] = low[v] = len(index)
        stack.append(v)
        on_stack.add(v)
        work.append((v, iter(sorted(edges[v]))))

    for p in meta_preds:
        if p in index:
            continue
        visit(p)
        while work:
            v, successors = work[-1]
            for w in successors:
                if w not in index:
                    visit(w)
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        comp.append(w)
                        if w == v:
                            break
                    sccs.append(tuple(sorted(comp)))
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])

    comp_of = {p: i for i, comp in enumerate(sccs) for p in comp}
    for src, dst in sorted(neg_edges):
        if comp_of[src] == comp_of[dst]:
            raise NotStratified(sccs[comp_of[src]])

    # Tarjan emits components in reverse topological order of the condensation
    order = list(reversed(sccs))
    for rule in meta_rules:
        head_comp = comp_of[rule.pred]
        for lit in rule.body:
            a = lit.atom
            if isinstance(a, EventAtom) and decls[a.pred].kind is PredKind.META \
                    and not lit.negated and comp_of[a.pred] == head_comp:
                _check_recursive_level(rule)
                break
    return tuple(order)


def _check_recursive_level(rule: MetaRule) -> None:
    def has_arith(t: Term) -> bool:
        if isinstance(t, FnApp):
            return t.fn in ("plus", "minus") or any(has_arith(a) for a in t.args)
        return False

    if has_arith(rule.level):
        raise ParseError(
            f"recursive rule for {rule.pred} may not compute confidence levels with plus/minus",
            rule.line)


# ---------------------------------------------------------------------------
# Entry points


def parse_tes(text: str) -> TES:
    """Parse and validate a rule file into a TES."""
    decls, existence, termination, windows, meta_rules, constraints = \
        _Parser(_tokenize(text)).parse_program()
    existence = tuple(_validate_rule(r) for r in existence)
    termination = tuple(_validate_rule(r) for r in termination)
    windows = tuple(_validate_rule(r) for r in windows)
    meta_rules = tuple(_validate_rule(r) for r in meta_rules)
    constraints = tuple(_validate_rule(r) for r in constraints)

    with_window = {r.pred for r in windows}
    for r in existence:
        if decls[r.pred].kind is PredKind.NONPERSISTENT and r.pred not in with_window:
            raise MissingWindowRule(r.pred)

    strata = _stratify(meta_rules, decls)
    return TES(dict(decls), existence, termination, windows, meta_rules, constraints, strata)


# ---------------------------------------------------------------------------
# Printing


def _fmt_term(t: Term) -> str:
    if isinstance(t, Const):
        if t.name and t.name[0].islower() and t.name.isidentifier() \
                and t.name not in KEYWORDS and not t.name.startswith("_"):
            return t.name
        return f"'{t.name}'"
    if isinstance(t, Nat):
        return str(t.value)
    if isinstance(t, Var):
        return "_" if t.is_wildcard else t.name
    if isinstance(t, StarTerm):
        return "*"
    if isinstance(t, FnApp):
        return f"{t.fn}({', '.join(_fmt_term(a) for a in t.args)})"
    if isinstance(t, IntervalTerm):
        return f"[{_fmt_term(t.lo)},{_fmt_term(t.hi)}]"
    if isinstance(t, IntervalFn):
        return f"inter({', '.join(_fmt_term(a) for a in t.args)})"
    raise TypeError(f"not a term: {t!r}")


def _fmt_ref(pred: str, args: tuple[Term, ...]) -> str:
    if not args:
        return pred
    return f"{pred}({', '.join(_fmt_term(a) for a in args)})"


def format_instance(pred: str, values: tuple) -> str:
    """An event instance, a predicate with its argument values, as rule
    text: `e(a)`, or `e('A b', 3)`."""
    return _fmt_ref(pred, tuple(Nat(v) if isinstance(v, int) else Const(v) for v in values))


def _fmt_atom(a: Atom) -> str:
    if isinstance(a, Comparison):
        return f"{_fmt_term(a.lhs)} {a.op} {_fmt_term(a.rhs)}"
    if isinstance(a, ExtremumTest):
        return f"{a.name}({_fmt_ref(a.pred, a.args)}, {_fmt_term(a.t)})"
    name = a.name if isinstance(a, AllenTest) else a.pred
    return _fmt_ref(name, tuple(t for t, _ in atom_terms(a)))


def _fmt_body(body: tuple[Literal, ...]) -> str:
    if not body:
        return ""
    parts = [("not " if lit.negated else "") + _fmt_atom(lit.atom) for lit in body]
    return " :- " + ", ".join(parts)


def print_tes(tes: TES) -> str:
    """Render a TES back to rule-file text; reparsing yields an equal TES."""
    out: list[str] = []
    for d in tes.decls.values():
        out.append(f"decl {d.kind.value} {d.name}/{d.arity}.")
    for r in tes.existence:
        kw = "exists" if tes.kind(r.pred) is PredKind.NONPERSISTENT else "exists_pers"
        head = f"{kw}({_fmt_ref(r.pred, r.args)}, {_fmt_term(r.t)}, {r.level})"
        out.append(f"{head}{_fmt_body(r.body)}.")
    for r in tes.termination:
        out.append(f"ends({_fmt_ref(r.pred, r.args)}, {_fmt_term(r.t)}, {r.level})"
                   f"{_fmt_body(r.body)}.")
    for r in tes.windows:
        out.append(f"window({_fmt_ref(r.pred, r.args)}, {_fmt_term(r.w)}){_fmt_body(r.body)}.")
    for r in tes.meta_rules:
        head = _fmt_ref(r.pred, r.args + (r.interval, r.level))
        out.append(f"meta {head}{_fmt_body(r.body)}.")
    for c in tes.constraints:
        out.append(f"constraint{_fmt_body(c.body)}.")
    return "\n".join(out) + "\n"
