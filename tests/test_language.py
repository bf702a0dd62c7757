"""Rule language: parsing, validation, stratification, and printing."""

import os
import random
import subprocess
import sys

import pytest

from timeloom import (
    ArityMismatch,
    DuplicateDeclaration,
    MissingWindowRule,
    NotStratified,
    ParseError,
    PredKind,
    SafetyViolation,
    SortError,
    UndeclaredPredicate,
    parse_tes,
    print_tes,
)
from timeloom.language import MAX_TERM_DEPTH, _tokenize, is_schematic_window
from timeloom.model import IntervalTerm, Nat, StarTerm, Var

from conftest import THERAPY_RULES, TWO_LEVEL_NONPERSISTENT, TWO_LEVEL_PERSISTENT
from rule_texts import compare, random_rule_text

META_HEAVY = """
decl observation adm/2.
decl observation stop/2.
decl atemporal ab/1.
decl nonpersistent abth/2.
decl persistent preg/1.
decl meta combo/1.
decl meta flagged/1.
exists(abth(P, D), T, 1) :- adm(P, D, T), ab(D).
ends(abth(P, D), T, 2) :- stop(P, D, T).
window(abth(P, D), 48) :- adm(P, D, T).
exists_pers(preg(P), T, 1) :- adm(P, ob, T).
meta combo(P, inter([T1, T2], [T3, T4]), max(L1, L2)) :-
    abth(P, D, [T1, T2], L1), preg(P, [T3, T4], L2),
    not abth(P, other, [T1, T2], _), T1 < T3.
meta flagged(P, I, L) :- combo(P, I, L), abth(P, amox, [T5, T6], _),
    start(abth(P, amox), T5), before(I, [T5, T6]).
constraint :- abth(P, 'amox-clav', [T1, T2]), preg(P, [T1, T3]).
"""


@pytest.mark.parametrize("text", [
    TWO_LEVEL_NONPERSISTENT, TWO_LEVEL_PERSISTENT, THERAPY_RULES, META_HEAVY])
def test_print_parse_round_trip(text):
    """Printing reaches a fixpoint and preserves the parsed structure."""
    t1 = parse_tes(text)
    printed = print_tes(t1)
    t2 = parse_tes(printed)
    assert t2 == t1
    assert print_tes(t2) == printed


def test_decl_basics(np_tes):
    assert np_tes.kind("e") is PredKind.NONPERSISTENT
    assert np_tes.is_event_pred("e")
    assert np_tes.is_simple_pred("e")
    assert not np_tes.is_event_pred("missing")


def test_duplicate_declaration():
    with pytest.raises(DuplicateDeclaration):
        parse_tes("decl atemporal a/1.\ndecl observation a/2.")


def test_undeclared_predicate():
    with pytest.raises(UndeclaredPredicate):
        parse_tes("decl nonpersistent e/0.\nexists(e, T, 1) :- adm(T).")


def test_arity_mismatch():
    with pytest.raises(ArityMismatch):
        parse_tes("decl observation adm/1.\ndecl nonpersistent e/0.\n"
                  "exists(e, T, 1) :- adm(X, Y, T).\nwindow(e, 2).")
    with pytest.raises(ArityMismatch):
        parse_tes("decl meta m/1.\ndecl persistent p/0.\n"
                  "meta m(I, L) :- p(I, L).")


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_tes("decl atemporal a/1")  # missing period
    with pytest.raises(ParseError):
        parse_tes("decl nonpersistent e/0.\nexists(e, 2, 0).\nwindow(e, 1).")
    with pytest.raises(ParseError):
        parse_tes("decl atemporal _a/1.")
    with pytest.raises(ParseError):
        parse_tes("decl atemporal a/0.\ndecl meta m/0.\nmeta m(I, L) :- a, I.")
    with pytest.raises(ParseError):
        parse_tes("decl atemporal 'a b'/1.")
    with pytest.raises(ParseError):
        parse_tes("decl persistent p/0.\nconstraint :- p.")  # bare event atom
    with pytest.raises(ParseError):
        parse_tes("decl persistent p/0.\nexists(p, 1, 1).")  # wrong keyword
    with pytest.raises(ParseError):
        parse_tes("decl observation o/1.\ndecl nonpersistent e/1.\n"
                  "exists(e(_), T, 1) :- o(T).\nwindow(e(X), 1).")
    with pytest.raises(ParseError):
        parse_tes("decl persistent p/0.\nwindow(p, 3).")


def test_reserved_words_rejected():
    with pytest.raises(ParseError):
        parse_tes("decl atemporal not/1.")
    with pytest.raises(ParseError):
        parse_tes("decl atemporal inter/2.")


def test_sort_errors():
    # a symbol where a timepoint is required
    with pytest.raises(SortError):
        parse_tes("decl nonpersistent e/0.\nexists(e, amox, 1).\nwindow(e, 1).")
    # one variable used as data and as a timepoint
    with pytest.raises(SortError):
        parse_tes("decl observation adm/1.\ndecl nonpersistent e/0.\n"
                  "exists(e, T, 1) :- adm(T, T).\nwindow(e, 1).")
    # ordering comparisons need numeric sides
    with pytest.raises(SortError):
        parse_tes("decl atemporal a/1.\ndecl persistent p/0.\ndecl meta m/0.\n"
                  "meta m(I, 1) :- a(X), p(I, L), X < 3.")
    with pytest.raises(SortError):
        parse_tes("decl nonpersistent e/0.\nexists(e, 1, 1).\nwindow(e, 0).")


@pytest.mark.parametrize("test", ["I < J", "I <= 3"])
def test_ordering_over_intervals_is_a_sort_error(test):
    with pytest.raises(SortError) as err:
        parse_tes("decl persistent e/1.\ndecl meta m/1.\n"
                  f"meta m(P, I, L) :- e(P, I, L), e(P, J, L2), {test}.")
    assert err.value.line == 3 and "ordering comparison over intervals" in str(err.value)
    # inequality of intervals stays allowed
    parse_tes("decl persistent e/1.\ndecl meta m/1.\n"
              "meta m(P, I, L) :- e(P, I, L), e(P, J, L2), I != J.")


def test_safety_violations():
    # head variable never bound by a positive body atom
    with pytest.raises(SafetyViolation):
        parse_tes("decl nonpersistent e/1.\nexists(e(X), 0, 1).\nwindow(e(X), 1).")
    # variable appearing only under negation
    with pytest.raises(SafetyViolation):
        parse_tes("decl persistent p/0.\ndecl persistent q/1.\n"
                  "constraint :- p([T, T2]), not q(Y, [T, T3]).")
    # wildcard in a head interval endpoint
    with pytest.raises(SafetyViolation):
        parse_tes("decl persistent p/0.\ndecl meta m/0.\n"
                  "meta m([T, _], 1) :- p([T, T2], L).")
    # builtin-test variable with no binder
    with pytest.raises(SafetyViolation):
        parse_tes("decl persistent p/0.\ndecl meta m/0.\n"
                  "meta m(I, 1) :- p(I, L), before(I, J).")


def test_missing_window_rule():
    with pytest.raises(MissingWindowRule):
        parse_tes("decl nonpersistent e/0.\nexists(e, 2, 1).")


def test_not_stratified():
    with pytest.raises(NotStratified):
        parse_tes("decl meta a/0.\ndecl meta b/0.\n"
                  "meta a(I, L) :- b(I, L).\nmeta b(I, L) :- not a(I, _), a(I, L).")
    # aggregates count as negative dependencies
    with pytest.raises(NotStratified):
        parse_tes("decl meta a/0.\n"
                  "meta a([T1, T2], 1) :- a([T1, T2], L), start(a, T1).")


def test_not_stratified_names_the_same_cycle_under_any_hash_seed(tmp_path):
    """Of two negation cycles, the one named is fixed by predicate name, not
    by set order; hash seeds 0 and 2 once named different cycles."""
    (tmp_path / "two.tes").write_text(
        "decl persistent e/0.\n" + "".join(f"decl meta {p}/0.\n" for p in "abcd")
        + "exists_pers(e, 2, 1).\n"
        + "".join(f"meta {p}(I, L) :- e(I, L), not {q}(I, L).\n"
                  for p, q in ("ab", "ba", "cd", "dc")))
    (tmp_path / "e.facts").write_text("")
    errs = set()
    for seed in ("0", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "timeloom", "run", "--rules", str(tmp_path / "two.tes"),
             "--data", str(tmp_path / "e.facts")],
            capture_output=True, text=True, env={**os.environ, "PYTHONHASHSEED": seed})
        assert proc.returncode == 1
        errs.add(proc.stderr)
    assert errs == {f"error: {tmp_path / 'two.tes'}: negation cycle through a -> b\n"}


def test_recursion_allowed_when_stratified():
    tes = parse_tes(
        "decl atemporal next/2.\ndecl persistent step/1.\ndecl meta chain/2.\n"
        "meta chain(X, Y, I, L) :- step(X, I, L), next(X, Y).\n"
        "meta chain(X, Z, I, L) :- chain(X, Y, I, L), next(Y, Z).")
    assert ("chain",) in tes.strata


def test_cycle_through_three_predicates_is_one_stratum():
    """The low link of the deepest predicate reaches the first one through
    the middle one, so all three close as one component."""
    tes = parse_tes("decl persistent e/0.\ndecl meta a/0.\ndecl meta b/0.\ndecl meta c/0.\n"
                    "meta a(I, L) :- e(I, L).\nmeta b(I, L) :- a(I, L).\n"
                    "meta c(I, L) :- b(I, L).\nmeta a(I, L) :- c(I, L).")
    assert tes.strata == (("a", "b", "c"),)


def test_recursive_level_arithmetic_rejected():
    with pytest.raises(ParseError):
        parse_tes("decl meta a/0.\n"
                  "meta a(I, plus(L, 1)) :- a(I, L).")


def test_schematic_window():
    tes = parse_tes("decl nonpersistent e/2.\ndecl observation o/2.\n"
                    "exists(e(X, Y), T, 1) :- o(X, Y, T).\nwindow(e(A, B), 7).")
    assert len(tes.windows) == 1
    assert is_schematic_window(tes.windows[0])
    # a ground-argument window rule is not schematic
    tes2 = parse_tes("decl nonpersistent e/1.\ndecl observation o/1.\n"
                     "exists(e(X), T, 1) :- o(X, T).\nwindow(e(a), 7).\n"
                     "window(e(X), 3) :- o(X, T).")
    assert not any(is_schematic_window(w) for w in tes2.windows)


def test_monotonicity_flags():
    plain = parse_tes(TWO_LEVEL_NONPERSISTENT)
    assert plain.is_monotone
    assert not plain.constraints
    neg = parse_tes("decl persistent p/0.\ndecl persistent q/0.\n"
                    "constraint :- p([T, T2]), not q([T, T2]).")
    assert not neg.is_monotone
    agg = parse_tes("decl persistent p/1.\ndecl meta m/1.\n"
                    "meta m(X, [T1, T2], 1) :- p(X, [T1, T2], L), start(p(X), T1).")
    assert not agg.is_monotone


def test_termination_levels(np_tes):
    assert {r.level for r in np_tes.termination} == {1}


def test_quoted_symbols_round_trip():
    tes = parse_tes("decl atemporal allergic/1.\ndecl persistent tkith/1.\n"
                    "constraint :- tkith('amox/clav 875', [T1, T2]), "
                    "allergic('amox/clav 875').")
    printed = print_tes(tes)
    assert "'amox/clav 875'" in printed
    assert parse_tes(printed) == tes


def test_zero_arity_event_refs(np_tes):
    assert np_tes.existence[0].pred == "e"
    assert np_tes.existence[0].args == ()


def test_comment_and_star_tokens():
    tes = parse_tes("# leading comment\ndecl persistent p/0.\n"
                    "decl meta m/0.\nmeta m([T, *], 1) :- p([T, T2], L).  # tail\n")
    assert len(tes.meta_rules) == 1


def _nested_min_rules(depth):
    term = "L"
    for _ in range(depth):
        term = f"min({term})"
    return f"decl persistent e/0.\ndecl meta m/0.\nmeta m(I, {term}) :- e(I, L).\n"


def test_terms_nest_at_most_max_term_depth():
    tes = parse_tes(_nested_min_rules(MAX_TERM_DEPTH))
    assert parse_tes(print_tes(tes)) == tes
    with pytest.raises(ParseError) as err:
        parse_tes(_nested_min_rules(MAX_TERM_DEPTH + 1))
    assert err.value.message == f"terms may nest at most {MAX_TERM_DEPTH} deep"
    # the innermost min( beyond the limit
    assert (err.value.line, err.value.col) == (3, 11 + 4 * MAX_TERM_DEPTH)
    with pytest.raises(ParseError):
        parse_tes(_nested_min_rules(1000))


def test_end_of_input_is_the_column_after_a_one_character_token():
    with pytest.raises(ParseError) as err:
        parse_tes("decl atemporal ab/")
    assert (err.value.message, err.value.line, err.value.col) == (
        "expected an arity, found ''", 1, 19)


ENDPOINT_PREAMBLE = "decl persistent e/0.\ndecl meta m/0.\n"
BAD_ENDPOINT = "interval endpoints must be naturals, variables, _, or *"


@pytest.mark.parametrize("line3, message, col", [
    ("meta m([*, 3], 1) :- e(I, L).", "* may only close an interval", 9),
    ("meta m([a, 3], 1) :- e(I, L).", BAD_ENDPOINT, 9),
    ("meta m([1, 2], 1) :- e([2, a], 1).", BAD_ENDPOINT, 28),
], ids=["star-opens", "symbol-opens", "symbol-closes"])
def test_interval_endpoint_rejections(line3, message, col):
    with pytest.raises(ParseError) as err:
        parse_tes(ENDPOINT_PREAMBLE + line3)
    assert (err.value.message, err.value.line, err.value.col) == (message, 3, col)


def test_interval_endpoints_take_naturals_variables_wildcards_and_a_closing_star():
    tes = parse_tes(ENDPOINT_PREAMBLE + "meta m([1, T], 1) :- e([_, *], L), e([2, T], L2).")
    assert [lit.atom.interval for lit in tes.meta_rules[0].body] == [
        IntervalTerm(Var("_1"), StarTerm()), IntervalTerm(Nat(2), Var("T"))]


PLACES_PREAMBLE = ("decl atemporal a/1. decl observation o/1. decl persistent p/1.\n"
                   "decl nonpersistent n/1. decl meta m/1.\n")
META_BODY = "meta m(X, I, L) :- p(X, I, L), "


@pytest.mark.parametrize("rule", [
    # a wildcard where it binds nothing: head arguments and timepoints,
    # comparison sides, extremum timepoints and Allen arguments
    "exists_pers(p(_), T, 1) :- o(X, T).",
    "window(n(_), 3).",
    "meta m(_, I, L) :- p(X, I, L).",
    "exists_pers(p(X), _, 1) :- o(X, T).",
    "exists_pers(p(X), plus(_, 1), 1) :- o(X, T).",
    META_BODY + "_ != X.",
    META_BODY + "X != min(_, 1).",
    META_BODY + "start(p(X), _).",
    META_BODY + "before(I, _).",
    META_BODY + "before(I, inter(I, _)).",
    # functions stand only in heads and comparisons
    "exists_pers(p(min(X, 1)), T, 1) :- o(X, T).",
    "exists_pers(p(X), 3, 1) :- o(X, plus(T, 1)).",
    META_BODY + "p(X, I, plus(L, 1)).",
    META_BODY + "o(X, T), start(p(X), min(T, 3)).",
    META_BODY + "p(X, inter(I, J), L).",
    "constraint :- p(X, inter([1, 2], [1, 3])).",
    # interval terms stand only where an interval does
    META_BODY + "[1, 2] != I.",
    META_BODY + "inter(I, I) != I.",
    "constraint :- a([1, 2]).",
    "constraint :- a(*).",
    "meta m(X, 3, L) :- p(X, I, L).",
    META_BODY + "before(c, I).",
    "meta m(X, inter(3, I), L) :- p(X, I, L).",
])
def test_terms_out_of_place_are_refused_at_their_line(rule):
    with pytest.raises(ParseError) as err:
        parse_tes(PLACES_PREAMBLE + "exists_pers(p(X), T, 1) :- o(X, T).\n" + rule)
    assert err.value.line == 4


def test_a_function_may_close_a_window():
    tes = parse_tes(PLACES_PREAMBLE + "window(n(X), plus(1, 2)) :- a(X).")
    assert parse_tes(print_tes(tes)) == tes


def _eof(line, col):
    return ("EOF", "", line, col)


def _unexpected(char, col):
    return (f"unexpected character {char!r}", 1, col)


@pytest.mark.parametrize("text, want", [
    # not a letter, though \w (str.isalnum) admits it inside a word
    ("\u00b2a", _unexpected("\u00b2", 1)),
    ("x\u00b2b", [("IDENT", "x\u00b2b", 1, 1), _eof(1, 4)]),
    ("\u0665a", _unexpected("\u0665", 1)),
    ("x\u0665b", [("IDENT", "x\u0665b", 1, 1), _eof(1, 4)]),
    ("\u216ba", _unexpected("\u216b", 1)),
    ("x\u216bb", [("IDENT", "x\u216bb", 1, 1), _eof(1, 4)]),
    # letters: upper case starts a variable; title case and ordinals do not
    ("\u00c9a", [("VAR", "\u00c9a", 1, 1), _eof(1, 3)]),
    ("x\u00c9b", [("IDENT", "x\u00c9b", 1, 1), _eof(1, 4)]),
    ("\u01c5a", [("IDENT", "\u01c5a", 1, 1), _eof(1, 3)]),
    ("x\u01c5b", [("IDENT", "x\u01c5b", 1, 1), _eof(1, 4)]),
    ("\u00aaa", [("IDENT", "\u00aaa", 1, 1), _eof(1, 3)]),
    ("x\u00aab", [("IDENT", "x\u00aab", 1, 1), _eof(1, 4)]),
    # neither letters nor blanks, anywhere
    ("\u0301a", _unexpected("\u0301", 1)),
    ("x\u0301b", _unexpected("\u0301", 2)),
    ("\u00a0a", _unexpected("\u00a0", 1)),
    ("x\u00a0b", _unexpected("\u00a0", 2)),
    ("\fa", _unexpected("\f", 1)),
    ("x\fb", _unexpected("\f", 2)),
    ("_x", ("names may not start with underscore: _x", 1, 1)),
    ("a :b", _unexpected(":", 3)),
    ("a ! b", _unexpected("!", 3)),
    ("p('ab", ("unterminated quoted symbol", 1, 3)),
    ("p('", ("unterminated quoted symbol", 1, 3)),
    ("p('ab\n')", ("unterminated quoted symbol", 1, 3)),
    ("a\r\n  'B c'<=_", [("IDENT", "a", 1, 1), ("QSYM", "B c", 2, 3), ("LE", "<=", 2, 8),
                         ("WILD", "_", 2, 10), _eof(2, 11)]),
])
def test_tokens_and_errors_of_tricky_characters(text, want):
    if isinstance(want, tuple):
        with pytest.raises(ParseError) as err:
            _tokenize(text)
        assert (err.value.message, err.value.line, err.value.col) == want
    else:
        assert _tokenize(text) == want


def test_end_of_input_after_a_comment_is_the_column_past_it():
    with pytest.raises(ParseError) as err:
        parse_tes("decl atemporal ab/ # x")
    assert (err.value.message, err.value.line, err.value.col) == (
        "expected an arity, found ''", 1, 23)


def test_lexer_and_parse_tes_agree_with_the_token_walk():
    """On printed random programs and randomly edited rule files, the lexer
    gives the token walk's tokens or its ParseError, and `parse_tes` gives
    the same TES and printed text, or the same error, over either."""
    rng = random.Random(20261020)
    results = [compare(random_rule_text(rng)) for _ in range(1000)]
    assert [diff for diff, _, _ in results if diff is not None] == []
    lexed = sum(isinstance(tokens, list) for _, tokens, _ in results)
    valid = sum(not isinstance(tes[0], str) for _, _, tes in results)
    # lexer errors, parse errors and valid texts are all well represented
    assert 30 < len(results) - lexed < 150 and 300 < lexed - valid and valid > 500, (lexed, valid)
