"""Seeded random rule texts, and a differential check of the rule lexer.

`random_rule_text` draws, half of the time each, the `print_tes` text of a
whole program from `conftest.random_program`, or one of `malformed.py`'s
rule bases after one to three of its random edits.

    PYTHONPATH=src python tests/rule_texts.py --count 100000 --seed 1

lexes each text with `language._tokenize` and with `token_walk`, the walk
over one match per blank, comment or lexeme that it must agree with, and
parses it with `parse_tes` over the tokens of each. It exits 1 at the first
text where the two give different tokens (kind, text, line, column) or a
different ParseError (class, message, line, column), or where the parses
give TES that are not equal, or different `print_tes` text, or different
errors, naming the text on stderr.
"""

from __future__ import annotations

import argparse
import random
import re
import sys
from unittest import mock

from timeloom import ParseError, parse_tes, print_tes
from timeloom import language
from timeloom.language import _PUNCT

from conftest import random_program
from malformed import GROUND_RULES, PROGRAM_RULES, THERAPY_RULES, _edit_text

# One alternative per lexeme, tried in order; blanks and comments match no
# named group. \w is what str.isalnum admits, and _, so a word may start with
# a numeric character such as "²": the walk refuses it as not a letter.
_WALK = re.compile(r"""(?P<NL>\n) | [ \t\r]+ | \#[^\n]* | (?P<QSYM>'[^'\n]*'?)
    | (?P<PUNCT>:-|<=|!=|[<()\[\],./*]) | (?P<NAT>[0-9]+) | (?P<WORD>[^\W\d]\w*)
    | (?P<OTHER>.)""", re.VERBOSE)


def token_walk(text: str) -> list[tuple]:
    """The tokens of a rule text as (kind, text, line, col) tuples, the last
    of kind EOF, from one match per newline, blank run, comment or lexeme;
    a ParseError at the first character no token takes."""
    toks: list[tuple] = []
    line, line_start = 1, 0
    for m in _WALK.finditer(text):
        kind, lexeme, col = m.lastgroup, m.group(), m.start() - line_start + 1
        if kind == "NL":
            line, line_start = line + 1, m.end()
        elif kind == "QSYM":
            if len(lexeme) == 1 or lexeme[-1] != "'":
                raise ParseError("unterminated quoted symbol", line, col)
            toks.append(("QSYM", lexeme[1:-1], line, col))
        elif kind in ("PUNCT", "NAT"):
            toks.append((_PUNCT.get(lexeme, kind), lexeme, line, col))
        elif kind == "WORD" and (lexeme[0].isalpha() or lexeme == "_"):
            kind = "WILD" if lexeme == "_" else "VAR" if lexeme[0].isupper() else "IDENT"
            toks.append((kind, lexeme, line, col))
        elif kind == "WORD" and lexeme[0] == "_":
            raise ParseError(f"names may not start with underscore: {lexeme}", line, col)
        elif kind is not None:
            raise ParseError(f"unexpected character {lexeme[0]!r}", line, col)
    toks.append(("EOF", "", line, len(text) - line_start + 1))
    return toks


RULE_BASES = (THERAPY_RULES, PROGRAM_RULES, GROUND_RULES)


def random_rule_text(rng: random.Random) -> str:
    if rng.random() < 0.5:
        return print_tes(random_program(rng)[1])
    text = rng.choice(RULE_BASES)
    for _ in range(rng.randint(1, 3)):
        text = _edit_text(rng, text)
    return text


def outcome(fn, text: str):
    """What `fn` gives for the text, or its ParseError's class, message,
    line and column."""
    try:
        return fn(text)
    except ParseError as e:
        return (type(e).__name__, e.message, e.line, e.col)


def _parse_and_print(text: str) -> tuple:
    tes = parse_tes(text)
    return tes, print_tes(tes)


def parsed(text: str):
    """`parse_tes` of the text, with its `print_tes` text, or its error."""
    return outcome(_parse_and_print, text)


def compare(text: str) -> tuple[str | None, object, object]:
    """How `_tokenize` and `parse_tes` differ from the token walk on a text
    (None when they agree), then the token walk's tokens and parse."""
    tokens, got = outcome(token_walk, text), outcome(language._tokenize, text)
    with mock.patch.object(language, "_tokenize", token_walk):
        tes = parsed(text)
    if got != tokens:
        return f"token walk: {tokens!r}\n  _tokenize: {got!r}", tokens, tes
    got = parsed(text)
    if got != tes:
        return f"over the token walk: {tes!r}\n  parse_tes: {got!r}", tokens, tes
    return None, tokens, tes


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--count", type=int, default=100000)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    rng = random.Random(args.seed)
    lexed = valid = 0
    for i in range(args.count):
        text = random_rule_text(rng)
        diff, tokens, tes = compare(text)
        if diff is not None:
            print(f"text {i}: {text!r}\n  {diff}", file=sys.stderr)
            return 1
        lexed += isinstance(tokens, list)
        valid += not isinstance(tes[0], str)  # a TES, not an error's class name
    print(f"{args.count} texts, {lexed} lexed, {valid} valid: _tokenize and parse_tes agree "
          f"with the token walk")
    return 0


if __name__ == "__main__":
    sys.exit(main())
