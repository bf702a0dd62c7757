"""Seeded random fact texts, and a differential check of the fact parser.

`random_fact_text` draws statements from pools of names, values, blanks and
comments; `repeated_prefix_text` draws statements that share argument
prefixes, with commas inside quoted symbols and comments, blanks and line
breaks around the last comma, and names and naturals the token walk refuses.
Each text may then have one character inserted, replaced or deleted.

    PYTHONPATH=src python tests/fact_texts.py --count 100000 --seed 1

parses each text with `ingest.parse_fact_text` and with the token walk it
must agree with, `ingest._parse_fact_tokens`, and exits 1 at the first text
where they give different facts or a different ParseError message, line or
column, naming the text on stderr. It also loads each text as a fact file
through `ingest`, which puts rows straight into a `Dataset`, and exits 1
where that dataset differs from the token walk's facts made a `Dataset`:
in its facts, its length or any predicate's rows in order, or in the
ParseError.
"""

from __future__ import annotations

import argparse
import importlib
import random
import sys
from unittest import mock

from timeloom import Dataset, ParseError

# the package's `ingest` function hides the module of the same name
ingest = importlib.import_module("timeloom.ingest")

# Pieces of random fact texts: names the lexer reads as names (lowercase,
# non-ASCII, titlecase) or not (capitals, underscores, non-decimal numerics),
# quoted symbols, and blanks and comments that may swallow what follows them
# on their line.
GOOD_NAMES = ("adm", "ab", "x1", "lab_2", "obs", "atemporal", "\u00e9mission", "\u01c5x",
              "\u03b1\u03b2", "caf\u00e9\u00b2")
BAD_NAMES = ("Adm", "X", "\u00c9mile", "_x", "_", "\u00b2x", "\u2167", "\u0665")
QUOTED = ("'amox/clav 875'", "''", "'S\u00e3o Paulo'", "'a#b'", "'5'", "'Ab'", "'\u2713'")
BAD_QUOTED = ("'two\nlines'", "'it's'", "'open")
BLANKS = ("", " ", "  ", "\t", "\n", "\r\n", " # note 'x' obs p(1).\n", "#\n")
MUTANTS = ("(", ")", ",", ".", "'", "#", "\n", " ", "_", "A", "\u00c9", "\u00b2", "\u0665",
           "5", ":-", "/", "x", "obs ", "atemporal ", "\f", "\u00a0", "# )")
# Further pieces for statements that share a prefix: quoted symbols and
# comments holding commas, so that the last comma of a statement may be
# inside one, and naturals at and past the 4,300 digits a natural may have.
COMMA_QUOTED = ("'a, b'", "'x,5'", "','", "', 7'", "'p1, amox, '")
COMMA_BLANKS = (" # a, b\n", "# ,\n", " #, 7\n", "\n  ", " \r\n\t", " # 'q', 9)\n")
LONG_NATURALS = ("4" * 4300, "9" * 4301)


def random_fact_text(rng: random.Random) -> str:
    ascii_only = rng.random() < 0.5  # where the pattern alone must tell names apart

    def pick(pool):
        return rng.choice([p for p in pool if p.isascii()] if ascii_only else pool)

    def blank():
        return pick(BLANKS) if rng.random() < 0.3 else rng.choice(("", " "))

    def name():
        return pick(BAD_NAMES if rng.random() < 0.04 else GOOD_NAMES)

    def value():
        r = rng.random()
        if r < 0.35:
            return str(rng.randrange(0, 10 ** rng.randrange(1, 12)))
        if r < 0.55:
            return pick(BAD_QUOTED if rng.random() < 0.02 else QUOTED)
        return name()

    out = []
    for _ in range(rng.randrange(0, 8)):
        kw = "fact" if rng.random() < 0.02 else rng.choice(("obs", "atemporal"))
        after_kw = "" if rng.random() < 0.02 else pick((" ", "\t", "\n", " #c\n"))
        out += [blank(), kw, after_kw, name(), blank()]
        if kw == "obs" or rng.random() < 0.7:
            vals = [value() for _ in range(rng.randrange(kw != "obs", 4))]
            if kw == "obs" and rng.random() < 0.97:
                vals.append(str(rng.randrange(100)))
            if rng.random() < 0.02:  # empty parentheses
                vals = []
            sep = [blank() + "," + blank() for _ in vals]
            out += ["(", blank(), *[v + s for v, s in zip(vals, sep[1:] + [""])], blank(), ")"]
        out += [blank(), "."]
    out.append(blank())
    return _mutate(rng, "".join(out), pick, 0.3)


def repeated_prefix_text(rng: random.Random) -> str:
    """Statements over one to three prefixes (keyword, predicate and the
    arguments before the last, with the comma after them), each used again
    with other last values. The first statements are ASCII; a later one
    may bring the first non-ASCII name."""
    late = rng.randrange(2, 6)  # the first statement that may leave ASCII

    def pick(pool, at):
        return rng.choice([p for p in pool if p.isascii()] if at < late else pool)

    def blank(at):
        r = rng.random()
        if r < 0.25:
            return pick(COMMA_BLANKS + BLANKS, at)
        return rng.choice(("", " ")) if r < 0.9 else "\n"

    def name(at):
        return pick(BAD_NAMES if rng.random() < 0.05 else GOOD_NAMES, at)

    def value(at):
        r = rng.random()
        if r < 0.3:
            return str(rng.randrange(0, 10 ** rng.randrange(1, 6)))
        if r < 0.5:
            return pick(COMMA_QUOTED + QUOTED, at)
        return name(at)

    def prefix(at):
        kw = rng.choice(("obs", "obs", "atemporal"))
        args = "".join(value(at) + blank(at) + "," for _ in range(rng.randrange(0, 3)))
        return kw, f"{kw} {name(at)}({blank(at)}{args}"

    prefixes = [prefix(0) for _ in range(rng.randint(1, 3))]
    out = []
    for at in range(rng.randint(2, 8)):
        if at >= late and rng.random() < 0.3:  # a prefix first seen here
            prefixes.append(prefix(at))
        kw, head = rng.choice(prefixes)
        r = rng.random()
        if r < 0.04:
            last = rng.choice(LONG_NATURALS)
        elif kw == "obs" and r < 0.94:
            last = str(rng.randrange(100))
        else:  # an observation's timestamp that is no natural, or any argument
            last = value(at)
        out += [blank(at), head, blank(at), last, blank(at), ").", rng.choice(("\n", " ", ""))]
    return _mutate(rng, "".join(out), lambda pool: rng.choice(pool), 0.2)


def _mutate(rng: random.Random, text: str, pick, rate: float) -> str:
    """Now and then, the text with one character inserted, replaced or
    deleted."""
    if text and rng.random() < rate:
        i = rng.randrange(len(text))
        cut = rng.randrange(2)
        text = text[:i] + pick(MUTANTS + ("",)) + text[i + cut:]
    return text


def outcome(parse, text: str):
    """The facts a parser gives, or its ParseError's message, line and column."""
    try:
        return parse(text)
    except ParseError as e:
        return (e.message, e.line, e.col)


def dataset_view(dataset: Dataset) -> tuple:
    """A dataset's facts, its length, and its rows per kind and predicate,
    each in their order."""
    return dataset.facts, len(dataset), {table: list(rows) for table, rows in dataset.rows.items()}


def ingested(text: str):
    """What `ingest` makes of a fact file holding `text`: its dataset's
    view, or its ParseError's message, line and column."""
    with mock.patch.object(ingest, "read_file", lambda path: text):
        try:
            return dataset_view(ingest.ingest([("t.facts", None)]))
        except ParseError as e:  # its message leads with the file's name
            return (e.message.removeprefix("t.facts: "), e.line, e.col)


def reference_dataset(text: str):
    """The view of the dataset of the token walk's facts, or its error."""
    return outcome(lambda t: dataset_view(Dataset(ingest._parse_fact_tokens(t))), text)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--count", type=int, default=100000)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    rng = random.Random(args.seed)
    valid = 0
    for i in range(args.count):
        draw = random_fact_text if i % 2 else repeated_prefix_text
        text = draw(rng)
        want, got = outcome(ingest._parse_fact_tokens, text), outcome(ingest.parse_fact_text, text)
        if got != want:
            print(f"text {i} ({draw.__name__}): {text!r}\n  token walk: {want!r}\n"
                  f"  parse_fact_text: {got!r}", file=sys.stderr)
            return 1
        want, got = reference_dataset(text), ingested(text)
        if got != want:
            print(f"text {i} ({draw.__name__}): {text!r}\n  token walk's dataset: {want!r}\n"
                  f"  ingest: {got!r}", file=sys.stderr)
            return 1
        valid += isinstance(want[0], frozenset)  # the facts, not an error message
    print(f"{args.count} texts, {valid} valid: parse_fact_text and ingest agree with the "
          f"token walk")
    return 0


if __name__ == "__main__":
    sys.exit(main())
