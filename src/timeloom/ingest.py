"""Fact ingestion: native fact files and column-mapped CSV.

Native files hold one fact per statement:

    atemporal ab(amox, weak).
    obs adm(p1, amox, 5).      # trailing value is the timestamp

CSV files are headerless; a mapping file names the predicate, the argument
columns, and the timestamp column:

    predicate=adm
    columns=0,1
    timestamp_column=2
    timestamp_format=rfc3339
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Callable

from .errors import (
    ArityMismatch,
    IoError,
    MalformedTimestamp,
    MappingError,
    ParseError,
    UndeclaredPredicate,
)
from .language import MAX_DIGITS, NATURAL, TES, PredKind, _Parser, _tokenize, read_natural
from .model import (
    AtemporalFact,
    Dataset,
    Fact,
    ObservationFact,
    fact_key,
    fact_row,
    row_fact,
)


# Blanks and `#` comments between tokens. A comment runs to the end of its
# line (`$` under re.M), so backtracking cannot end it early and read the rest
# of the line as statements. The comment branch starts with its `#`, so text
# without one pays for no repeat.
_BLANK = r"[ \t\r\n]*(?:#[^\n]*$[ \t\r\n]*(?:#[^\n]*$[ \t\r\n]*)*|)"
# A word character other than a decimal digit, `_` or A-Z starts a name. That
# is every start the lexer reads as a name, plus non-ASCII capitals and
# numerics such as "²", which `_is_name` turns away. A natural of more than
# MAX_DIGITS digits fails the statement, so the token walk refuses it.
_NAME = r"[^\W\d_A-Z]\w*"
_NAT = rf"[0-9]{{1,{MAX_DIGITS}}}"
_VALUE = rf"(?:'[^'\n]*'|{_NAT}|{_NAME})"
# A statement's prefix: its keyword, its predicate and, when it has
# parentheses, the arguments before the last one and the comma after them.
_PREFIX = re.compile(rf"(atemporal|obs)(?!\w){_BLANK}({_NAME}){_BLANK}"
                     rf"(?:\(({_BLANK}(?:{_VALUE}{_BLANK},{_BLANK})*))?", re.M)
# Text with no quote, comment, parenthesis or period, and text whose
# parentheses and periods stand only in quoted symbols and comments. A
# prefix taken this loosely is checked against `_PREFIX`, once per distinct
# prefix. `_ANY` alone matches everything `_PLAIN` does, but the matcher
# steps through its repeated group a character at a time, which made the
# statement walk about three times slower on plain text; so `_PLAIN` is
# tried first. A quote or `#` starts a quoted symbol or a comment and no
# other character does, so a failed match backtracks through either in
# linear time.
_PLAIN = r"[^'#().]*"
_ANY = r"(?:[^'#().]|'[^'\n]*'|#[^\n]*$)*"
# One statement after blanks and comments: its prefix (group 1), taken
# loosely; its `(` if it has one (group 2), and then its last value, a
# natural (group 3) or a quoted symbol or name (group 4). Else the first
# character that starts no statement (group 5), or the end of the text.
# Without a `(`, the prefix takes the blanks before the period.
_STMT = re.compile(
    rf"{_BLANK}(?:((?:atemporal|obs)(?:{_PLAIN}|{_ANY})(?:(\()(?:{_PLAIN},|{_ANY},|)|))"
    rf"(?(2){_BLANK}(?:({_NAT})|('[^'\n]*'|{_NAME})){_BLANK}\){_BLANK})\.|([^ \t\r\n#])|\Z)",
    re.M)
# Argument text already checked: a comment (no group), a quoted symbol with
# its quotes, a natural, or a word.
_ARG = re.compile(rf"#[^\n]*|('[^'\n]*')|({NATURAL.pattern})|(\w+)")


def _is_name(word: str) -> bool:
    """The lexer's test of a name's first character."""
    return word[0].isalpha() and not word[0].isupper()


def _values(text: str) -> tuple | None:
    """The values in argument text the statement pattern accepted, or None
    when a word in it is no name to the lexer."""
    parts = _ARG.findall(text)
    if not text.isascii() and not all(map(_is_name, [w for _, _, w in parts if w])):
        return None
    return tuple([int(n) if n else (w or q[1:-1]) for q, n, w in parts if q or n or w])


def _read_prefix(text: str) -> tuple | None:
    """A statement prefix's kind of fact, its predicate and its arguments;
    None when the token walk would refuse it."""
    m = _PREFIX.fullmatch(text)
    if m is None:
        return None
    kw, name, args = m.groups()
    vals = _values(args or "")
    if vals is None or not _is_name(name):
        return None
    return ObservationFact if kw == "obs" else AtemporalFact, name, vals


def _read_statements(text: str, sink: Callable) -> list[Fact] | None:
    """Walk native fact statements, putting each one's row (`fact_row`)
    where `sink` says, and return None; or, when the pattern does not accept
    the text, the token walk's facts, or its ParseError. `sink` is called
    once per distinct statement prefix, with its kind of fact and its
    predicate, and gives the function that takes the rows of that prefix's
    statements.

    One compiled pattern walks the statements. Fact files repeat their
    argument prefixes, so each distinct prefix (the keyword, the predicate
    and the arguments before the last) is checked and converted once, and
    each statement converts only its last value: the timestamp of an `obs`,
    or the last argument of an `atemporal`. The text accepted, the rows and
    the error messages are exactly those of the token walk: text the pattern
    does not accept is handed to it, and it raises the ParseError with its
    line and column."""
    known: dict[str, tuple] = {}  # each distinct prefix, read once
    for m in _STMT.finditer(text):
        prefix, _, nat, last, rest = m.groups("")
        head = known.get(prefix)
        if head is None:
            if not prefix and not rest:  # the end of the text
                continue
            read = _read_prefix(prefix)  # None, too, for a stray character
            if read is None:
                return _parse_fact_tokens(text)
            kind, name, args = read
            head = known[prefix] = (kind is ObservationFact, sink(kind, name), args)
        obs, put, args = head
        if obs and nat:
            put(args + (int(nat),))
        elif obs:
            return _parse_fact_tokens(text)
        else:
            tail = _values(nat or last)
            if tail is None:
                return _parse_fact_tokens(text)
            put(args + tail)
    return None


def parse_fact_text(text: str) -> list[Fact]:
    """Parse native fact statements into atemporal and observation facts, in
    statement order (see `_read_statements`)."""
    facts: list[Fact] = []
    refused = _read_statements(
        text, lambda kind, pred: lambda row: facts.append(row_fact(kind, pred, row)))
    return facts if refused is None else refused


def _parse_fact_tokens(text: str) -> list[Fact]:
    """The rule parser's walk over `language._tokenize`: the reference for
    `parse_fact_text`, and the source of its error messages."""
    p = _Parser(_tokenize(text))

    def value():
        t = p.advance()
        if t[0] == "NAT":
            return p.natural(t)
        if t[0] in ("IDENT", "QSYM"):
            return t[1]
        raise ParseError(f"expected a constant or natural, found {t[1]!r}", *t[2:])

    facts: list[Fact] = []
    while p.peek()[0] != "EOF":
        kw = p.expect("IDENT", "'atemporal' or 'obs'")
        if kw[1] not in ("atemporal", "obs"):
            raise ParseError(f"expected 'atemporal' or 'obs', found {kw[1]!r}", *kw[2:])
        _, name, line, col = p.expect("IDENT", "a predicate name")
        vals: list = []
        if p.peek()[0] == "LPAREN":
            p.advance()
            vals = p.comma_list(value)
            p.expect("RPAREN", "')'")
        p.expect("PERIOD", "'.'")
        if kw[1] == "atemporal":
            facts.append(AtemporalFact(name, tuple(vals)))
        else:
            if not vals or not isinstance(vals[-1], int):
                raise ParseError(f"observation {name} needs a natural timestamp last", line, col)
            facts.append(ObservationFact(name, tuple(vals[:-1]), vals[-1]))
    return facts


# ---------------------------------------------------------------------------
# CSV mapping


def _column_index(key: str, text: str, ln: int) -> int:
    """A column index: a natural counted from 0, in ASCII digits."""
    text = text.strip()
    if not NATURAL.fullmatch(text):
        raise MappingError(key, f"line {ln}: {key}: {text!r} is not a column index (0, 1, ...)")
    try:
        return read_natural(text)
    except ValueError as e:
        raise MappingError(key, f"line {ln}: {key}: {e}") from None


def parse_mapping(text: str) -> dict:
    """Parse a key=value mapping file for CSV ingestion."""
    known = {"predicate", "columns", "timestamp_column", "timestamp_format"}
    raw: dict[str, str] = {}
    line_of: dict[str, int] = {}
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise MappingError(None, f"line {ln}: expected key=value")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in known:
            raise MappingError(None, f"line {ln}: unknown key {key!r}")
        if key in raw:
            raise MappingError(None, f"line {ln}: duplicate key {key!r}")
        raw[key], line_of[key] = val, ln
    if "predicate" not in raw or not raw["predicate"]:
        raise MappingError(None, "mapping needs a predicate")
    if "timestamp_column" not in raw:
        raise MappingError(None, "mapping needs a timestamp_column")
    ts_col = _column_index("timestamp_column", raw["timestamp_column"],
                           line_of["timestamp_column"])
    cols: tuple[int, ...] = ()
    if raw.get("columns"):
        cols = tuple(_column_index("columns", c, line_of["columns"])
                     for c in raw["columns"].split(","))
    fmt = raw.get("timestamp_format", "epoch")
    if fmt not in ("epoch", "rfc3339"):
        raise MappingError("timestamp_format",
                           f"line {line_of['timestamp_format']}: unknown format {fmt!r}")
    return {"predicate": raw["predicate"], "columns": cols,
            "timestamp_column": ts_col, "timestamp_format": fmt}


def _timestamp(raw: str, fmt: str) -> int:
    raw = raw.strip()
    if fmt == "epoch":
        if not NATURAL.fullmatch(raw):
            raise MalformedTimestamp(f"timestamp {raw!r} is not a natural number")
        try:
            return read_natural(raw)
        except ValueError as e:
            raise MalformedTimestamp(f"timestamp: {e}") from None
    from datetime import datetime, timezone  # only CSV files with RFC 3339 stamps need it

    try:
        dt = datetime.fromisoformat(raw.replace("Z", "+00:00"))
    except ValueError:
        raise MalformedTimestamp(f"timestamp {raw!r} is not an RFC 3339 datetime") from None
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    epoch = int(dt.timestamp())
    if epoch < 0:
        raise MalformedTimestamp(f"timestamp {raw!r} precedes the epoch")
    return epoch


def _cell(row: list[str], c: int, rn: int):
    raw = row[c].strip()
    if not NATURAL.fullmatch(raw):
        return raw
    try:
        return read_natural(raw)
    except ValueError as e:
        raise MappingError(c, f"row {rn}: column {c}: {e}") from None


def _csv_rows(csv_text: str, mapping: dict) -> list[tuple]:
    """The observation rows (`fact_row`) of headerless CSV text under a
    mapping, in order."""
    cols = mapping["columns"]
    ts_col = mapping["timestamp_column"]
    fmt = mapping["timestamp_format"]
    import csv  # only mapped CSV files need it

    out: list[tuple] = []
    rn = 0
    try:  # the line ends stay, so a quoted field may span lines
        for rn, row in enumerate(csv.reader(csv_text.splitlines(keepends=True)), start=1):
            if not row or all(not c.strip() for c in row):
                continue
            for c in (*cols, ts_col):
                if c >= len(row):
                    raise MappingError(c, f"row {rn} has only {len(row)} columns")
            values = [_cell(row, c, rn) for c in cols]
            try:
                values.append(_timestamp(row[ts_col], fmt))
            except MalformedTimestamp as e:
                raise MalformedTimestamp(f"row {rn}: {e}") from None
            out.append(tuple(values))
    except csv.Error as e:  # e.g. a field over csv.field_size_limit()
        raise MappingError(None, f"row {rn + 1}: {e}") from None
    return out


# ---------------------------------------------------------------------------
# File-level entry points


def read_file(path: str) -> str:
    """The text of a rule, data, mapping or check-target file, read as UTF-8
    without a leading byte-order mark."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as e:
        raise IoError(f"cannot read {path}: {e}") from None


def ingest(pairs: list[tuple[str, str | None]]) -> Dataset:
    """Read (data_path, mapping_path) pairs into one dataset. Fact files
    take no mapping; CSV files require one. The rows go straight into the
    dataset's tables; no fact object is built."""
    rows: dict[tuple[type, str], dict[tuple, None]] = {}

    def sink(kind: type, pred: str) -> Callable[[tuple], object]:
        return rows.setdefault((kind, pred), {}).setdefault

    for data_path, map_path in pairs:
        text = read_file(data_path)
        if data_path.endswith(".csv"):
            if map_path is None:
                raise MappingError(None, f"CSV input {data_path} needs --map")
            try:
                mapping = parse_mapping(read_file(map_path))
            except MappingError as e:
                raise MappingError(e.column, f"{map_path}: {e}") from None
            try:
                csv_rows = _csv_rows(text, mapping)
            except MappingError as e:
                raise MappingError(e.column, f"{data_path}: {e}") from None
            except MalformedTimestamp as e:
                raise MalformedTimestamp(f"{data_path}: {e}") from None
            put = sink(ObservationFact, mapping["predicate"])
            for row in csv_rows:
                put(row)
        else:
            try:
                refused = _read_statements(text, sink)
            except ParseError as e:
                raise ParseError(f"{data_path}: {e.message}", e.line, e.col) from None
            # text the pattern refused and the token walk read: the rows put
            # before the refusal are its first ones, so they keep their place
            for f in refused or ():
                sink(f.__class__, f.pred)(fact_row(f))
    return Dataset.from_rows(rows)


def _misfit(kind: type, pred: str, arity: int,
            tes: TES) -> UndeclaredPredicate | ArityMismatch | None:
    """The error a fact of this kind, predicate and number of arguments
    raises when the rule set's declarations do not admit it, or None."""
    decl = tes.decls.get(pred)
    if decl is None:
        return UndeclaredPredicate(f"{pred} is not declared")
    want = PredKind.OBSERVATION if kind is ObservationFact else PredKind.ATEMPORAL
    if decl.kind is not want:
        return UndeclaredPredicate(f"{pred} is declared {decl.kind.value}, used as {want.value}")
    if arity != decl.arity:
        return ArityMismatch(f"{pred} declared with arity {decl.arity}, fact has {arity}")
    return None


def validate_dataset(dataset: Dataset, tes: TES) -> None:
    """Check every fact against the rule set's declarations, once per kind,
    predicate and row length. Of several facts they do not admit, the least
    in `fact_key` order is reported, so the error does not follow the order
    of the rows; that order is sought only once a fact fails."""
    misfits = []
    for (kind, pred), rows in dataset.rows.items():
        stamped = kind is ObservationFact  # a row's last value is its timestamp
        for n in set(map(len, rows)):
            if _misfit(kind, pred, n - stamped, tes):
                misfits += [row_fact(kind, pred, r) for r in rows if len(r) == n]
    if misfits:
        f = min(misfits, key=fact_key)
        raise _misfit(f.__class__, f.pred, len(f.args), tes)
