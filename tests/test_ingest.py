"""Native fact files, CSV mappings, timestamp handling, and dataset checks."""

import importlib
import os
import random
import subprocess
import sys
import time
from datetime import date

import pytest

from timeloom import (
    ArityMismatch,
    AtemporalFact,
    IoError,
    MalformedTimestamp,
    MappingError,
    ObservationFact,
    ParseError,
    UndeclaredPredicate,
    ingest,
    parse_fact_text,
    validate_dataset,
)
from timeloom.ingest import _csv_rows, _parse_fact_tokens, parse_mapping
from timeloom.model import row_fact

from conftest import therapy_tes  # noqa: F401
from fact_texts import (
    ingested,
    outcome,
    random_fact_text,
    reference_dataset,
    repeated_prefix_text,
)


def test_parse_fact_text():
    """Statements that share a prefix share its arguments, and the last comma
    of a statement may stand inside a quoted symbol or a comment."""
    facts = parse_fact_text("""
        atemporal ab(amox, weak).   # comments run to end of line
        obs adm(p1, amox, 5).  obs adm(p1, amox,
          7).
        obs tick(3).
        atemporal flag.
        atemporal named('amox/clav 875').
        obs adm(p1, amox, # a comment, with a comma
          9).
        atemporal named(p1, 'a, b').
        atemporal named(p1, # the last comma is in here,
          c).
    """)
    assert facts == [
        AtemporalFact("ab", ("amox", "weak")),
        ObservationFact("adm", ("p1", "amox"), 5),
        ObservationFact("adm", ("p1", "amox"), 7),
        ObservationFact("tick", (), 3),
        AtemporalFact("flag", ()),
        AtemporalFact("named", ("amox/clav 875",)),
        ObservationFact("adm", ("p1", "amox"), 9),
        AtemporalFact("named", ("p1", "a, b")),
        AtemporalFact("named", ("p1", "c")),
    ]


# each text with the token walk's message, line and column
REJECTED = {
    "atemporal ab(a)": ("expected '.', found ''", 1, 16),  # missing period
    "fact f(1).": ("expected 'atemporal' or 'obs', found 'fact'", 1, 1),  # unknown keyword
    # a symbol where the timestamp belongs, and no timestamp at all
    "obs adm(p1).": ("observation adm needs a natural timestamp last", 1, 5),
    "obs adm.": ("observation adm needs a natural timestamp last", 1, 5),
    "obs adm(p1, 5) obs": ("expected '.', found 'obs'", 1, 16),  # runs into the next
    "atemporal ab(a,).": ("expected a constant or natural, found ')'", 1, 16),  # dangling comma
    # input ending in a one-character token ends in the column after it
    "obs a(": ("expected a constant or natural, found ''", 1, 7),
    # naturals are ASCII digits: int() rejects "\u00b2", and "\u0665" is no longer 5
    "obs lab(p1,\n  5\u00b2).": ("unexpected character '\u00b2'", 2, 4),
    "obs lab(p1, \u0665).": ("unexpected character '\u0665'", 1, 13),
}


@pytest.mark.parametrize("text", list(REJECTED))
def test_parse_fact_text_rejects(text):
    with pytest.raises(ParseError) as info:
        parse_fact_text(text)
    assert (info.value.message, info.value.line, info.value.col) == REJECTED[text]


@pytest.mark.parametrize("text, error", [
    ("obs p" + "\n" * 100_000, ("expected '.', found ''", 100_001, 1)),
    ("obs p" + " " * 100_000 + "(x", ("expected ')', found ''", 1, 100_008)),
])
def test_long_blank_runs_fail_in_linear_time(text, error):
    """A statement that fails after a long blank run costs the statement
    pattern one pass over the run, not one per blank: were it quadratic,
    100,000 blanks would take minutes."""
    start = time.perf_counter()
    with pytest.raises(ParseError) as info:
        parse_fact_text(text)
    assert time.perf_counter() - start < 2.0
    assert (info.value.message, info.value.line, info.value.col) == error


def test_parse_fact_text_matches_the_token_walk(monkeypatch):
    """The statement pattern gives the token walk's facts, or its ParseError
    with the same message, line and column, and valid text never reaches the
    token walk; `ingest` gives the dataset of those facts, or that error.
    The texts of the second draw share argument prefixes."""
    rng = random.Random(20261018)
    texts = [random_fact_text(rng) for _ in range(600)]
    want = [outcome(_parse_fact_tokens, t) for t in texts]
    assert [outcome(parse_fact_text, t) for t in texts] == want
    valid = [(t, w) for t, w in zip(texts, want) if isinstance(w, list)]
    assert 150 < len(valid) < 450, len(valid)  # both kinds of text are well represented
    assert sum(len(w) for _, w in valid) > 300

    shared = [repeated_prefix_text(rng) for _ in range(400)]
    want = [outcome(_parse_fact_tokens, t) for t in shared]
    assert [outcome(parse_fact_text, t) for t in shared] == want
    shared_valid = [(t, w) for t, w in zip(shared, want) if isinstance(w, list)]
    assert 100 < len(shared_valid) < 300, len(shared_valid)
    # most valid texts give two facts of one prefix
    repeats = sum(len({(f.pred, f.args) if isinstance(f, ObservationFact) else
                       (f.pred, f.args[:-1]) for f in w}) < len(w) for _, w in shared_valid)
    assert repeats > len(shared_valid) // 2, repeats

    # `ingest` puts the same statements as rows into a dataset: the token
    # walk's facts made a dataset, each predicate's rows in their order
    assert [ingested(t) for t in texts + shared] == [reference_dataset(t) for t in texts + shared]

    def no_token_walk(text):
        raise AssertionError(f"valid text reached the token walk: {text!r}")

    # the package's `ingest` function hides the module of the same name
    ingest_module = importlib.import_module("timeloom.ingest")
    monkeypatch.setattr(ingest_module, "_parse_fact_tokens", no_token_walk)
    for text, facts in valid + shared_valid:
        assert parse_fact_text(text) == facts


MAPPING = """\
# administration records
predicate=adm
columns=0,1
timestamp_column=2
timestamp_format=rfc3339
"""


def test_parse_mapping():
    m = parse_mapping(MAPPING)
    assert m == {"predicate": "adm", "columns": (0, 1),
                 "timestamp_column": 2, "timestamp_format": "rfc3339"}
    # columns and format are optional
    m = parse_mapping("predicate=lab\ntimestamp_column=0\n")
    assert m == {"predicate": "lab", "columns": (),
                 "timestamp_column": 0, "timestamp_format": "epoch"}


@pytest.mark.parametrize("text", [
    "timestamp_column=0",                               # no predicate
    "predicate=\ntimestamp_column=0",                   # empty predicate
    "predicate=adm",                                    # no timestamp column
    "predicate=adm\ntimestamp_column=x",                # non-numeric column
    "predicate=adm\ntimestamp_column=0\ncolumns=0,x",   # non-numeric column list
    "predicate=adm\ntimestamp_column=-1",               # negative index
    "predicate=adm\ntimestamp_column=0\ncolumns=-2",    # negative index
    "predicate=adm\ntimestamp_column=0\nrows=3",        # unknown key
    "predicate=adm\npredicate=lab\ntimestamp_column=0",  # duplicate key
    "predicate adm\ntimestamp_column=0",                # not key=value
    "predicate=adm\ntimestamp_column=0\ntimestamp_format=unix",  # unknown format
    "predicate=adm\ntimestamp_column=1_0",              # int() syntax, not a natural
    "predicate=adm\ntimestamp_column=\u0665",           # a non-ASCII digit
    "predicate=adm\ntimestamp_column=0\ncolumns=0,1_0",
    "predicate=adm\ntimestamp_column=0\ncolumns=\u0665",
])
def test_parse_mapping_rejects(text):
    with pytest.raises(MappingError):
        parse_mapping(text)


def csv_facts(csv_text, mapping):
    """The observation facts of headerless CSV text under a mapping."""
    return [row_fact(ObservationFact, mapping["predicate"], row)
            for row in _csv_rows(csv_text, mapping)]


def test_csv_rows_epoch():
    m = parse_mapping("predicate=adm\ncolumns=0,1\ntimestamp_column=2")
    rows = "p1,amox,5\n\np2, 7 ,12\np3,5\u00b2,13\np4,\u0665,14\n"
    assert csv_facts(rows, m) == [
        ObservationFact("adm", ("p1", "amox"), 5),
        ObservationFact("adm", ("p2", 7), 12),  # numeric cells become naturals
        ObservationFact("adm", ("p3", "5\u00b2"), 13),  # only ASCII digits do
        ObservationFact("adm", ("p4", "\u0665"), 14),
    ]


def test_csv_rows_keeps_line_breaks_in_quoted_fields():
    m = parse_mapping("predicate=adm\ncolumns=0,1\ntimestamp_column=2")
    assert csv_facts('p1,"a\nb",5\np2,"c\r\nd",6\n', m) == [
        ObservationFact("adm", ("p1", "a\nb"), 5), ObservationFact("adm", ("p2", "c\r\nd"), 6)]


@pytest.mark.parametrize("rows, row", [
    ("p1,a,5\n\np2,b,x\n", 3),              # a blank line is a row
    ("p1,a,6\x0cp2,b,6\np3,c,x\n", 1),       # a form feed is part of its cell: 6\x0cp2
    ('p1,"a\nb",5\np2,b,x\n', 2),           # a quoted line break ends no row
    ('p1,"a\r\nb\rc",5\r\np2,b,6\rp3,c,x\r\n', 3),  # CR and CRLF end rows outside quotes
], ids=["blank-line", "form-feed", "quoted-line-break", "carriage-returns"])
def test_csv_rows_error_rows(rows, row):
    m = parse_mapping("predicate=adm\ncolumns=0,1\ntimestamp_column=2")
    with pytest.raises(MalformedTimestamp, match=f"^row {row}: "):
        csv_facts(rows, m)


def test_csv_files_read_their_cells_as_the_csv_module_does(tmp_path):
    # a CSV file is read with newline="": a quoted CR or CRLF stays in its
    # cell, and only CR, LF and CRLF end a row, not the other characters
    # str.splitlines breaks at; the cells equal those csv.reader gives the
    # file opened with newline="", and a short row's error counts records
    import csv

    breaks = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    text = ('p1,"c\r\nd",1\r\np2,"e\rf",2\rp3,"g\nh",3\n'
            + "".join(f"q{i},e{b}f,{i}\n" for i, b in enumerate(breaks)))
    data = tmp_path / "d.csv"
    data.write_bytes(text.encode("utf-8"))
    mapping = tmp_path / "d.map"
    mapping.write_text("predicate=adm\ncolumns=0,1\ntimestamp_column=2\n")
    with open(data, encoding="utf-8", newline="") as f:
        want = [(r[0], r[1], int(r[2])) for r in csv.reader(f)]
    assert [w[1] for w in want[:3]] == ["c\r\nd", "e\rf", "g\nh"] and len(want) == 3 + len(breaks)
    assert list(ingest([(str(data), str(mapping))]).rows[ObservationFact, "adm"]) == want
    # the fourth record is short; the quoted line breaks before it end no row
    data.write_bytes(b'p1,"a\r\nb",1\r\np2,"c\rd",2\rp3,e,3\np4,f\x0cg\r\n')
    with pytest.raises(MappingError, match="row 4 has only 2 columns"):
        ingest([(str(data), str(mapping))])


def test_csv_rows_short_row():
    m = parse_mapping("predicate=adm\ncolumns=0,1\ntimestamp_column=2")
    with pytest.raises(MappingError):
        csv_facts("p1,amox\n", m)


RFC_MAP = "predicate=lab\ncolumns=0\ntimestamp_column=1\ntimestamp_format=rfc3339"


def test_rfc3339_timestamps():
    m = parse_mapping(RFC_MAP)
    # independent count of days since the epoch
    want = (date(2021, 3, 1).toordinal() - date(1970, 1, 1).toordinal()) * 86400
    assert want == 1614556800
    got = csv_facts(
        "p1,2021-03-01T00:00:00Z\n"
        "p2,2021-03-01T00:00:00\n"          # naive datetimes count as UTC
        "p3,2021-03-01T01:00:00+01:00\n", m)
    assert [f.t for f in got] == [want, want, want]
    assert csv_facts("p1,1970-01-01T00:00:30Z\n", m)[0].t == 30


@pytest.mark.parametrize("cell,fmt", [
    ("not-a-date", "rfc3339"),
    ("1969-12-31T00:00:00Z", "rfc3339"),   # precedes the epoch
    ("-3", "epoch"),
    ("1.5", "epoch"),
    ("2021-03-01T00:00:00Z", "epoch"),
    ("5\u00b2", "epoch"),                   # a digit to str.isdigit, not to int()
])
def test_bad_timestamps(cell, fmt):
    m = parse_mapping(f"predicate=lab\ntimestamp_column=0\ntimestamp_format={fmt}")
    with pytest.raises(MalformedTimestamp):
        csv_facts(f"{cell}\n", m)


def test_ingest_files(tmp_path):
    native = tmp_path / "facts.txt"
    native.write_text("obs adm(p1, amox, 5).\natemporal ab(amox, weak).\n")
    data = tmp_path / "labs.csv"
    data.write_text("p1,2021-03-01T00:00:00Z\n")
    mapping = tmp_path / "labs.map"
    mapping.write_text(RFC_MAP)
    ds = ingest([(str(native), None), (str(data), str(mapping))])
    assert set(ds.facts) == {
        ObservationFact("adm", ("p1", "amox"), 5),
        AtemporalFact("ab", ("amox", "weak")),
        ObservationFact("lab", ("p1",), 1614556800),
    }


def test_ingest_drops_a_byte_order_mark(tmp_path):
    # a BOM must not become part of the first CSV symbol, nor a fact-file token
    data = tmp_path / "labs.csv"
    data.write_bytes(b"\xef\xbb\xbfp1,4\np1,6\n")
    mapping = tmp_path / "labs.map"
    mapping.write_text("predicate=lab\ncolumns=0\ntimestamp_column=1\n")
    native = tmp_path / "facts.txt"
    native.write_bytes(b"\xef\xbb\xbfobs adm(p1, amox, 5).\n")
    ds = ingest([(str(data), str(mapping)), (str(native), None)])
    assert set(ds.facts) == {
        ObservationFact("lab", ("p1",), 4),
        ObservationFact("lab", ("p1",), 6),
        ObservationFact("adm", ("p1", "amox"), 5),
    }


def test_ingest_errors(tmp_path):
    data = tmp_path / "labs.csv"
    data.write_text("p1,5\n")
    with pytest.raises(MappingError):
        ingest([(str(data), None)])  # CSV without a mapping
    with pytest.raises(IoError):
        ingest([(str(tmp_path / "missing.txt"), None)])
    with pytest.raises(IoError):
        ingest([(str(data), str(tmp_path / "missing.map"))])


def test_validate_dataset(therapy_tes):  # noqa: F811
    from timeloom import Dataset

    validate_dataset(Dataset([ObservationFact("adm", ("p1", "amox"), 5)]), therapy_tes)
    with pytest.raises(UndeclaredPredicate):
        validate_dataset(Dataset([ObservationFact("zzz", (), 1)]), therapy_tes)
    with pytest.raises(UndeclaredPredicate):
        # declared as an observation, supplied as atemporal
        validate_dataset(Dataset([AtemporalFact("adm", ("p1", "amox"))]), therapy_tes)
    with pytest.raises(UndeclaredPredicate):
        # event predicates never appear in datasets
        validate_dataset(Dataset([ObservationFact("abth", ("p1", "amox"), 3)]), therapy_tes)
    with pytest.raises(ArityMismatch):
        validate_dataset(Dataset([ObservationFact("adm", ("p1",), 5)]), therapy_tes)


def test_validation_reports_the_least_bad_fact_whatever_the_hash_seed(tmp_path):
    # three undeclared predicates and one arity mismatch: the least of the
    # four in fact order is reported, not the first the fact set yields
    (tmp_path / "r.tes").write_text("decl observation lab/1.\n")
    (tmp_path / "d.facts").write_text(
        "obs zed(p1, 1).\nobs yak(p1, 2).\nobs wombat(p1, 3).\nobs lab(p1, a, b, 4).\n")
    errs = set()
    for seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-m", "timeloom", "run", "--rules", str(tmp_path / "r.tes"),
             "--data", str(tmp_path / "d.facts")],
            capture_output=True, text=True, env={**os.environ, "PYTHONHASHSEED": seed})
        assert proc.returncode == 1
        errs.add(proc.stderr)
    assert errs == {"error: lab declared with arity 1, fact has 3\n"}
