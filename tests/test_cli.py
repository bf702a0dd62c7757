"""End-to-end command-line runs: documents, formats, and exit codes."""

import json
import os
import random
import re
import subprocess
import sys
from datetime import date

import pytest

from timeloom import AnnotatedEventFact, Interval, ingest, parse_tes, timeline
from timeloom import cli
from timeloom.cli import (
    fact_from_json,
    fact_to_json,
    main,
    partition_dataset,
    render_document,
    result_to_json,
)
from timeloom.meta import Factored
from timeloom.model import STAR, fact_key
from timeloom.repair import TimelineResult

import malformed
from conftest import TWO_LEVEL_NONPERSISTENT, TWO_LEVEL_PERSISTENT, counting_derivations

CLI_RULES = """\
decl observation adm/1.
decl nonpersistent abth/1.
exists(abth(P), T, 1) :- adm(P, T).
window(abth(P), 2).
"""

CLI_FACTS = "obs adm(p1, 0).\nobs adm(p1, 1).\nobs adm(p2, 5).\n"

P1_JSON = {"pred": "abth", "args": ["p1"],
           "interval": {"start": 0, "end": 1}, "level": 1}
P2_JSON = {"pred": "abth", "args": ["p2"],
           "interval": {"start": 5, "end": 5}, "level": 1}


@pytest.fixture
def ward(tmp_path):
    (tmp_path / "care.tes").write_text(CLI_RULES)
    (tmp_path / "ward.facts").write_text(CLI_FACTS)
    return tmp_path


@pytest.fixture
def figured(tmp_path):
    (tmp_path / "fig.tes").write_text(TWO_LEVEL_NONPERSISTENT)
    (tmp_path / "pers.tes").write_text(TWO_LEVEL_PERSISTENT)
    (tmp_path / "empty.facts").write_text("")
    return tmp_path


def run_cli(*args):
    return main(list(args))


def test_run_writes_json_document(ward):
    out = ward / "out.json"
    rc = run_cli("run", "--rules", str(ward / "care.tes"),
                 "--data", str(ward / "ward.facts"),
                 "--mode", "consistent", "--out", str(out))
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc == {"mode": "consistent",
                   "models": [{"simple": [P1_JSON, P2_JSON], "meta": []}],
                   "exhaustive": True}
    models = [frozenset(map(fact_from_json, m["simple"] + m["meta"])) for m in doc["models"]]
    assert models == [frozenset({
        AnnotatedEventFact("abth", ("p1",), Interval(0, 1), 1),
        AnnotatedEventFact("abth", ("p2",), Interval(5, 5), 1),
    })]


def test_stdout_runs_are_byte_identical(ward, capsys):
    args = ("run", "--rules", str(ward / "care.tes"),
            "--data", str(ward / "ward.facts"), "--mode", "consistent")
    assert run_cli(*args) == 0
    first = capsys.readouterr().out
    assert run_cli(*args) == 0
    assert capsys.readouterr().out == first
    assert json.loads(first)["mode"] == "consistent"


def test_mode_defaults_to_naive(ward, capsys):
    rc = run_cli("run", "--rules", str(ward / "care.tes"),
                 "--data", str(ward / "ward.facts"))
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["mode"] == "naive"


def test_max_models_truncates_output(figured, capsys):
    args = ("run", "--rules", str(figured / "fig.tes"),
            "--data", str(figured / "empty.facts"), "--mode", "consistent")
    assert run_cli(*args) == 0
    assert len(json.loads(capsys.readouterr().out)["models"]) == 4
    assert run_cli(*args, "--max-models", "2") == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["models"]) == 2
    assert doc["exhaustive"] is True  # truncation is display only


def test_now_adds_clamped_end(figured, capsys):
    rc = run_cli("run", "--rules", str(figured / "pers.tes"),
                 "--data", str(figured / "empty.facts"), "--now", "12")
    assert rc == 0
    facts = json.loads(capsys.readouterr().out)["models"][0]["simple"]
    ongoing = [f for f in facts if f["interval"]["end"] == "*"]
    assert ongoing and all(f["interval"]["clamped_end"] == 13 for f in ongoing)
    closed = [f for f in facts if f["interval"]["end"] != "*"]
    assert closed and all("clamped_end" not in f["interval"] for f in closed)


def test_cap_writes_partial_output_and_exits_2(figured):
    out = figured / "partial.json"
    rc = run_cli("run", "--rules", str(figured / "fig.tes"),
                 "--data", str(figured / "empty.facts"),
                 "--mode", "consistent", "--cap", "2", "--out", str(out))
    assert rc == 2
    assert json.loads(out.read_text())["exhaustive"] is False


def test_cap_raise_exits_2(figured, capsys):
    # a negated event atom: cautious scans subsets, one per unit of the cap
    constrained = figured / "constrained.tes"
    constrained.write_text(TWO_LEVEL_NONPERSISTENT
                           + "constraint :- e([T1, T2]), e([T3, T4]), T2 < T3, "
                             "not e([T2, T3]).\n")
    out = figured / "never.json"
    rc = run_cli("run", "--rules", str(constrained),
                 "--data", str(figured / "empty.facts"),
                 "--mode", "cautious", "--cap", "1", "--out", str(out))
    assert rc == 2
    assert not out.exists()
    assert "error" in capsys.readouterr().err


# seven instances of one level-1 interval against three weaker ones sharing
# its start (each level ends it earlier), and a constraint that never fires
SEVEN_RULES = """\
decl observation seen/1.
decl observation stop2/1.
decl observation stop3/1.
decl observation stop4/1.
decl atemporal flag/0.
decl persistent e/1.
exists_pers(e(P), T, 1) :- seen(P, T).
ends(e(P), T, 2) :- stop2(P, T).
ends(e(P), T, 3) :- stop3(P, T).
ends(e(P), T, 4) :- stop4(P, T).
constraint :- e(P, [T1, T2]), flag.
"""

SEVEN_FACTS = "".join(f"obs seen(p{i}, 0).\nobs stop2(p{i}, 5).\n"
                      f"obs stop3(p{i}, 3).\nobs stop4(p{i}, 1).\n" for i in range(7))


def test_preferred_of_many_independent_instances_exits_0(tmp_path, capsys):
    (tmp_path / "seven.tes").write_text(SEVEN_RULES)
    (tmp_path / "seven.facts").write_text(SEVEN_FACTS)
    args = ("run", "--rules", str(tmp_path / "seven.tes"),
            "--data", str(tmp_path / "seven.facts"))
    assert run_cli(*args, "--mode", "naive") == 0
    assert len(json.loads(capsys.readouterr().out)["models"][0]["simple"]) == 28
    assert run_cli(*args, "--mode", "consistent") == 2  # 4^7 repairs
    capsys.readouterr()
    assert run_cli(*args, "--mode", "preferred") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["exhaustive"] is True and len(doc["models"]) == 1
    assert doc["models"][0]["simple"] == [
        {"pred": "e", "args": [f"p{i}"], "interval": {"start": 0, "end": "*"}, "level": 1}
        for i in range(7)]


def test_star_of_triples_exits_0_at_the_default_cap(tmp_path, capsys):
    # eight entities, each `a(p)` and `b(p)` forming an edge of three with
    # one `c`: 2^8 repairs keep `c`, one drops it
    rules = ["decl persistent a/1.", "decl persistent b/1.", "decl persistent c/0.",
             *(f"exists_pers({pred}(p{i}), 0, 1)." for i in range(8) for pred in "ab"),
             "exists_pers(c, 0, 1).", "constraint :- a(P, I1), b(P, I2), c(I3)."]
    (tmp_path / "star.tes").write_text("\n".join(rules) + "\n")
    (tmp_path / "empty.facts").write_text("")
    assert run_cli("run", "--rules", str(tmp_path / "star.tes"),
                   "--data", str(tmp_path / "empty.facts"), "--mode", "consistent") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["exhaustive"] is True and len(doc["models"]) == 257


@pytest.mark.parametrize("exc", [RecursionError, MemoryError])
def test_recursion_and_memory_exhaustion_exit_2(ward, monkeypatch, capsys, exc):
    def exhausted(*args, **kwargs):
        raise exc()

    monkeypatch.setattr(cli, "timeline", exhausted)
    monkeypatch.setattr(cli, "recognize_timeline", exhausted)
    (ward / "one.facts").write_text("obs adm(p1, 0).\n")
    target = ward / "target.json"
    target.write_text(json.dumps({"facts": [P1_JSON]}))
    base = ("run", "--rules", str(ward / "care.tes"), "--data", str(ward / "one.facts"))
    for extra in (("--mode", "consistent"), ("--mode", "check", "--check", str(target)),
                  ("--mode", "naive", "--partition-by", "0")):
        assert run_cli(*base, *extra) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err


def test_mixed_symbol_and_number_arguments(ward, capsys):
    (ward / "mixed.facts").write_text("obs adm(p1, 0).\nobs adm(7, 1).\n")
    rc = run_cli("run", "--rules", str(ward / "care.tes"),
                 "--data", str(ward / "mixed.facts"), "--format", "tsv")
    assert rc == 0
    assert capsys.readouterr().out == ("0\tsimple\tabth\t7\t1\t1\t1\n"
                                       "0\tsimple\tabth\tp1\t0\t0\t1\n")


def fig_fact(a, b, level):
    return AnnotatedEventFact("e", (), Interval(a, b), level)


def write_target(path, facts, kind=None):
    doc = {"facts": [fact_to_json(f) for f in facts]}
    if kind is not None:
        doc["kind"] = kind
    path.write_text(json.dumps(doc))


def test_check_mode_exit_codes(figured, capsys):
    target = figured / "target.json"
    write_target(target, [fig_fact(2, 4, 1), fig_fact(9, 9, 1)], "consistent")
    args = ("run", "--rules", str(figured / "fig.tes"),
            "--data", str(figured / "empty.facts"), "--mode", "check",
            "--check", str(target))
    assert run_cli(*args) == 0
    assert json.loads(capsys.readouterr().out) == {"recognized": True}

    write_target(target, [fig_fact(2, 4, 1)])  # kind defaults to consistent
    assert run_cli(*args) == 3  # consistent but not maximal
    assert json.loads(capsys.readouterr().out) == {"recognized": False}
    assert run_cli(*args, "--format", "tsv") == 3
    assert capsys.readouterr().out == "recognized\tfalse\n"

    write_target(target, [fig_fact(2, 4, 1), fig_fact(9, 9, 1)], "preferred")
    assert run_cli(*args) == 0

    write_target(target, [fig_fact(2, 4, 1), fig_fact(9, 10, 2)], "preferred")
    assert run_cli(*args) == 3  # a repair, but not level-preferred

    write_target(target, [fig_fact(2, 4, 1)], "naive")
    assert run_cli(*args) == 1  # unknown target kind
    target.write_text('{"kind": "consistent"}')
    assert run_cli(*args) == 1  # no facts array
    target.write_text("not json")
    assert run_cli(*args) == 1


@pytest.mark.parametrize("end", ["Infinity", "1.5", "true"])
def test_check_target_end_is_a_natural_or_star(figured, capsys, end):
    """JSON `Infinity` is no spelling of the ongoing end "*"."""
    target = figured / "target.json"
    args = ("run", "--rules", str(figured / "pers.tes"),
            "--data", str(figured / "empty.facts"), "--mode", "check",
            "--check", str(target))
    kept = json.dumps(fact_to_json(fig_fact(2, 7, 1)))

    def write_target_ending(end_text):
        target.write_text('{"facts": [%s, {"pred": "e", "args": [], "interval": '
                          '{"start": 9, "end": %s}, "level": 1}]}' % (kept, end_text))

    write_target_ending('"*"')
    assert run_cli(*args) == 0
    capsys.readouterr()
    write_target_ending(end)
    assert run_cli(*args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "end" in err


@pytest.mark.parametrize("field, value", [
    ("level", "true"), ("level", '"x"'), ("level", "1.5"), ("level", "0"), ("level", "-1"),
    ("args", "[1.5]"), ("args", "[true]")])
def test_check_target_level_and_args_are_strict(figured, capsys, field, value):
    """A level is a positive integer and an argument a string or a natural;
    JSON `true` and floats are neither."""
    target = figured / "target.json"
    args = ("run", "--rules", str(figured / "pers.tes"),
            "--data", str(figured / "empty.facts"), "--mode", "check",
            "--check", str(target))
    fields = {"pred": '"e"', "args": "[]", "interval": '{"start": 9, "end": "*"}',
              "level": "1"}

    def write_target(fields):
        fact = ", ".join('"%s": %s' % kv for kv in fields.items())
        target.write_text('{"facts": [%s, {%s}]}'
                          % (json.dumps(fact_to_json(fig_fact(2, 7, 1))), fact))

    write_target(fields)
    assert run_cli(*args) == 0
    capsys.readouterr()
    write_target({**fields, field: value})
    assert run_cli(*args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and field in err


@pytest.mark.parametrize("text,message", [("[]", ""), ('"x"', ""), *(
    ('{"facts": [{"pred": %s, "args": [], "interval": {"start": %s, "end": %s}, "level": 1}]}'
     % tuple(fields), message)
    for *fields, message in (("5", "2", '"*"', ""), ('"e"', "true", '"*"', ""),
                             ('"e"', "-1", '"*"', ""), ('"e"', "5", "2", ""),
                             ('"e"', "9" * 5000, '"*"', "natural of 5000 digits (at most 4300)"))),
    ("[" * 100000 + "]" * 100000, "")],
                         ids=["list", "string", "pred", "bool-start", "negative-start",
                              "end-before-start", "start-past-the-digit-bound",
                              "nested-past-the-recursion-limit"])
def test_check_target_must_be_an_object_of_named_facts(figured, capsys, text, message):
    """A JSON integer is a natural like any other: past 4,300 digits it is
    refused with timeloom's own message, on every Python version."""
    target = figured / "target.json"
    target.write_text(text)
    assert run_cli("run", "--rules", str(figured / "pers.tes"),
                   "--data", str(figured / "empty.facts"), "--mode", "check",
                   "--check", str(target)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: bad check target {target}: ") and err.count("\n") == 1
    assert message in err


# a check-target error in Python's words: a KeyError's bare quoted key, or a
# TypeError about a value's type or an index
PYTHON_WORDS = re.compile(r"bad check target [^:]*: '[^']*'$|object is not|indices must be")
FIG_FACT = '{"pred": "e", "args": [], "interval": {"start": 9, "end": "*"}, "level": 1}'


@pytest.mark.parametrize("text,message", [
    ('{"kind": "consistent"}', "no facts list"),
    ('{"facts": 3}', "facts is not a list"),
    ('{"facts": "ab"}', "facts is not a list"),
    ('{"facts": [%s, true]}' % FIG_FACT, "fact 2: not a JSON object"),
    ('{"facts": [3]}', "fact 1: not a JSON object"),
    ('{"facts": [%s]}' % FIG_FACT.replace('"level": 1', '"lvl": 1'), "fact 1: no level"),
    ('{"facts": [%s]}' % FIG_FACT.replace('"interval"', '"iv"'), "fact 1: no interval"),
    ('{"facts": [%s]}' % FIG_FACT.replace('{"start": 9, "end": "*"}', '[9, "*"]'),
     "fact 1: interval is not a JSON object"),
    ('{"facts": [%s]}' % FIG_FACT.replace('{"start": 9, "end": "*"}', '"9"'),
     "fact 1: interval is not a JSON object"),
    ('{"facts": [%s]}' % FIG_FACT.replace('"end"', '"until"'), "fact 1: interval has no end"),
    ('{"facts": [%s, %s]}' % (FIG_FACT, FIG_FACT.replace('"level": 1', '"level": 0')),
     "fact 2: bad level: 0"),
    ('{"kind": {"start": 0}, "facts": []}', 'bad kind: {"start": 0}'),
    ('{"kind": "naive", "facts": []}', 'bad kind: "naive"')])
def test_check_target_errors_name_the_field_in_timeloom_words(figured, capsys, text, message):
    target = figured / "target.json"
    target.write_text(text)
    assert run_cli("run", "--rules", str(figured / "pers.tes"),
                   "--data", str(figured / "empty.facts"), "--mode", "check",
                   "--check", str(target)) == 1
    err = capsys.readouterr().err
    assert err == f"error: bad check target {target}: {message}\n"
    assert not PYTHON_WORDS.search(err.rstrip("\n"))


def test_seeded_check_target_errors_are_in_timeloom_words(tmp_path, monkeypatch):
    """The check-mode cases among 3,000 seeded malformed inputs: no error
    line shows Python's exception text."""
    monkeypatch.chdir(tmp_path)
    seen = 0
    for files, argv in malformed.cases(seed=77, count=3000):
        if "--check" not in argv:
            continue
        _, _, err = malformed.run_case(files, argv)
        for line in err.splitlines():
            if "bad check target" in line:
                seen += 1
                assert not PYTHON_WORDS.search(line), (files["t.json"], line)
    assert seen > 200


def test_check_flag_pairing(figured, capsys):
    rc = run_cli("run", "--rules", str(figured / "fig.tes"),
                 "--data", str(figured / "empty.facts"), "--mode", "check")
    assert rc == 1
    rc = run_cli("run", "--rules", str(figured / "fig.tes"),
                 "--data", str(figured / "empty.facts"),
                 "--check", str(figured / "target.json"))
    assert rc == 1


@pytest.mark.parametrize("extra", [("--mode", "check"),
                                   ("--mode", "consistent", "--check", "target.json")])
def test_check_goes_with_mode_check_only(figured, capsys, extra):
    assert run_cli("run", "--rules", str(figured / "fig.tes"),
                   "--data", str(figured / "empty.facts"), *extra) == 1
    assert capsys.readouterr().err == \
        "error: --check is required for mode check and only there\n"


def test_tsv_rows(ward, capsys):
    rc = run_cli("run", "--rules", str(ward / "care.tes"),
                 "--data", str(ward / "ward.facts"),
                 "--mode", "consistent", "--format", "tsv")
    assert rc == 0
    assert capsys.readouterr().out == ("0\tsimple\tabth\tp1\t0\t1\t1\n"
                                       "0\tsimple\tabth\tp2\t5\t5\t1\n")


def test_tsv_clamp_column(figured, capsys):
    rc = run_cli("run", "--rules", str(figured / "pers.tes"),
                 "--data", str(figured / "empty.facts"),
                 "--now", "12", "--format", "tsv")
    assert rc == 0
    rows = [r.split("\t") for r in capsys.readouterr().out.splitlines()]
    assert all(len(r) == 8 for r in rows)
    assert {(r[5], r[7]) for r in rows} == {("7", ""), ("*", "13")}


def test_tsv_quotes_symbols_that_would_lose_the_row_shape(tmp_path, capsys):
    # a tab or comma would add fields, '5' would read as the natural 5 and
    # '' as no arguments; such a symbol, and one with a backslash or double
    # quote, is written as its JSON string literal
    (tmp_path / "r.tes").write_text(
        "decl observation adm/2.\ndecl nonpersistent abth/2.\n"
        "exists(abth(P, D), T, 1) :- adm(P, D, T).\nwindow(abth(P, D), 2).\n")
    (tmp_path / "f.facts").write_text(
        "obs adm(p1, 'a\tb,c', 1).\nobs adm(p1, '5', 4).\nobs adm(p1, 5, 7).\n"
        "obs adm(p1, '', 10).\nobs adm('x\"y', 'back\\slash', 13).\nobs adm(p1, 'café', 16).\n")
    args = ("run", "--rules", str(tmp_path / "r.tes"), "--data", str(tmp_path / "f.facts"),
            "--format", "tsv")
    assert run_cli(*args) == 0
    rows = [r.split("\t") for r in capsys.readouterr().out.splitlines()]
    assert all(len(r) == 7 for r in rows)
    assert [r[3] for r in rows] == ['p1,5', 'p1,""', 'p1,"5"', 'p1,"a\\tb,c"', 'p1,café',
                                    '"x\\"y","back\\\\slash"']
    assert run_cli(*args, "--partition-by", "0") == 0
    rows = [r.split("\t") for r in capsys.readouterr().out.splitlines()]
    assert all(len(r) == 8 for r in rows)
    assert [r[0] for r in rows] == ["p1"] * 5 + ['"x\\"y"']


def test_tsv_writes_a_symbol_with_a_line_break_as_its_json_literal(tmp_path, capsys):
    # a quoted CSV cell may span lines, so a symbol can hold a line break,
    # which written raw would split its row
    (tmp_path / "r.tes").write_text(
        "decl observation lab/1.\ndecl nonpersistent hi/1.\n"
        "exists(hi(P), T, 1) :- lab(P, T).\nwindow(hi(P), 2).\n")
    (tmp_path / "d.csv").write_text('"a\nb",4\n')
    (tmp_path / "d.map").write_text("predicate=lab\ncolumns=0\ntimestamp_column=1\n")
    args = ("run", "--rules", str(tmp_path / "r.tes"), "--data", str(tmp_path / "d.csv"),
            "--map", str(tmp_path / "d.map"), "--format", "tsv")
    assert run_cli(*args) == 0
    assert capsys.readouterr().out == '0\tsimple\thi\t"a\\nb"\t4\t4\t1\n'
    assert run_cli(*args, "--partition-by", "0") == 0
    assert capsys.readouterr().out == '"a\\nb"\t0\tsimple\thi\t"a\\nb"\t4\t4\t1\n'
    assert run_cli(*args[:-2]) == 0
    assert json.loads(capsys.readouterr().out)["models"][0]["simple"][0]["args"] == ["a\nb"]
    assert [cli._tsv_value(v) for v in ("a\rb", "a\nb", "ab")] == ['"a\\rb"', '"a\\nb"', "ab"]


NON_ASCII_RULES = """\
decl atemporal ab/1.
decl observation adm/2.
decl nonpersistent abth/2.
exists(abth(P, D), T, 1) :- adm(P, D, T), ab(D).
window(abth(P, D), 24).
"""


@pytest.mark.parametrize("env,out", [
    ({"PYTHONIOENCODING": "ascii"}, False),
    ({"PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C"}, True),
])
def test_output_is_utf8_whatever_the_locale(tmp_path, env, out):
    # input is read as UTF-8, so output is written as UTF-8 too, to stdout
    # under an ASCII stdout encoding and to --out under an ASCII locale
    (tmp_path / "r.tes").write_text(NON_ASCII_RULES)
    (tmp_path / "u.facts").write_text("atemporal ab(amox).\nobs adm(p\u00e9, amox, 3).\n",
                                      encoding="utf-8")
    argv = [sys.executable, "-m", "timeloom", "run", "--rules", str(tmp_path / "r.tes"),
            "--data", str(tmp_path / "u.facts"), "--format", "tsv"]
    if out:
        argv += ["--out", str(tmp_path / "u.tsv")]
    base = {k: v for k, v in os.environ.items() if k != "LANG" and not k.startswith("LC_")}
    proc = subprocess.run(argv, capture_output=True, env={**base, **env})
    assert (proc.returncode, proc.stderr) == (0, b"")
    written = (tmp_path / "u.tsv").read_bytes() if out else proc.stdout
    assert written == "0\tsimple\tabth\tp\u00e9,amox\t3\t3\t1\n".encode()


def test_partition_by_entity(ward, capsys):
    args = ("run", "--rules", str(ward / "care.tes"),
            "--data", str(ward / "ward.facts"),
            "--mode", "consistent", "--partition-by", "0")
    assert run_cli(*args) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mode"] == "consistent" and doc["partition_by"] == 0
    assert doc["exhaustive"] is True
    assert [e["entity"] for e in doc["entities"]] == ["p1", "p2"]
    assert doc["entities"][0]["models"] == [{"simple": [P1_JSON], "meta": []}]
    assert doc["entities"][1]["models"] == [{"simple": [P2_JSON], "meta": []}]

    assert run_cli(*args, "--format", "tsv") == 0
    assert capsys.readouterr().out == ("p1\t0\tsimple\tabth\tp1\t0\t1\t1\n"
                                       "p2\t0\tsimple\tabth\tp2\t5\t5\t1\n")


@pytest.mark.parametrize("extra", [("--mode", "naive"), ("--mode", "consistent"),
                                   ("--partition-by", "0")])
def test_a_run_builds_no_dataset_fact(tmp_path, monkeypatch, capsys, extra):
    """Observations and atemporal facts go from the fact file to the join
    as rows: a run constructs neither kind of fact object."""
    from timeloom import AtemporalFact, ObservationFact

    (tmp_path / "therapy.tes").write_text(malformed.THERAPY_RULES)
    (tmp_path / "therapy.facts").write_text(malformed.THERAPY_FACTS)
    built = []
    for kind in (AtemporalFact, ObservationFact):
        init = kind.__init__
        monkeypatch.setattr(kind, "__init__",
                            lambda self, *a, init=init: built.append(a) or init(self, *a))
    assert run_cli("run", "--rules", str(tmp_path / "therapy.tes"),
                   "--data", str(tmp_path / "therapy.facts"), *extra) == 0
    assert '"ontherapy"' in capsys.readouterr().out  # the run got to its meta events
    assert built == []


def test_partition_cap_flags_each_entity_and_exits_2(tmp_path, capsys):
    # p0 has four repairs, more than the cap; p1 has one
    (tmp_path / "seven.tes").write_text(SEVEN_RULES)
    (tmp_path / "two.facts").write_text("obs seen(p0, 0).\nobs stop2(p0, 5).\n"
                                        "obs stop3(p0, 3).\nobs stop4(p0, 1).\n"
                                        "obs seen(p1, 0).\n")
    args = ("run", "--rules", str(tmp_path / "seven.tes"),
            "--data", str(tmp_path / "two.facts"), "--partition-by", "0")
    assert run_cli(*args, "--mode", "consistent", "--cap", "2") == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["exhaustive"] is False
    assert [(e["entity"], e["exhaustive"], len(e["models"])) for e in doc["entities"]] == [
        ("p0", False, 2), ("p1", True, 1)]


def test_partition_cap_raise_exits_2_without_a_document(figured, capsys):
    # as in test_cap_raise_exits_2, with the instance's evidence split over
    # two entities
    (figured / "neg.tes").write_text(
        "decl observation seen/1.\ndecl nonpersistent e/1.\n"
        "exists(e(P), T, 1) :- seen(P, T).\nwindow(e(P), 1).\n"
        "constraint :- e(P, [T1, T2]), e(P, [T3, T4]), T2 < T3, not e(P, [T2, T3]).\n")
    (figured / "two.facts").write_text(
        "".join(f"obs seen({p}, {t}).\n" for p in ("p1", "p2") for t in (0, 3, 6)))
    assert run_cli("run", "--rules", str(figured / "neg.tes"),
                   "--data", str(figured / "two.facts"), "--partition-by", "0",
                   "--mode", "cautious", "--cap", "1") == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_import_loads_no_process_pool_or_logging(tmp_path):
    # nor dataclasses (which loads inspect); and a run on a native fact
    # file loads neither the CSV reader nor datetime
    (tmp_path / "r.tes").write_text("decl observation lab/1.\ndecl persistent e/1.\n"
                                    "exists_pers(e(P), T, 1) :- lab(P, T).\n")
    (tmp_path / "d.facts").write_text("obs lab(p1, 4).\n")
    argv = ["run", "--rules", str(tmp_path / "r.tes"), "--data", str(tmp_path / "d.facts"),
            "--out", str(tmp_path / "out.json")]
    code = (f"import sys, timeloom.cli; assert timeloom.cli.main({argv!r}) == 0; "
            "print(sorted(m for m in ('concurrent.futures', 'multiprocessing', 'logging', "
            "'pickle', 'dataclasses', 'inspect', 'csv', 'datetime') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    assert proc.stdout == "[]\n"
    assert json.loads((tmp_path / "out.json").read_text())["models"][0]["simple"]


def test_partition_shares_atemporal_facts(tmp_path, capsys):
    (tmp_path / "gate.tes").write_text(
        "decl observation adm/2.\n"
        "decl atemporal ab/1.\n"
        "decl nonpersistent abth/2.\n"
        "exists(abth(P, D), T, 1) :- adm(P, D, T), ab(D).\n"
        "window(abth(P, D), 2).\n")
    (tmp_path / "gate.facts").write_text(
        "atemporal ab(amox).\nobs adm(p1, amox, 0).\nobs adm(p2, amox, 5).\n")
    rc = run_cli("run", "--rules", str(tmp_path / "gate.tes"),
                 "--data", str(tmp_path / "gate.facts"),
                 "--mode", "consistent", "--partition-by", "0")
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    # the drug fact spawns no entity of its own and reaches both patients
    assert [e["entity"] for e in doc["entities"]] == ["p1", "p2"]
    for ent, start in (("p1", 0), ("p2", 5)):
        entity = next(e for e in doc["entities"] if e["entity"] == ent)
        assert entity["models"] == [{"simple": [
            {"pred": "abth", "args": [ent, "amox"],
             "interval": {"start": start, "end": start}, "level": 1}], "meta": []}]


def test_partition_by_is_refused_in_check_mode(ward, capsys):
    # a check verdict is over the whole dataset, so a split would go unseen
    target = ward / "target.json"
    target.write_text(json.dumps({"facts": [P1_JSON, P2_JSON]}))
    assert run_cli("run", "--rules", str(ward / "care.tes"), "--data", str(ward / "ward.facts"),
                   "--mode", "check", "--check", str(target), "--partition-by", "0") == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert "--partition-by" in err


def test_partition_by_past_every_observation_is_refused(tmp_path, capsys):
    # no observation has position 3, so there would be no entity at all
    (tmp_path / "o.tes").write_text("decl observation o/1.\ndecl persistent e/1.\n"
                                    "exists_pers(e(X), T, 1) :- o(X, T).\n")
    (tmp_path / "o.facts").write_text("obs o(a, 1).\n")
    args = ("run", "--rules", str(tmp_path / "o.tes"), "--data", str(tmp_path / "o.facts"))
    for mode in ("naive", "consistent", "preferred", "cautious"):
        assert run_cli(*args, "--mode", mode, "--partition-by", "3") == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert "--partition-by 3" in err and "position 3" in err
    assert run_cli(*args, "--partition-by", "0") == 0
    assert [e["entity"] for e in json.loads(capsys.readouterr().out)["entities"]] == ["a"]


def test_partition_by_without_observations_gives_no_entities(tmp_path, capsys):
    (tmp_path / "o.tes").write_text("decl observation o/1.\ndecl atemporal k/0.\n")
    (tmp_path / "k.facts").write_text("atemporal k.\n")
    assert run_cli("run", "--rules", str(tmp_path / "o.tes"), "--data", str(tmp_path / "k.facts"),
                   "--mode", "consistent", "--partition-by", "3") == 0
    assert json.loads(capsys.readouterr().out) == {
        "mode": "consistent", "partition_by": 3, "entities": [], "exhaustive": True}


def test_unused_map_is_an_error(ward, capsys):
    rc = run_cli("run", "--rules", str(ward / "care.tes"),
                 "--data", str(ward / "ward.facts"),
                 "--map", str(ward / "ward.map"))
    assert rc == 1
    assert "unused" in capsys.readouterr().err


def test_usage_exit_codes(ward, capsys):
    assert run_cli("--help") == 0
    capsys.readouterr()
    assert run_cli() == 1  # missing subcommand
    assert run_cli("run") == 1  # missing required flags
    assert run_cli("run", "--rules", str(ward / "care.tes"),
                   "--data", str(ward / "ward.facts"), "--mode", "bogus") == 1
    capsys.readouterr()


def test_csv_with_rfc3339_mapping(tmp_path, capsys):
    (tmp_path / "care.tes").write_text(
        "decl observation lab/1.\n"
        "decl persistent hyp/1.\n"
        "exists_pers(hyp(P), T, 1) :- lab(P, T).\n")
    (tmp_path / "labs.csv").write_text("p1,2021-03-01T00:00:00Z\n")
    (tmp_path / "labs.map").write_text(
        "predicate=lab\ncolumns=0\ntimestamp_column=1\ntimestamp_format=rfc3339\n")
    rc = run_cli("run", "--rules", str(tmp_path / "care.tes"),
                 "--data", str(tmp_path / "labs.csv"),
                 "--map", str(tmp_path / "labs.map"))
    assert rc == 0
    fact = json.loads(capsys.readouterr().out)["models"][0]["simple"][0]
    want = (date(2021, 3, 1).toordinal() - date(1970, 1, 1).toordinal()) * 86400
    assert fact["interval"] == {"start": want, "end": "*"}


def test_rule_and_data_errors_exit_1(ward, capsys):
    bad = ward / "bad.tes"
    bad.write_text("decl nonpersistent e/0")  # missing period
    assert run_cli("run", "--rules", str(bad),
                   "--data", str(ward / "ward.facts")) == 1
    assert "bad.tes" in capsys.readouterr().err
    assert run_cli("run", "--rules", str(ward / "missing.tes"),
                   "--data", str(ward / "ward.facts")) == 1
    undeclared = ward / "undeclared.facts"
    undeclared.write_text("obs zzz(1, 2).\n")
    assert run_cli("run", "--rules", str(ward / "care.tes"),
                   "--data", str(undeclared)) == 1
    capsys.readouterr()


def test_deeply_nested_rule_term_exits_1(tmp_path, capsys):
    term = "L"
    for _ in range(1000):
        term = f"min({term})"
    rules = tmp_path / "deep.tes"
    rules.write_text(f"decl persistent e/0.\ndecl meta m/0.\nexists_pers(e, 2, 1).\n"
                     f"meta m(I, {term}) :- e(I, L).\n")
    (tmp_path / "e.facts").write_text("")
    assert run_cli("run", "--rules", str(rules), "--data", str(tmp_path / "e.facts")) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {rules}: terms may nest at most") and err.count("\n") == 1


def test_ordering_over_intervals_exits_1(ward, capsys):
    rules = ward / "order.tes"
    rules.write_text("decl observation adm/1.\ndecl persistent e/1.\ndecl meta m/1.\n"
                     "exists_pers(e(P), T, 1) :- adm(P, T).\n"
                     "meta m(P, I, L) :- e(P, I, L), e(P, J, L2), I < J.\n")
    assert run_cli("run", "--rules", str(rules), "--data", str(ward / "ward.facts")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "order.tes" in err and "line 5" in err and "Traceback" not in err


HUGE = "9" * 5000
TOO_LONG = "natural of 5000 digits (at most 4300)"
LAB_MAP = "predicate=lab\ncolumns=0\ntimestamp_column=1\n"
SUP_RULES = """\
decl observation lab/1.
decl nonpersistent hi/1.
exists(hi(P), T, 1) :- lab(P, T), T < 5.
window(hi(P), 2).
"""


@pytest.mark.parametrize("rules,data,mapping,message", [
    (SUP_RULES, "obs lab(p1, 5\u00b2).\n", None, "unexpected character '\u00b2' at line 1"),
    (SUP_RULES.replace("T < 5", "T < 5\u00b2"), "obs lab(p1, 5).\n", None,
     "unexpected character '\u00b2' at line 3"),
    (SUP_RULES.replace("lab/1", "lab/1\u00b2"), "obs lab(p1, 5).\n", None,
     "unexpected character '\u00b2' at line 1"),
    (SUP_RULES, "p1,5\u00b2\n", "predicate=lab\ncolumns=0\ntimestamp_column=1\n",
     "timestamp '5\u00b2' is not a natural number"),
    (SUP_RULES, f"obs lab(p1, 4).\nobs lab(p1, {HUGE}).\n", None,
     f"d.facts: {TOO_LONG} at line 2, col 13"),
    (SUP_RULES, f"obs lab(p1, 4).\nobs lab({HUGE}, \u00c4).\n", None,
     f"d.facts: {TOO_LONG} at line 2, col 9"),
    (SUP_RULES.replace("T < 5", f"T < {HUGE}"), "obs lab(p1, 5).\n", None,
     f"r.tes: {TOO_LONG} at line 3, col 39"),
    (SUP_RULES.replace("lab/1", f"lab/{HUGE}"), "obs lab(p1, 5).\n", None,
     f"r.tes: {TOO_LONG} at line 1, col 22"),
    (SUP_RULES.replace("T, 1)", f"T, {HUGE})"), "obs lab(p1, 5).\n", None,
     f"r.tes: {TOO_LONG} at line 3, col 18"),
    (SUP_RULES, f"p1,4\n{HUGE},5\n", LAB_MAP, f"d.csv: row 2: column 0: {TOO_LONG}"),
    (SUP_RULES, f"p1,4\np1,{HUGE}\n", LAB_MAP, f"d.csv: row 2: timestamp: {TOO_LONG}"),
    (SUP_RULES, "p1,4\n", f"predicate=lab\ncolumns={HUGE}\ntimestamp_column=1\n",
     f"d.map: line 2: columns: {TOO_LONG}"),
], ids=["fact-value", "rule-comparison", "rule-arity", "csv-timestamp", "huge-fact-value",
        "huge-fact-token-walk", "huge-rule-term", "huge-rule-arity", "huge-rule-level",
        "huge-csv-cell", "huge-csv-timestamp", "huge-map-column"])
def test_non_ascii_digits_exit_1(tmp_path, capsys, rules, data, mapping, message):
    """str.isdigit accepts "\u00b2" but int() does not: naturals are ASCII
    digits, so these inputs are errors rather than tracebacks. So are
    naturals of more than 4,300 digits, on every Python version."""
    (tmp_path / "r.tes").write_text(rules)
    args = ["run", "--rules", str(tmp_path / "r.tes")]
    if mapping is None:
        (tmp_path / "d.facts").write_text(data)
        args += ["--data", str(tmp_path / "d.facts")]
    else:
        (tmp_path / "d.csv").write_text(data)
        (tmp_path / "d.map").write_text(mapping)
        args += ["--data", str(tmp_path / "d.csv"), "--map", str(tmp_path / "d.map")]
    assert run_cli(*args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err


@pytest.mark.parametrize("digit,code", [("4", 0), ("9", 1)], ids=["4300-digits", "4301-digits"])
def test_plus_derives_at_most_4300_digits(tmp_path, capsys, digit, code):
    """Twice a natural of 4,300 digits has 4,300 digits when it starts with
    4 and 4,301 when it starts with 9: the first is written out, the second
    is an error that states the bound, on every Python version."""
    (tmp_path / "r.tes").write_text("decl observation lab/1.\ndecl persistent e/1.\n"
                                    "exists_pers(e(P), plus(T, T), 1) :- lab(P, T).\n")
    (tmp_path / "d.facts").write_text(f"obs lab(p1, {digit * 4300}).\n")
    assert run_cli("run", "--rules", str(tmp_path / "r.tes"),
                   "--data", str(tmp_path / "d.facts")) == code
    out, err = capsys.readouterr()
    if code == 0:
        assert not err and json.loads(out)["models"][0]["simple"][0]["interval"]["start"] == \
            2 * int(digit * 4300)
    else:
        assert not out and err == "error: plus derives a natural of more than 4300 digits\n"


@pytest.mark.parametrize("fmt", ["json", "tsv"])
@pytest.mark.parametrize("nines,code", [(4299, 0), (4300, 1)], ids=["4299-nines", "4300-nines"])
def test_now_clamps_to_at_most_4300_digits(tmp_path, capsys, fmt, nines, code):
    """--now N writes N+1 as the clamped end of an ongoing fact. For 4,299
    nines that is a natural of 4,300 digits, written out; for 4,300 nines
    it has 4,301, and the option is refused with one error line that states
    the bound, in either format."""
    (tmp_path / "r.tes").write_text("decl persistent e/0.\nexists_pers(e, 2, 1).\n")
    (tmp_path / "d.facts").write_text("")
    now = "9" * nines
    assert run_cli("run", "--rules", str(tmp_path / "r.tes"), "--data", str(tmp_path / "d.facts"),
                   "--now", now, "--format", fmt) == code
    out, err = capsys.readouterr()
    if code == 0:
        assert not err
        clamped = str(int(now) + 1)
        assert (json.loads(out)["models"][0]["simple"][0]["interval"]["clamped_end"] == int(clamped)
                if fmt == "json" else out == f"0\tsimple\te\t\t2\t*\t1\t{clamped}\n")
    else:
        assert not out
        assert err == "error: --now: its clamped end N+1 has 4301 digits (at most 4300)\n"


def test_data_file_error_names_the_file(ward, capsys):
    bad = ward / "bad.facts"
    bad.write_text("obs adm(p3, 4).\nobs adm(p3, 5\u00b2).\n")
    assert run_cli("run", "--rules", str(ward / "care.tes"),
                   "--data", str(ward / "ward.facts"), "--data", str(bad)) == 1
    err = capsys.readouterr().err
    assert err == f"error: {bad}: unexpected character '\u00b2' at line 2, col 14\n"


@pytest.mark.parametrize("data,mapping,message", [
    ("p1,4\np1,5\u00b2\n", LAB_MAP, "{csv}: row 2: timestamp '5\u00b2' is not a natural number"),
    ("p1,4\np2\n", LAB_MAP, "{csv}: row 2 has only 1 columns"),
    ("p1,4\np2," + "4" * 200000 + "\n", LAB_MAP,
     "{csv}: row 2: field larger than field limit (131072)"),
    ("p1,4\n", "predicate=lab\n# the lab column\ntimestamp_column=x\n",
     "{map}: line 3: timestamp_column: 'x' is not a column index (0, 1, ...)"),
    ("p1,4\n", "predicate=lab\ncolumns=0,y\ntimestamp_column=1\n",
     "{map}: line 2: columns: 'y' is not a column index (0, 1, ...)"),
    ("p1,4\n", LAB_MAP + "rows=3\n", "{map}: line 4: unknown key 'rows'"),
    ("p1,4\n", LAB_MAP + "timestamp_format=unix\n", "{map}: line 4: unknown format 'unix'"),
    ("p1,4\n", "columns=0\ntimestamp_column=1\n", "{map}: mapping needs a predicate"),
], ids=["timestamp", "short-row", "field-limit", "column", "column-list", "key", "format", "predicate"])
def test_csv_and_mapping_errors_name_the_file(tmp_path, capsys, data, mapping, message):
    csv, map_ = tmp_path / "labs.csv", tmp_path / "labs.map"
    (tmp_path / "r.tes").write_text(SUP_RULES)
    csv.write_text(data)
    map_.write_text(mapping)
    assert run_cli("run", "--rules", str(tmp_path / "r.tes"),
                   "--data", str(csv), "--map", str(map_)) == 1
    err = capsys.readouterr().err
    assert err == "error: " + message.format(csv=csv, map=map_) + "\n"


@pytest.mark.parametrize("role", ["rules", "facts", "csv", "map"])
def test_non_utf8_files_exit_1(tmp_path, capsys, role):
    files = {"rules": ("r.tes", SUP_RULES), "facts": ("d.facts", "obs lab(p1, 4).\n"),
             "csv": ("d.csv", "p1,4\n"), "map": ("d.map", LAB_MAP)}
    for name, text in files.values():
        (tmp_path / name).write_bytes(text.encode())
    bad = tmp_path / files[role][0]
    bad.write_bytes(b"\xff\xfe" + bad.read_bytes())
    data = ["--data", str(tmp_path / "d.facts")] if role in ("rules", "facts") else \
        ["--data", str(tmp_path / "d.csv"), "--map", str(tmp_path / "d.map")]
    assert run_cli("run", "--rules", str(tmp_path / "r.tes"), *data) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {bad}: ") and err.count("\n") == 1
    assert "can't decode byte 0xff" in err


@pytest.mark.parametrize("option", ["--now", "--cap", "--max-models", "--partition-by"])
@pytest.mark.parametrize("value", ["1_0", "\u0665", "-1", pytest.param(HUGE, id="5000-digits")])
def test_numeric_options_take_ascii_naturals(ward, capsys, option, value):
    assert run_cli("run", "--rules", str(ward / "care.tes"),
                   "--data", str(ward / "ward.facts"), option, value) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and option in err
    assert "set_int_max_str_digits" not in err


def test_module_entry_point(ward):
    proc = subprocess.run(
        [sys.executable, "-m", "timeloom", "run",
         "--rules", str(ward / "care.tes"), "--data", str(ward / "ward.facts"),
         "--mode", "consistent"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["models"][0]["simple"] == [P1_JSON, P2_JSON]


# ongoing ends and zero-arity facts (e/0), two repairs, meta facts, and
# symbols that JSON must escape
RENDER_RULES = TWO_LEVEL_PERSISTENT + """\
decl observation adm/1.
decl nonpersistent abth/1.
decl meta treated/1.
exists(abth(P), T, 1) :- adm(P, T).
window(abth(P), 2).
meta treated(P, inter(I, J), max(L1, L2)) :- abth(P, I, L1), e(J, L2).
"""

RENDER_FACTS = """obs adm('say "hi"', 3).\nobs adm('back\\slash', 4).\nobs adm('café ✓', 5).\nobs adm(p1, 0).\n"""

# four instances of one level-1 interval against three weaker ones sharing
# its start: 4^4 models, each with meta facts, around a shared core of
# therapy facts and their meta facts
MANY_RULES = """\
decl observation seen/2.
decl observation stop2/2.
decl observation stop3/2.
decl observation stop4/2.
decl observation adm/1.
decl persistent e/2.
decl persistent e0/0.
decl nonpersistent abth/1.
decl meta treated/2.
decl meta dosed/1.
exists_pers(e(P, X), T, 1) :- seen(P, X, T).
ends(e(P, X), T, 2) :- stop2(P, X, T).
ends(e(P, X), T, 3) :- stop3(P, X, T).
ends(e(P, X), T, 4) :- stop4(P, X, T).
exists_pers(e0, 2, 1).
exists(abth(P), T, 1) :- adm(P, T).
window(abth(P), 2).
meta treated(P, X, inter(I, J), max(L1, L2)) :- e(P, X, I, L1), abth(P, J, L2).
meta dosed(P, I, L) :- abth(P, I, L).
"""

MANY_FACTS = "".join(
    f"obs seen(p1, {x}, 0).\nobs stop2(p1, {x}, 5).\n"
    f"obs stop3(p1, {x}, 3).\nobs stop4(p1, {x}, 1).\n"
    for x in ("'say \"hi\"'", "'back\\slash'", "'café ✓'", "x3")
) + "obs adm(p1, 0).\nobs adm(p1, 1).\nobs adm(p2, 4).\n"


def reference_doc(dataset, tes, mode, now=None, max_models=None):
    """The run document built directly: every fact its own dict, each model
    sorted by fact_key into its simple and meta sections."""
    result = timeline(dataset, tes, mode)
    models = result.models[:max_models] if max_models is not None else result.models

    def section(m, simple):
        return [fact_to_json(f, now) for f in sorted(m, key=fact_key)
                if tes.is_simple_pred(f.pred) == simple]

    return {"mode": mode,
            "models": [{"simple": section(m, True), "meta": section(m, False)} for m in models],
            "exhaustive": result.exhaustive}


def tsv_value(v):
    """A value as the README says TSV writes it: a symbol that is empty,
    all ASCII digits, or holds a tab, line break (CR or LF), comma,
    backslash or double quote as its JSON string literal."""
    if isinstance(v, str) and (v == "" or v.isascii() and v.isdigit()
                               or any(c in v for c in '\t\n\r,\\"')):
        return json.dumps(v)
    return str(v)


def reference_tsv(doc, with_clamp):
    """The TSV rows of a run document, each built from its fact's dict."""
    def rows(prefix, m):
        for section in ("simple", "meta"):
            for fj in m[section]:
                iv = fj["interval"]
                row = [*prefix, section, fj["pred"], ",".join(map(tsv_value, fj["args"])),
                       str(iv["start"]), str(iv["end"]), str(fj["level"])]
                if with_clamp:
                    row.append(str(iv.get("clamped_end", "")))
                yield "\t".join(row) + "\n"

    if "entities" in doc:
        return "".join(r for ent in doc["entities"] for i, m in enumerate(ent["models"])
                       for r in rows([tsv_value(ent["entity"]), str(i)], m))
    return "".join(r for i, m in enumerate(doc["models"]) for r in rows([str(i)], m))


@pytest.fixture
def rendered(tmp_path):
    (tmp_path / "render.tes").write_text(RENDER_RULES)
    (tmp_path / "render.facts").write_text(RENDER_FACTS)
    (tmp_path / "never.tes").write_text(
        "decl atemporal flag/0.\ndecl observation adm/1.\ndecl nonpersistent abth/1.\n"
        "exists(abth(P), T, 1) :- adm(P, T).\nwindow(abth(P), 2).\nconstraint :- flag.\n")
    (tmp_path / "never.facts").write_text("atemporal flag.\nobs adm(p1, 0).\n")
    (tmp_path / "many.tes").write_text(MANY_RULES)
    (tmp_path / "many.facts").write_text(MANY_FACTS)
    return tmp_path


@pytest.mark.parametrize("rules,mode,extra", [
    ("never", "consistent", ()),  # the constraint fires on the data alone
    ("render", "naive", ()),
    ("render", "consistent", ()),
    ("render", "consistent", ("--now", "12")),
    ("render", "preferred", ("--now", "3")),
    ("render", "cautious", ()),
    ("render", "consistent", ("--max-models", "1")),
    ("render", "consistent", ("--partition-by", "0")),
    ("render", "consistent", ("--partition-by", "0", "--now", "12")),
    ("many", "consistent", ()),  # all 256 models
    ("many", "consistent", ("--max-models", "70", "--now", "3")),
    ("many", "consistent", ("--partition-by", "0", "--max-models", "70", "--now", "3")),
    ("many", "consistent", ("--max-models", "1")),
    ("many", "preferred", ("--partition-by", "0", "--max-models", "1")),
    ("render", "consistent", ("--partition-by", "0", "--max-models", "1")),
])
def test_output_bytes_match_json_dumps(rendered, capsys, rules, mode, extra):
    rules_path, facts_path = rendered / f"{rules}.tes", rendered / f"{rules}.facts"
    tes = parse_tes(rules_path.read_text())
    dataset = ingest([(str(facts_path), None)])
    opts = dict(zip(extra[::2], extra[1::2]))
    now = int(opts["--now"]) if "--now" in opts else None
    max_models = int(opts["--max-models"]) if "--max-models" in opts else None
    if "--partition-by" in opts:
        pos = int(opts["--partition-by"])
        entities = [{"entity": key, **reference_doc(ds, tes, mode, now, max_models)}
                    for key, ds in partition_dataset(dataset, pos)]
        doc = {"mode": mode, "partition_by": pos, "entities": entities, "exhaustive": True}
    else:
        doc = reference_doc(dataset, tes, mode, now, max_models)
    if rules == "never":
        assert doc["models"] == []
    elif rules == "many":
        models = doc["entities"][0]["models"] if "entities" in doc else doc["models"]
        assert len(models) == (256 if max_models is None else max_models)
        assert all(m["meta"] for m in models)
    if rules != "never":
        text = json.dumps(doc)
        assert '"end": "*"' in text and '"args": []' in text
        assert "\\\\" in text and '\\"' in text and "\\u00e9" in text

    args = ("run", "--rules", str(rules_path), "--data", str(facts_path),
            "--mode", mode, *extra)
    assert run_cli(*args) == 0
    assert capsys.readouterr().out == json.dumps(doc, indent=2) + "\n"
    assert run_cli(*args, "--format", "tsv") == 0
    tsv = capsys.readouterr().out
    assert tsv == render_document(doc, "tsv", with_clamp=now is not None)
    assert tsv == reference_tsv(doc, with_clamp=now is not None)


def test_max_models_closes_only_the_units_of_the_models_it_keeps(rendered, monkeypatch, capsys):
    # many.tes gives four conflict components of four results each; a meta
    # rule joins each result with facts every model holds. The core and
    # every kept result are closed together once, and the core's closure
    # and each kept result's are derived from its firings. Under
    # --max-models N only the results of the first N models are derived: a
    # single model is closed from scratch, and the second model differs
    # from the first in one unit
    given = counting_derivations(monkeypatch)
    args = ("run", "--rules", str(rendered / "many.tes"), "--data", str(rendered / "many.facts"),
            "--mode", "consistent")
    assert run_cli(*args) == 0
    full = json.loads(capsys.readouterr().out)
    # the core's closure, then one derivation per kept result
    assert len(full["models"]) == 256 and len(given) == 1 + 16
    for n, results in ((0, 0), (1, 0), (2, 5)):
        given.clear()
        assert run_cli(*args, "--max-models", str(n)) == 0
        assert json.loads(capsys.readouterr().out) == {**full, "models": full["models"][:n]}
        assert len(given) == (1 + results if results else 0)


TEXTS = ("", "p1", "caf\u00e9 \u2713", 'say "hi"', "back\\slash", "tab\tline\n", "\x00\x7f",
         "\U0001f600", "\u2028", "12", "a,b")
VALUES = TEXTS + (0, 7, 2 ** 70)


def random_facts(rng: random.Random, now) -> list:
    """Fact dicts of the `fact_to_json` shape: symbol and natural arguments,
    sometimes none, and ongoing ends, clamped under `now`."""
    facts = []
    for _ in range(rng.randint(1, 6)):
        iv: dict = {"start": rng.randrange(9)}
        if rng.random() < 0.4:
            iv["end"] = "*"
            if now is not None:
                iv["clamped_end"] = now + 1
        else:
            iv["end"] = rng.randrange(9, 20)
        args = [rng.choice(VALUES) for _ in range(rng.randrange(3))]
        facts.append({"pred": rng.choice(TEXTS), "args": args, "interval": iv,
                      "level": rng.randint(1, 3)})
    return facts


def random_run(rng: random.Random, facts: list) -> dict:
    """A run document whose models draw their sections from `facts`, so a
    fact dict is shared across models and across the two sections."""
    models = [{"simple": rng.sample(facts, rng.randint(0, len(facts))),
               "meta": [rng.choice(facts) for _ in range(rng.randrange(3))]}
              for _ in range(rng.randrange(4))]
    return {"mode": rng.choice(("naive", "consistent")), "models": models,
            "exhaustive": rng.random() < 0.5}


def random_partitioned(rng: random.Random, facts: list) -> dict:
    entities = [{"entity": rng.choice(VALUES), **random_run(rng, facts)}
                for _ in range(rng.randrange(4))]
    return {"mode": "consistent", "partition_by": rng.randrange(3), "entities": entities,
            "exhaustive": rng.random() < 0.5}


def assert_renders_like_references(doc: dict, now) -> None:
    assert render_document(doc, "json") == json.dumps(doc, indent=2) + "\n"
    if "recognized" in doc:
        assert render_document(doc, "tsv") == f"recognized\t{json.dumps(doc['recognized'])}\n"
        return
    for with_clamp in {now is not None, False}:
        assert (render_document(doc, "tsv", with_clamp=with_clamp)
                == reference_tsv(doc, with_clamp=with_clamp))


def test_render_document_encodes_shared_objects_like_json_dumps():
    # one pool of fact dicts in a run, then in a partitioned run: the text
    # of a fact is built once per call, at the depth of that call's facts,
    # and in TSV apart from its section
    rng = random.Random(29)
    for _ in range(200):
        now = rng.choice((None, 40))
        facts = random_facts(rng, now)
        for doc in (random_run(rng, facts), random_partitioned(rng, facts), random_run(rng, facts)):
            assert_renders_like_references(doc, now)
    assert render_document({"recognized": True}, "json") == '{\n  "recognized": true\n}\n'
    assert render_document({"recognized": False}, "tsv") == "recognized\tfalse\n"


def test_render_document_matches_json_dumps_on_random_documents():
    # run, partitioned and check documents, with empty args, sections,
    # models and entities among them
    rng = random.Random(31)
    kinds = {"run": 0, "partitioned": 0, "check": 0, "no models": 0, "no entities": 0}
    for _ in range(600):
        now = rng.choice((None, 40))
        kind = rng.choice(("run", "partitioned", "check"))
        if kind == "check":
            doc = {"recognized": rng.random() < 0.5}
        else:
            doc = (random_run if kind == "run" else random_partitioned)(rng, random_facts(rng, now))
        kinds[kind] += 1
        kinds["no models"] += doc.get("models") == []
        kinds["no entities"] += doc.get("entities") == []
        assert_renders_like_references(doc, now)
    assert min(kinds.values()) > 30, kinds


POSITIONED_RULES = "decl persistent e/1.\ndecl persistent z/0.\ndecl meta m/1.\ndecl meta y/0.\n"


def random_result(rng: random.Random) -> TimelineResult:
    """A result in factored form: a core, units of results drawn from facts
    no other unit holds, empty results among them, and zero or more models,
    sometimes all holding the same facts."""
    facts = list({AnnotatedEventFact(pred, (rng.choice(TEXTS + (0, 7)),) if pred in "em" else (),
                                     Interval(start, rng.choice((STAR, start, start + 3))),
                                     rng.randint(1, 3))
                  for pred in rng.choices("emzy", k=rng.randrange(12))
                  for start in [rng.randrange(6)]})
    rng.shuffle(facts)
    cut = sorted(rng.randint(0, len(facts)) for _ in range(rng.randrange(4)))
    parts = [facts[a:b] for a, b in zip([0] + cut, cut + [len(facts)])]
    units = tuple(tuple(frozenset(rng.sample(p, rng.randint(0, len(p))))
                        for _ in range(rng.randint(1, 3))) for p in parts[1:])
    picks = tuple(tuple(rng.randrange(len(rs)) for rs in units)
                  for _ in range(rng.choice((0, 1, rng.randrange(6)))))
    return TimelineResult(rng.choice(("naive", "consistent")), None, rng.random() < 0.7,
                          Factored(frozenset(parts[0]), units, picks))


def test_run_renders_models_by_position_like_json_dumps(tmp_path, monkeypatch, capsys):
    # the command renders each run from its distinct facts and each model's
    # runs among them; its output must be the standard encoder's text
    # of result_to_json's document, its TSV what render_document makes of
    # that document, and result_to_json must hold each model's facts sorted
    # into its sections, for one run and for partitioned ones
    tes = parse_tes(POSITIONED_RULES)
    (tmp_path / "r.tes").write_text(POSITIONED_RULES + "decl observation adm/1.\n")
    (tmp_path / "d.facts").write_text("obs adm(p1, 0).\nobs adm(p2, 0).\nobs adm(p3, 0).\n")
    rng = random.Random(37)
    kinds = {"no models": 0, "every model holds every fact": 0, "no simple": 0, "no meta": 0,
             "ongoing": 0}
    for round_ in range(300):
        results = [random_result(rng) for _ in range(3)]
        queue = iter(results)
        monkeypatch.setattr(cli, "timeline", lambda *args: next(queue))
        now = rng.choice((None, 40))
        partition = round_ % 3 == 0
        docs = [result_to_json(r, tes, now) for r in results[:3 if partition else 1]]
        for r, doc in zip(results, docs):
            models = r.factored.models()
            assert doc["models"] == [
                {k: [fact_to_json(f, now) for f in sorted(m, key=fact_key)
                     if tes.is_simple_pred(f.pred) == (k == "simple")] for k in ("simple", "meta")}
                for m in models]
            kinds["no models"] += not models
            kinds["every model holds every fact"] += (bool(models)
                                                      and not any(map(any, r.factored.units)))
            kinds["no simple"] += any(not m["simple"] for m in doc["models"])
            kinds["no meta"] += any(not m["meta"] for m in doc["models"])
            kinds["ongoing"] += now is not None and "clamped_end" in json.dumps(doc)
        if partition:
            doc = {"mode": "consistent", "partition_by": 0,
                   "entities": [{"entity": f"p{i + 1}", **d} for i, d in enumerate(docs)],
                   "exhaustive": all(d["exhaustive"] for d in docs)}
        else:
            doc = docs[0]
        for fmt in ("json", "tsv"):
            queue = iter(results)
            argv = ["run", "--rules", str(tmp_path / "r.tes"), "--data", str(tmp_path / "d.facts"),
                    "--mode", "consistent", "--format", fmt]
            argv += ["--partition-by", "0"] * partition + ["--now", str(now)] * (now is not None)
            assert main(argv) == (0 if doc["exhaustive"] else 2)
            expected = (json.dumps(doc, indent=2) + "\n" if fmt == "json"
                        else render_document(doc, "tsv", with_clamp=now is not None))
            assert capsys.readouterr().out == expected
    assert min(kinds.values()) > 10, kinds


def test_models_as_runs_expand_to_their_sorted_positions():
    # _positioned gives each model as runs: maximal stretches of one section
    # whose facts have one label, the core or one unit with the same of its
    # results holding them. A model's runs, expanded, must be exactly the
    # sorted positions of its simple and of its meta facts
    tes = parse_tes(POSITIONED_RULES)
    rng = random.Random(41)
    kinds = {"held by some results of a unit": 0, "unit fact between core facts": 0,
             "adjacent runs of two units": 0}
    for _ in range(400):
        result = random_result(rng)
        core, units = result.factored.core, result.factored.units
        facts, runs, ranked = cli._positioned(result, tes, None)["models"]
        order = sorted(core.union(*[r for rs in units for r in rs]),
                       key=lambda f: (not tes.is_simple_pred(f.pred), fact_key(f)))
        assert facts == [fact_to_json(f) for f in order]
        n = sum(map(tes.is_simple_pred, (f.pred for f in order)))
        label = [(-1, frozenset()) if f in core else next(
            (u, frozenset(i for i, r in enumerate(rs) if f in r))
            for u, rs in enumerate(units) if any(f in r for r in rs)) for f in order]
        positions = range(len(order))
        assert [p for r in runs for p in positions[r]] == list(positions)
        for a, b in zip(runs, runs[1:]):  # maximal: a label changes, or a section ends
            assert a.stop == n or label[a.start] != label[b.start]
        for r in runs:
            assert len(set(label[r])) == 1 and (r.start < n) == (r.stop <= n)
        assert len(ranked) == len(result.factored.picks)
        for m, (simple, meta) in zip(result.factored.models(), ranked):
            held = sorted(p for p in positions if order[p] in m)
            assert [p for k in simple for p in positions[runs[k]]] == [p for p in held if p < n]
            assert [p for k in meta for p in positions[runs[k]]] == [p for p in held if p >= n]
        unit = [u for u, _ in label]
        kinds["held by some results of a unit"] += any(
            u >= 0 and len(rs) < len(units[u]) for u, rs in label)
        for sec in (range(n), range(n, len(order))):
            core_at = [p for p in sec if unit[p] < 0]
            between = unit[core_at[0]:core_at[-1]] if core_at else []
            kinds["unit fact between core facts"] += any(u >= 0 for u in between)
        kinds["adjacent runs of two units"] += any(
            b.start != n and -1 != unit[a.start] != unit[b.start] != -1
            for a, b in zip(runs, runs[1:]))
    assert min(kinds.values()) > 30, kinds


@pytest.mark.parametrize("body", ["e(P, I, L), adm(P, plus(T, 1))",
                                  "e(P, I, L), e(P, inter(I, J), L)"])
def test_terms_out_of_place_exit_1_naming_the_rule_file(ward, capsys, body):
    rules = ward / "place.tes"
    rules.write_text("decl observation adm/1.\ndecl persistent e/1.\ndecl meta m/1.\n"
                     f"meta m(P, I, L) :- {body}.\n")
    assert run_cli("run", "--rules", str(rules), "--data", str(ward / "ward.facts")) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {rules}: ") and err.count("\n") == 1
    assert "line 4" in err and "Traceback" not in err


def test_main_twice_in_one_process_matches_separate_runs(ward, capsys):
    (ward / "ward.csv").write_text("p1,0\np1,1\np3,9\n")
    (ward / "ward.map").write_text("predicate=adm\ncolumns=0\ntimestamp_column=1\n")
    runs = [["run", "--rules", str(ward / "care.tes"), "--data", str(ward / "ward.csv"),
             "--map", str(ward / "ward.map")],
            ["run", "--rules", str(ward / "care.tes"), "--data", str(ward / "ward.facts")]]
    in_process = []
    for argv in runs:
        rc = main(argv)
        in_process.append((rc, *capsys.readouterr()))
    separate = []
    for argv in runs:
        proc = subprocess.run([sys.executable, "-m", "timeloom", *argv],
                              capture_output=True, text=True)
        separate.append((proc.returncode, proc.stdout, proc.stderr))
    assert in_process == separate and [rc for rc, _, _ in separate] == [0, 0]
    assert cli._build_parser() is cli._build_parser()
    assert cli._build_parser().parse_args(runs[1]).map == []


def test_malformed_and_borderline_inputs_exit_cleanly(tmp_path, monkeypatch):
    # seeded edits of rule text, fact text, CSV with a mapping and check
    # targets: each run exits 0 to 3 with no traceback and at most one
    # error line, and the runs reach every exit code, not only the parser's
    monkeypatch.chdir(tmp_path)
    codes = set()
    for files, argv in malformed.cases(seed=7, count=500):
        code, _, err = malformed.run_case(files, argv)
        assert not malformed.faults(code, err), (argv, files, err)
        codes.add(code)
    assert codes == {0, 1, 2, 3}
