"""Seeded malformed and borderline inputs for the command line.

Each case is a valid base input (rule text, fact text, CSV with a mapping,
or a check target) that a few random edits may break: inserted tokens and
bytes, deleted spans, repeated or dropped lines, changed numbers, a cut
end, or, in a check target, a field of the wrong kind. Each runs through
`cli.main` in this process and must exit 0, 1, 2 or 3, raise nothing, and
write at most one `error:` line.

    PYTHONPATH=src python tests/malformed.py --count 5000 --seed 1 > cases.jsonl

writes one JSON line per case (number, exit code, stdout, stderr) from a
scratch directory, then exits 1 if any case broke a rule, naming it on
stderr. Runs under different PYTHONHASHSEED values must write the same
bytes.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import random
import sys
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from timeloom.cli import main

THERAPY_RULES = """\
decl observation adm/2.
decl observation lab/1.
decl observation stop/1.
decl atemporal ab/1.
decl nonpersistent abth/2.
decl persistent hyperglyc/1.
decl meta ontherapy/1.
exists(abth(P, D), T, 1) :- adm(P, D, T), ab(D).
ends(abth(P, D), T, 2) :- stop(P, T), adm(P, D, T2), T2 < T.
window(abth(P, D), 48).
exists_pers(hyperglyc(P), T, 1) :- lab(P, T).
exists_pers(hyperglyc(P), plus(T, 1), 2) :- lab(P, T).
ends(hyperglyc(P), T, 1) :- stop(P, T).
meta ontherapy(P, inter(I, J), min(L1, L2)) :- abth(P, D, I, L1), hyperglyc(P, J, L2).
constraint :- abth(P, D, [T1, T2]), hyperglyc(P, [T1, T3]).
"""
THERAPY_FACTS = """\
atemporal ab(amox).
obs adm(p1, amox, 5).
obs adm(p2, amox, 7).
obs lab(p1, 5).   # a comment
obs lab(p2, 3).
obs stop(p1, 60).
obs stop(p2, 9).
"""
PROGRAM_RULES = """\
decl observation es/1.
decl observation ee/1.
decl observation ps/1.
decl observation pe/1.
decl nonpersistent e/1.
decl persistent p/1.
decl meta m/1.
decl meta n/1.
window(e(P), 2).
exists(e(P), T, 1) :- es(P, T).
ends(e(P), T, 2) :- ee(P, T).
exists_pers(p(P), T, 1) :- ps(P, T).
exists_pers(p(P), T, 2) :- pe(P, T).
ends(p(P), T, 1) :- pe(P, T).
meta m(P, I, L) :- e(P, I, L), not p(P, _, _).
meta m(P, [T, T2], L) :- e(P, [T, T2], L), start(e(P), T).
meta n(P, I, max(L1, L2)) :- m(P, I, L1), p(P, J, L2), during(I, J).
constraint :- e(P, [T, _]), not p(P, [T, _]).
constraint :- n(P, I).
"""
PROGRAM_FACTS = """\
obs es(a, 1).
obs es(a, 3).
obs ee(a, 4).
obs ps(a, 1).
obs pe(a, 6).
obs es(b, 2).
obs ps(b, 2).
obs es('B c', 0).
"""
GROUND_RULES = """\
decl nonpersistent e/0.
decl persistent q/0.
exists(e, 2, 1).
exists(e, 4, 1).
exists(e, 1, 2).
exists(e, 5, 2).
ends(e, 7, 1).
window(e, 2).
exists_pers(q, 0, 1).
ends(q, 4, 2).
constraint :- q([T, _]), not e([T, _]).
"""
# windows per instance, from rules and from data, beside a schematic one:
# an edit may leave an instance with no window, two, or a zero one
WINDOW_RULES = """\
decl observation o/1.
decl observation w/1.
decl nonpersistent e/1.
decl nonpersistent f/1.
exists(e(X), T, 1) :- o(X, T).
exists(f(X), T, 1) :- o(X, T).
window(e(a), 2).
window(e(b), 3).
window(e(X), plus(T, 0)) :- w(X, T).
window(f(X), 2).
window(f(b), 2).
"""
WINDOW_FACTS = """\
obs o(a, 1).
obs o(a, 3).
obs o(b, 2).
obs o(c, 4).
obs w(b, 3).
obs w(c, 1).
"""
CSV_ROWS = 'p1,amox,5\np2,"amox",7\np1,amox,"9"\n'
CSV_MAP = "predicate=adm\ncolumns=0,1\ntimestamp_column=2\n"
CSV_RFC_ROWS = "p1,2021-03-01T00:00:00Z\np2,2021-03-01T08:30:00+02:00\n"
CSV_RFC_MAP = "predicate = lab\ncolumns = 0\ntimestamp_column = 1\ntimestamp_format = rfc3339\n"

# text an edit may insert: punctuation, keywords, terms, numbers at and
# past every bound (the last past the 4,300 digits a natural may have),
# non-ASCII letters and digits, and control characters
TOKENS = ("(", ")", ",", ".", "[", "]", "_", "*", "#", ":-", "'", "'a b'", "not ", "X", "T",
          "P", "0", "007", "1", "2", "-1", "99999999999999999999", "1e3", "²", "é", "É", "٥",
          "\n", "\t", " ", "\r", "\ufeff", "\x00", "inter(", "min(", "max(", "plus(",
          "minus(", "decl ", "meta ", "constraint :- ", "exists(", "exists_pers(", "ends(",
          "window(", "start(", "end(", "during(", "<", "<=", "!=", "atemporal ", "obs ",
          "persistent", "observation", "/", "/0", "=", ";", '"', "\\", "{", "}", "null",
          "true", "Infinity", "NaN", "1.5", "[]", "{}", "9" * 5000)
# values a check target field may be given instead of its own
ODD_VALUES = (None, True, False, 0, -1, 1.5, 10 ** 30, "", "x", "*", "Infinity", [], {}, [1],
              {"start": 0})


def _edit_text(rng: random.Random, text: str) -> str:
    """One random edit of a text."""
    kind = rng.randrange(7)
    at = rng.randint(0, len(text))
    if kind <= 1:
        return text[:at] + rng.choice(TOKENS) + text[at:]
    if kind == 2:
        return text[:at] + text[at + rng.randint(1, 6):]
    lines = text.split("\n")
    i = rng.randrange(len(lines))
    if kind == 3:
        lines.insert(i, lines[rng.randrange(len(lines))])
    elif kind == 4:
        del lines[i]
    elif kind == 5:
        digits = [k for k, c in enumerate(text) if c.isdigit()]
        if digits:
            k = rng.choice(digits)
            return text[:k] + rng.choice(("0", "3", "10", "65536", "10000000000")) + text[k + 1:]
    else:
        return text[:at]
    return "\n".join(lines)


def _mutate(rng: random.Random, text: str, edits: int) -> bytes:
    """The text after `edits` random edits, as UTF-8, now and then with a
    byte that is not UTF-8 or a leading byte-order mark."""
    for _ in range(edits):
        text = _edit_text(rng, text)
    data = text.encode()
    roll = rng.random()
    if roll < 0.04:
        at = rng.randint(0, len(data))
        data = data[:at] + rng.choice((b"\xff", b"\xc3", b"\xed\xa0\x80")) + data[at:]
    elif roll < 0.08:
        data = b"\xef\xbb\xbf" + data
    return data


def _target(rng: random.Random, preds: tuple[str, ...], arity: int) -> str:
    """A check target over the given event predicates, valid or not."""
    facts = []
    for _ in range(rng.randint(0, 4)):
        start = rng.randrange(10)
        end = rng.choice(("*", start, start + rng.randrange(6)))
        facts.append({"pred": rng.choice(preds), "args": [rng.choice(("a", "b"))] * arity,
                      "interval": {"start": start, "end": end}, "level": rng.randint(1, 2)})
    doc: dict = {"kind": rng.choice(("consistent", "preferred")), "facts": facts}
    if rng.random() < 0.5:  # one field of the wrong kind, or missing
        where = rng.choice(facts) if facts and rng.random() < 0.8 else doc
        if where is not doc and rng.random() < 0.3:
            where = where["interval"]
        key = rng.choice(sorted(where))
        if rng.random() < 0.2:
            del where[key]
        else:
            where[key] = rng.choice(ODD_VALUES)
    return json.dumps(doc)


def cases(seed: int, count: int):
    """`count` seeded cases, each (files by name, argv)."""
    rng = random.Random(seed)
    bases = ((THERAPY_RULES, THERAPY_FACTS, ("abth", "hyperglyc"), 2),
             (PROGRAM_RULES, PROGRAM_FACTS, ("e", "p"), 1),
             (GROUND_RULES, "", ("e", "q"), 0),
             (WINDOW_RULES, WINDOW_FACTS, ("e", "f"), 1))
    for _ in range(count):
        rules, facts, preds, arity = rng.choice(bases)
        target = _target(rng, preds, arity)
        texts = {"r.tes": rules, "d.facts": facts, "t.json": target}
        data = ["--data", "d.facts"]
        if rules is THERAPY_RULES and rng.random() < 0.4:
            rows, mapping = rng.choice(((CSV_ROWS, CSV_MAP), (CSV_RFC_ROWS, CSV_RFC_MAP)))
            texts.update({"d.csv": rows, "d.map": mapping})
            data += ["--data", "d.csv", "--map", "d.map"]
        # borderline cases keep every file whole; the others break one
        broken = rng.choice(sorted(texts)) if rng.random() < 0.85 else None
        files = {name: _mutate(rng, text, rng.randint(1, 3)) if name == broken
                 else text.encode() for name, text in texts.items()}
        mode = rng.choice(("naive", "consistent", "preferred", "cautious", "check"))
        argv = ["run", "--rules", "r.tes", *data, "--mode", mode,
                "--format", rng.choice(("json", "tsv")), "--cap", rng.choice(("1", "7", "200"))]
        if mode == "check":
            argv += ["--check", "t.json"]
        elif rng.random() < 0.3:
            argv += rng.choice((["--max-models", "1"], ["--partition-by", "0"],
                                ["--partition-by", "1"], ["--now", "5"]))
        yield files, argv


def run_case(files: dict[str, bytes], argv: list[str]) -> tuple[int | None, str, str]:
    """Write the case's files to the working directory and run `cli.main`:
    the exit code (None when it raised), stdout and stderr, with the
    traceback of what it raised."""
    for name, data in files.items():
        Path(name).write_bytes(data)
    out, err = io.BytesIO(), io.StringIO()
    stdout = io.TextIOWrapper(out, encoding="utf-8", write_through=True)
    with redirect_stdout(stdout), redirect_stderr(err):
        try:
            code = main(argv)
        except Exception:  # a defect: recorded, not raised
            code = None
            traceback.print_exc()
    return code, out.getvalue().decode(), err.getvalue()


def faults(code: int | None, err: str) -> list[str]:
    """The rules a case's result breaks."""
    found = []
    if code not in (0, 1, 2, 3):
        found.append(f"exit code {code}")
    if "Traceback" in err:
        found.append("a traceback")
    if sum(line.startswith("error:") for line in err.splitlines()) > 1:
        found.append("more than one error line")
    return found


def run_cases(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--count", type=int, default=5000)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    broken = 0
    write = sys.stdout.write
    with tempfile.TemporaryDirectory() as scratch:
        home = os.getcwd()
        os.chdir(scratch)
        try:
            for i, (files, case_argv) in enumerate(cases(args.seed, args.count)):
                code, out, err = run_case(files, case_argv)
                write(json.dumps([i, code, out, err]) + "\n")
                for fault in faults(code, err):
                    broken += 1
                    print(f"case {i} ({' '.join(case_argv)}): {fault}", file=sys.stderr)
        finally:
            os.chdir(home)
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(run_cases())
