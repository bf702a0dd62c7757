"""Scaling gates: a stage's cost must grow no faster than its input.

Python call counts (`sys.setprofile`) are exact and do not follow the host's
speed, so each gate compares the calls of one stage at two input sizes 4x
apart, and requires the ratio to stay at most 5. Calls miss work done in C,
so a wall-time companion compares 16x sizes with room to spare: linear
growth is 16x, quadratic 256x.

The rule-file axis: rule files of k copies of the `guard` workload's rule
set, each copy over its own predicates, read by `parse_tes`, with every
rule's join plan compiled in every state it can reach.

    PYTHONPATH=src python tests/test_scaling.py 4 16

prints the rule-file calls at each number of copies.
"""

import os
import re
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from timeloom import parse_tes
from timeloom.language import is_schematic_window
from timeloom.query import rule_plan

# the guard workload's rule set (bench/workloads.py: BASE_RULES and
# GUARD_RULES at the default window)
GUARD_RULES = """\
# Antibiotic therapy episodes, infection periods, and their overlap.
decl atemporal ab/1.
decl observation adm/2.
decl observation note/2.
decl observation stop/2.
decl observation lab/1.
decl observation labneg/1.
decl nonpersistent abth/2.
decl persistent infect/1.
decl meta treated/2.
exists(abth(P, D), T, 1) :- adm(P, D, T), ab(D).
exists(abth(P, D), T, 2) :- note(P, D, T), ab(D).
ends(abth(P, D), T, 1) :- stop(P, D, T).
window(abth(P, D), 24).
exists_pers(infect(P), T, 1) :- lab(P, T).
ends(infect(P), T, 1) :- labneg(P, T).
meta treated(P, D, inter([T1, T2], [T3, T4]), max(L1, L2)) :-
    abth(P, D, [T1, T2], L1), infect(P, [T3, T4], L2).
decl atemporal allergic/2.
constraint :- abth(P, D, [T1, T2]), allergic(P, D).
"""
_PREDICATES = re.compile(
    r"\b(ab|adm|note|stop|lab|labneg|abth|infect|treated|allergic)\b(?=[(/])")


def guard_rule_file(copies: int) -> str:
    """`copies` copies of the guard rule set, the i-th over predicates
    suffixed with i."""
    return "".join(_PREDICATES.sub(rf"\g<1>{i}", GUARD_RULES) for i in range(copies))


def read_and_compile(text: str) -> None:
    """Parse the rule file and compile every rule's join plan in every
    state it can reach: each step's probe, match and tests."""
    tes = parse_tes(text)
    for rule in tes.existence + tes.termination + tes.windows + tes.meta_rules \
            + tes.constraints:
        if is_schematic_window(rule):
            continue
        plan = rule_plan(tes, rule)
        states, seen = [0], {0}
        while states:
            for step in plan.steps(states.pop()):
                step.take(plan)
                if step.after not in seen and step.after != plan.full:
                    seen.add(step.after)
                    states.append(step.after)


def python_calls(fn, *args) -> int:
    """The Python function calls `fn(*args)` makes."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(count)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls


def rule_file_calls(copies: int) -> int:
    return python_calls(read_and_compile, guard_rule_file(copies))


def test_rule_file_calls_grow_linearly_under_two_hash_seeds():
    """Reading and compiling 16 copies of the guard rule set makes at most 5
    times the Python calls of 4 copies, with the same counts under hash
    seeds 0 and 1."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = ("import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
            "from test_scaling import rule_file_calls; "
            "print(rule_file_calls(4), rule_file_calls(16))")
    counts = set()
    for seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-c", code, src, str(Path(__file__).parent)],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONHASHSEED": seed})
        counts.add(tuple(map(int, proc.stdout.split())))
    assert len(counts) == 1, counts
    (small, large), = counts
    assert large <= 5 * small, (small, large)


def test_rule_file_time_grows_linearly():
    """16 times the copies take at most 64 times as long (best of three)."""
    def best(text):
        took = []
        for _ in range(3):
            t0 = perf_counter()
            read_and_compile(text)
            took.append(perf_counter() - t0)
        return min(took)

    small, large = best(guard_rule_file(2)), best(guard_rule_file(32))
    assert large <= 64 * small, (small, large)


if __name__ == "__main__":
    print(*(f"{k} copies: {rule_file_calls(k)} calls" for k in map(int, sys.argv[1:])),
          sep="\n")
