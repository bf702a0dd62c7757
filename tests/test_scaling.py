"""Scaling gates: a stage's cost must grow no faster than its input.

Python call counts (`sys.setprofile`) are exact and do not follow the host's
speed, so each gate compares the calls of one stage at two input sizes 4x
apart, and requires the ratio to stay at most 5. Calls miss work done in C,
so a wall-time companion compares 16x sizes with room to spare: linear
growth is 16x, quadratic 256x.

The rule-file axis: rule files of k copies of the `guard` workload's rule
set, each copy over its own predicates, read by `parse_tes`, with every
rule's join plan compiled in every state it can reach.

The entity axes: one `timeloom run` over a benchmark workload
(bench/workloads.py, read only) at a number of entities: `ward` naive over
its patients (grounding, interval inference, the meta closure and
rendering), `guard` cautious over its patients (the constraint's conflict
edges and the core) and `clash` consistent over its filler patients beside
its four contested instances (enumeration of its 256 repairs and their
closures).

    PYTHONPATH=src python tests/test_scaling.py 4 16

prints the rule-file calls at each number of copies, and

    PYTHONPATH=src python tests/test_scaling.py --entities 20 320

the calls of each entity axis at each number of entities; it exits 1 when
a call ratio passes 5 per 4x (25 at 16x) or a best-of-three wall ratio
passes the size ratio times 4 (64 at 16x).
"""

import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from timeloom import cli, parse_tes
from timeloom.language import is_schematic_window
from timeloom.query import rule_plan

TESTS = Path(__file__).resolve().parent

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


ENTITY_AXES = (("ward", "naive"), ("guard", "cautious"), ("clash", "consistent"))


def run_calls(workload: str, mode: str, entities: int, measure=python_calls):
    """`measure` (by default the Python calls) of one `timeloom run` in
    `mode` over the workload (seed 1) at `entities` patients, for clash
    filler patients."""
    sys.path.insert(0, str(TESTS.parent / "bench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(TESTS.parent / "bench"))
    base = {"ward": workloads.WARD_PATIENTS, "guard": workloads.GUARD_PATIENTS,
            "clash": workloads.CLASH_FILLER}[workload]
    wl = workloads.generate(workload, 1, entities / base)
    with tempfile.TemporaryDirectory() as tmp:
        rules, facts = Path(tmp, "run.tes"), Path(tmp, "run.facts")
        rules.write_text(wl.rules)
        facts.write_text(wl.facts)
        argv = ["run", "--rules", str(rules), "--data", str(facts), "--mode", mode,
                "--out", str(Path(tmp, "out"))]
        cli.main(argv)  # the first run compiles the join plans of its rules
        return measure(cli.main, argv)


def best_of_three(fn, *args) -> float:
    took = []
    for _ in range(3):
        t0 = perf_counter()
        fn(*args)
        took.append(perf_counter() - t0)
    return min(took)


def calls_under_hash_seeds(fn: str, *calls: tuple) -> list[tuple[int, ...]]:
    """`fn`'s call count for each argument tuple in `calls`, each in a
    fresh interpreter under hash seeds 0 and 1."""
    src = str(TESTS.parent / "src")
    code = ("import ast, sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
            f"from test_scaling import {fn}; "
            f"print(*({fn}(*ast.literal_eval(a)) for a in sys.argv[3:]))")
    counts = []
    for seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-c", code, src, str(TESTS), *map(repr, calls)],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONHASHSEED": seed})
        counts.append(tuple(map(int, proc.stdout.split())))
    return counts


def test_rule_file_calls_grow_linearly_under_two_hash_seeds():
    """Reading and compiling 16 copies of the guard rule set makes at most 5
    times the Python calls of 4 copies, with the same counts under hash
    seeds 0 and 1."""
    counts = set(calls_under_hash_seeds("rule_file_calls", (4,), (16,)))
    assert len(counts) == 1, counts
    (small, large), = counts
    assert large <= 5 * small, (small, large)


def test_ward_run_calls_grow_linearly_in_the_patients_under_two_hash_seeds():
    """A naive run over 80 ward patients makes at most 5 times the Python
    calls of one over 20, under hash seeds 0 and 1 alike."""
    for small, large in calls_under_hash_seeds("run_calls", ("ward", "naive", 20),
                                               ("ward", "naive", 80)):
        assert large <= 5 * small, (small, large)


def test_guard_and_clash_run_calls_grow_linearly_in_the_entities_under_two_hash_seeds():
    """A cautious guard run and a consistent clash run over 80 entities
    (clash: filler patients) make at most 5 times the Python calls of one
    over 20, with the same counts under hash seeds 0 and 1."""
    axes = ENTITY_AXES[1:]
    counts = set(calls_under_hash_seeds(
        "run_calls", *[(name, mode, n) for name, mode in axes for n in (20, 80)]))
    assert len(counts) == 1, counts
    (guard_small, guard_large, clash_small, clash_large), = counts
    assert guard_large <= 5 * guard_small, (guard_small, guard_large)
    assert clash_large <= 5 * clash_small, (clash_small, clash_large)


def test_rule_file_time_grows_linearly():
    """16 times the copies take at most 64 times as long (best of three)."""
    small = best_of_three(read_and_compile, guard_rule_file(2))
    large = best_of_three(read_and_compile, guard_rule_file(32))
    assert large <= 64 * small, (small, large)


def entity_axes(small: int, large: int) -> int:
    """Print each entity axis's calls at `small` and `large` entities, and
    give 1 if a call ratio passes 5 per 4x or a wall ratio (best of three)
    passes 4 times the size ratio, else 0."""
    size, failed = large / small, 0
    for name, mode in ENTITY_AXES:
        calls = [run_calls(name, mode, n) for n in (small, large)]
        print(f"{name} {mode}: {calls[0]} {calls[1]} calls")
        wall = [run_calls(name, mode, n, best_of_three) for n in (small, large)]
        if calls[1] > 5 ** math.log(size, 4) * calls[0] or wall[1] > 4 * size * wall[0]:
            print(f"{name} {mode}: call ratio {calls[1] / calls[0]:.1f}, wall ratio "
                  f"{wall[1] / wall[0]:.1f} at {size:g}x", file=sys.stderr)
            failed = 1
    return failed


if __name__ == "__main__":
    if sys.argv[1:2] == ["--entities"]:
        sys.exit(entity_axes(*map(int, sys.argv[2:4])))
    print(*(f"{k} copies: {rule_file_calls(k)} calls" for k in map(int, sys.argv[1:])),
          sep="\n")
