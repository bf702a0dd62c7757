"""Seeded monotone closure draws, and a differential check of `meta.derived`.

`random_closure_draw` draws one of `DERIVE_RULES` (a recursive join, and
marks reached along intervals from marks found by a body without event
atoms, read by a second stratum), mark observations, and per entity unit
e steps, a few f jumps and a few facts of `conftest.random_fact_set`.

    PYTHONPATH=src python tests/closure_draws.py --count 10000 --seed 1

closes each draw's simple events U once, recording its firings
(`meta._firings`), and for random subsets S of U compares what S derives
through those firings (`meta.derived`) with `S | infer_meta(S)`. It exits 1
at the first subset where the two differ, naming it on stderr. Firings are
recorded in set order; the subsets are drawn from U in `fact_key` order,
and the summary counts nothing that depends on the hash seed.
"""

from __future__ import annotations

import argparse
import random
import sys

from timeloom import (AnnotatedEventFact, Dataset, Interval, ObservationFact, infer_meta,
                     parse_tes)
from timeloom import meta
from timeloom.model import fact_key

from conftest import random_fact_set

# the simple events of `random_events`, and one observation
DECLARATIONS = ("decl nonpersistent e/1.", "decl nonpersistent f/1.",
                "decl observation mark/1.")
# monotone meta rules over them
DERIVE_RULES = (
    # a recursive stratum
    ("decl meta r/1.", "meta r(X, I, L) :- f(X, I, L).",
     "meta r(X, inter(I, J), max(L1, L2)) :- r(X, I, L1), e(X, J, L2)."),
    # per entity, the marks reached from a mark at 0 (a body without event
    # atoms) or from the start of an f interval, each time to the end of an
    # e interval holding the mark reached, read by a second stratum
    ("decl meta g/1.", "decl meta b/1.",
     "meta g(X, [T, T], 1) :- mark(X, T), T < 1.",
     "meta g(X, [T, T], 1) :- f(X, [T, _], _).",
     "meta g(X, [T2, T2], 1) :- g(X, [T, _], _), e(X, [T1, T2], _), T1 <= T, T <= T2,"
     " mark(X, T2).",
     "meta b(X, inter(I, J), L) :- g(X, I, _), e(X, J, L)."),
)


def random_events(rng: random.Random) -> list:
    """Per entity, unit e steps at most timepoints and a few f jumps over
    several, beside a few facts of `random_fact_set`, in `fact_key` order."""
    facts = set(random_fact_set(rng, max_facts=6))
    for x in "ab":
        facts.update(AnnotatedEventFact("e", (x,), Interval(t, t + 1), rng.randint(1, 2))
                     for t in range(10) if rng.random() < 0.95)
        for t in rng.sample(range(8), rng.randint(2, 4)):
            facts.add(AnnotatedEventFact("f", (x,), Interval(t, t + rng.randint(2, 5)), 1))
    return sorted(facts, key=fact_key)


def random_closure_draw(rng: random.Random) -> tuple:
    """A (dataset, tes, simple events) triple under monotone rules."""
    tes = parse_tes("\n".join(DECLARATIONS + rng.choice(DERIVE_RULES)))
    marks = [ObservationFact("mark", (x,), t) for x in "ab" for t in range(14)
             if rng.random() < 0.9]
    return Dataset(marks), tes, random_events(rng)


def forward_scan(firings: list[list], given) -> set:
    """What one scan of the firings in recorded order derives from `given`."""
    have = set(given)
    for head, *body in firings:
        if all(x in have for x in body):
            have.add(head)
    return have


def compare(rng: random.Random, subsets: int) -> tuple[str | None, int, int, int]:
    """Draw one instance and `subsets` subsets of its simple events. Returns
    how `derived` differs from `infer_meta` (None when it agrees), the
    firings recorded, the facts of the subsets' closures, and the subsets
    on which a forward scan falls short."""
    dataset, tes, simple = random_closure_draw(rng)
    firings = meta._firings(tes, dataset, frozenset(simple))
    facts = short = 0
    for _ in range(subsets):
        s = frozenset(x for x in simple if rng.random() < 0.7)
        want = s | infer_meta(tes, dataset, s)
        got = meta.derived(firings, s)
        if got != want:
            return (f"subset {sorted(s, key=fact_key)!r}\n  closure: "
                    f"{sorted(want, key=fact_key)!r}\n  derived: {sorted(got, key=fact_key)!r}",
                    len(firings), facts, short)
        facts += len(want)
        short += forward_scan(firings, s) != want
    return None, len(firings), facts, short


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--count", type=int, default=10000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--subsets", type=int, default=4)
    args = p.parse_args(argv)
    rng = random.Random(args.seed)
    fired = facts = 0
    for i in range(args.count):
        diff, n, k, _ = compare(rng, args.subsets)
        if diff is not None:
            print(f"draw {i}: {diff}", file=sys.stderr)
            return 1
        fired, facts = fired + n, facts + k
    print(f"{args.count} draws, {args.count * args.subsets} subsets, {fired} firings, "
          f"{facts} facts in their closures: derived agrees with infer_meta")
    return 0


if __name__ == "__main__":
    sys.exit(main())
