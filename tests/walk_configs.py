"""Seeded random timepoint configurations, and a differential check of the
interval walk against the definitional oracle.

`random_config` draws one event instance's existence and termination
(timepoint, level) pairs as grounding groups them: a timepoint may be named
at several levels, the levels are 1 to 3 or the gapped 1, 4 and 9, and now
and then every timepoint lies past the float range (beyond 10**4299). It
also draws a finite window, from 1 to one no gap reaches.

    PYTHONPATH=src python tests/walk_configs.py --count 20000 --seed 1

runs `infer_nonpersistent` under the finite window and under STAR, and
`infer_persistent`, against `oracle.oracle_infer` (a STAR window is the
persistent case), and exits 1 at the first configuration where they differ,
naming it on stderr. The summary line it prints otherwise does not depend
on the hash seed.
"""

from __future__ import annotations

import argparse
import random
import sys

from timeloom import STAR, infer_nonpersistent, infer_persistent

from oracle import oracle_infer

LEVELS = ((1,), (1, 2), (1, 2, 3), (1, 4, 9))
BIG = 10 ** 4299  # a timepoint of 4,300 digits, the most a natural may have


def random_config(rng: random.Random):
    """(existence pairs, termination pairs, finite window) of one instance."""
    levels = rng.choice(LEVELS)
    horizon = rng.randint(1, 12)
    base = BIG if rng.random() < 0.1 else 0
    rate = 5 / (horizon * len(levels))  # about 5 existence and 2 termination pairs

    def pairs(share: float) -> set[tuple[int, int]]:
        return {(base + t, lvl) for t in range(horizon) for lvl in levels
                if rng.random() < rate * share}

    exists, ends = pairs(1.0), pairs(0.4)
    w = rng.choice((1, 1, 2, 3, horizon + 1, 10 ** 9))
    return exists, ends, w


def disagreement(exists, ends, w) -> str | None:
    """The first walk that differs from the oracle, or None."""
    tp = (exists, ends)
    if infer_nonpersistent(exists, ends, w) != oracle_infer(tp, False, w):
        return f"infer_nonpersistent under window {w}"
    ongoing = oracle_infer(tp, True)
    if infer_nonpersistent(exists, ends, STAR) != ongoing:
        return "infer_nonpersistent under STAR"
    if infer_persistent(exists, ends) != ongoing:
        return "infer_persistent"
    return None


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--count", type=int, default=20000)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    rng = random.Random(args.seed)
    intervals = 0
    for i in range(args.count):
        exists, ends, w = random_config(rng)
        wrong = disagreement(exists, ends, w)
        if wrong is not None:
            print(f"configuration {i}: {wrong} differs from the oracle\n"
                  f"  exists: {sorted(exists)}\n  ends: {sorted(ends)}", file=sys.stderr)
            return 1
        intervals += len(infer_nonpersistent(exists, ends, w))
    print(f"{args.count} configurations, {intervals} intervals under their finite window: "
          "the walk agrees with the oracle")
    return 0


if __name__ == "__main__":
    sys.exit(main())
