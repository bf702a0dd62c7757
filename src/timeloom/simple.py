"""Simple-event inference: maximal intervals from existence/termination
timepoints.

One walk serves both kinds of simple event. It reads an instance's
(timepoint, level) pairs as `ground_simple_heads` grouped them. Existence
points chain while their gaps stay within the event's window and no
termination falls between them, and each chain closes at the first
termination within the window of its last point. A persistent event is the
case of an unbounded window: a chain runs from an existence point to the
first termination, or forever. Levels are processed in order of decreasing
confidence; an interval already inferred at a stronger level is not
repeated at a weaker one.
"""

from __future__ import annotations

from typing import Collection

from .language import TES, PredKind
from .model import STAR, AnnotatedEventFact, Dataset, Interval
from .query import AuxStore, ground_simple_heads

Points = Collection[tuple[int, int]]  # (timepoint, level) pairs


def infer_nonpersistent(exists: Points, ends: Points,
                        w: int | float) -> set[tuple[Interval, int]]:
    """All maximal intervals of one instance under window `w` (STAR for a
    persistent instance), each at the strongest level that infers it.

    Level l reads the existence and termination points of level at most l.
    Only the levels some point names are walked: any other level reads what
    the named level below it reads. Each side is sorted once, and each
    level keeps the points whose level is at most it. A point rule's level
    is a literal in its head, so an instance never has more levels than
    there are point rules, and this filter is linear in the data.

    Consecutive existence points join one chain when their gap is at most
    `w` and no termination falls at or after the earlier and before the
    later. A chain closes at the first termination within `w` of its last
    point; otherwise it ends at that point, or is ongoing when `w` is STAR.
    Chains cannot contain one another: whatever breaks a chain (a wide gap
    or an intervening termination) also bounds its closed end below the
    next chain's start. Under STAR only terminations break chains, so the
    points sharing their first termination at or after them form one chain
    that runs from the earliest of them to that termination, or forever.
    A timepoint named at two levels is kept twice; the second copy joins
    the first one's chain.
    """
    exists, ends = sorted(exists), sorted(ends)
    out: set[tuple[Interval, int]] = set()
    seen: set[Interval] = set()
    for level in sorted({lvl for _, lvl in exists} | {lvl for _, lvl in ends}):
        te = [t for t, lvl in exists if lvl <= level]
        tx = [t for t, lvl in ends if lvl <= level] + [STAR]
        j, start = 0, None
        for p, nxt in zip(te, te[1:] + [None]):
            while tx[j] < p:  # tx[j]: the first termination at or after p, or STAR
                j += 1
            if start is None:
                start = p
            if nxt is not None and nxt - p <= w and tx[j] >= nxt:
                continue  # nxt joins the chain
            # no termination within w of p: STAR is tested first, as STAR - p
            # overflows a float once p has more than 308 digits
            end = tx[j]
            if end == STAR or end - p > w:
                end = STAR if w == STAR else p
            iv = Interval(start, end)
            start = None
            if iv not in seen:
                seen.add(iv)
                out.add((iv, level))
    return out


def infer_persistent(exists: Points, ends: Points) -> set[tuple[Interval, int]]:
    """All maximal intervals of a persistent instance, per level: each
    existence point runs to the first termination at or after it, or stays
    ongoing when none exists."""
    return infer_nonpersistent(exists, ends, STAR)


def infer_all_simple(dataset: Dataset, tes: TES) -> frozenset[AnnotatedEventFact]:
    """Ground the simple-event rules and infer every event instance."""
    aux = ground_simple_heads(tes, dataset)
    return infer_from_aux(aux, tes)


def infer_from_aux(aux: AuxStore, tes: TES) -> frozenset[AnnotatedEventFact]:
    """Infer every instance in key order; the first whose window is missing,
    ambiguous or below 1 raises `InvalidSpec`."""
    facts: set[AnnotatedEventFact] = set()
    for key in aux.keys():
        pred, args = key
        w = aux.window(key) if tes.kind(pred) is PredKind.NONPERSISTENT else STAR
        found = infer_nonpersistent(aux.exists[key], aux.ends.get(key, ()), w)
        facts.update(AnnotatedEventFact(pred, args, iv, lvl) for iv, lvl in found)
    return frozenset(facts)
