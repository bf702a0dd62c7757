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

from .errors import InvalidSpec
from .language import TES, PredKind, format_instance
from .model import STAR, AnnotatedEventFact, Dataset, Interval
from .query import AuxStore, ground_simple_heads, instance_key

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
    return {(Interval(start, end), level) for start, end, level in _chains(exists, ends, w)}


def _chains(exists: Points, ends: Points, w: int | float) -> list[tuple[int, int | float, int]]:
    """The walk of `infer_nonpersistent`, giving each maximal interval as
    (start, end, level)."""
    exists, ends = sorted(exists), sorted(ends)
    out: list[tuple[int, int | float, int]] = []
    seen: set[tuple[int, int | float]] = set()
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
            if (start, end) not in seen:
                seen.add((start, end))
                out.append((start, end, level))
            start = None
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


def window_fault(ws: Collection[int]) -> str | None:
    """The `InvalidSpec` kind of an instance with these window values: none,
    more than one, or one below 1, tested in that order; None when it has
    one window."""
    return ("MissingWindow" if not ws else "AmbiguousWindow" if len(ws) > 1
            else "ZeroWindow" if min(ws) < 1 else None)


def _window(ws: Collection[int]) -> int | None:
    """The one window of an instance with these window values, or None
    (`window_fault`)."""
    return None if window_fault(ws) else min(ws)


def infer_from_aux(aux: AuxStore, tes: TES) -> frozenset[AnnotatedEventFact]:
    """Infer every instance, walking the groups in the order grounding made
    them. The window a predicate's instances share (STAR when persistent)
    is resolved once; an instance with window rules of its own resolves
    its own. An instance whose window is missing, ambiguous or below 1 is
    skipped and recorded; after the walk the least such in `instance_key`
    order raises `InvalidSpec`, whatever the order of the walk."""
    shared = {pred: STAR if tes.kind(pred) is not PredKind.NONPERSISTENT
              else _window(aux.default_windows.get(pred, ()))
              for pred in {pred for pred, _ in aux.exists}}
    facts: list[AnnotatedEventFact] = []
    faulty: list = []
    for key, exists in aux.exists.items():
        pred, args = key
        w = shared[pred]
        if w is not STAR and key in aux.windows:
            w = _window(aux.windows[key] | aux.default_windows.get(pred, set()))
        if w is None:
            faulty.append(key)
            continue
        facts += [AnnotatedEventFact(pred, args, Interval(start, end), level)
                  for start, end, level in _chains(exists, aux.ends.get(key, ()), w)]
    if faulty:
        key = min(faulty, key=instance_key)
        ws = aux.windows.get(key, set()) | aux.default_windows.get(key[0], set())
        raise InvalidSpec(window_fault(ws), key, format_instance(*key))
    return frozenset(facts)
