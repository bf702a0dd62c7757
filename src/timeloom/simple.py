"""Simple-event inference: maximal intervals from existence/termination
timepoints.

Non-persistent events chain existence evidence whose gaps stay within the
event's window and close at terminations; persistent events run from an
existence point to the first termination, or forever. Levels are processed
in order of decreasing confidence; an interval already inferred at a
stronger level is not repeated at a weaker one.
"""

from __future__ import annotations

from bisect import bisect_left

from .language import TES, PredKind
from .model import STAR, AnnotatedEventFact, Dataset, Interval
from .query import (
    AuxStore,
    LevelTimepoints,
    check_validity,
    ground_simple_heads,
    level_timepoints,
)


def _next_ge(sorted_pts: list[int], x: int) -> int | None:
    i = bisect_left(sorted_pts, x)
    return sorted_pts[i] if i < len(sorted_pts) else None


def infer_nonpersistent(tp: LevelTimepoints, w: int) -> set[tuple[Interval, int]]:
    """All maximal intervals of a non-persistent instance, per level."""
    out: set[tuple[Interval, int]] = set()
    seen: set[Interval] = set()
    for level in tp.levels:  # an unnamed level repeats the one below it
        te = list(tp.exists_at(level))
        tx = list(tp.ends_at(level))
        for a, b in _np_maximal(te, tx, w):
            iv = Interval(a, b)
            if iv not in seen:
                out.add((iv, level))
            seen.add(iv)
    return out


def _np_maximal(te: list[int], tx: list[int], w: int) -> list[tuple[int, int]]:
    """One maximal interval per evidence chain.

    Consecutive existence points join one chain when their gap stays within
    the window and no termination falls between them; each chain closes at
    the first termination within the window of its last point, or stays at
    the last point when none follows. Chains cannot contain one another:
    whatever breaks a chain (a wide gap or an intervening termination) also
    bounds its closed end below the next chain's start.
    """
    cands: list[tuple[int, int]] = []
    i, n = 0, len(te)
    while i < n:
        s = te[i]
        while i + 1 < n and te[i + 1] - te[i] <= w:
            nt = _next_ge(tx, te[i])
            if nt is not None and nt < te[i + 1]:
                break
            i += 1
        e = te[i]
        nt = _next_ge(tx, e)
        if nt is not None and nt <= e + w:
            cands.append((s, nt))
        else:
            cands.append((s, e))
        i += 1
    return cands


def infer_persistent(tp: LevelTimepoints) -> set[tuple[Interval, int]]:
    """All maximal intervals of a persistent instance, per level: each
    existence point runs to the first termination at or after it, or stays
    ongoing when none exists.

    Only runs sharing an end can contain one another: from b <= a, b's
    first termination is at most a's. So each end keeps its earliest start.
    """
    out: set[tuple[Interval, int]] = set()
    seen: set[Interval] = set()
    for level in tp.levels:  # an unnamed level repeats the one below it
        tx = list(tp.ends_at(level))
        first_start: dict = {}  # end -> earliest start reaching it
        for t1 in tp.exists_at(level):  # ascending
            nt = _next_ge(tx, t1)
            first_start.setdefault(STAR if nt is None else nt, t1)
        for b, a in first_start.items():
            iv = Interval(a, b)
            if iv not in seen:
                out.add((iv, level))
            seen.add(iv)
    return out


def infer_all_simple(dataset: Dataset, tes: TES) -> frozenset[AnnotatedEventFact]:
    """Ground the simple-event rules and infer every event instance."""
    aux = ground_simple_heads(tes, dataset)
    return infer_from_aux(aux, tes)


def infer_from_aux(aux: AuxStore, tes: TES) -> frozenset[AnnotatedEventFact]:
    check_validity(aux, tes)
    facts: set[AnnotatedEventFact] = set()
    for key in aux.keys():
        pred, args = key
        tp = level_timepoints(aux, key)
        if tes.kind(pred) is PredKind.NONPERSISTENT:
            pairs = infer_nonpersistent(tp, aux.window_for(key))
        else:
            pairs = infer_persistent(tp)
        facts.update(AnnotatedEventFact(pred, args, iv, lvl) for iv, lvl in pairs)
    return frozenset(facts)
