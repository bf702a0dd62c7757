"""Shared fixtures: the two-level worked example, clinical-style rule sets,
and random instance and whole-program generators used by the equivalence
suites."""

import random

import pytest

from timeloom import AtemporalFact, Dataset, ObservationFact, parse_tes

TWO_LEVEL_NONPERSISTENT = """
decl nonpersistent e/0.
exists(e, 2, 1).
exists(e, 4, 1).
exists(e, 9, 1).
exists(e, 1, 2).
exists(e, 5, 2).
exists(e, 6, 2).
exists(e, 10, 2).
ends(e, 7, 1).
ends(e, 8, 1).
window(e, 2).
"""

TWO_LEVEL_PERSISTENT = """
decl persistent e/0.
exists_pers(e, 2, 1).
exists_pers(e, 4, 1).
exists_pers(e, 9, 1).
exists_pers(e, 1, 2).
exists_pers(e, 5, 2).
exists_pers(e, 6, 2).
exists_pers(e, 10, 2).
ends(e, 7, 1).
ends(e, 8, 1).
"""

THERAPY_RULES = """
decl observation adm/2.
decl observation lab/1.
decl nonpersistent abth/2.
decl persistent hyperglyc/1.
decl meta ontherapy/1.
exists(abth(P, D), T, 1) :- adm(P, D, T).
window(abth(P, D), 48).
exists_pers(hyperglyc(P), T, 1) :- lab(P, T).
meta ontherapy(P, I, L) :- abth(P, D, I, L).
"""


@pytest.fixture
def np_tes():
    return parse_tes(TWO_LEVEL_NONPERSISTENT)


@pytest.fixture
def pers_tes():
    return parse_tes(TWO_LEVEL_PERSISTENT)


@pytest.fixture
def empty_dataset():
    return Dataset([])


@pytest.fixture
def therapy_tes():
    return parse_tes(THERAPY_RULES)


def make_timepoints(exists_raw, ends_raw):
    """An instance's (existence pairs, termination pairs) from per-level raw
    sets: the timepoints in `exists_raw[i]` exist at level i + 1."""
    return tuple(frozenset((t, lvl) for lvl, raw in enumerate(side, 1) for t in raw)
                 for side in (exists_raw, ends_raw))


def random_timepoint_config(rng: random.Random, max_points=14, max_levels=3,
                            horizon=20):
    """Random cumulative timepoint configuration plus a window."""
    levels = rng.randint(1, max_levels)
    n = rng.randint(1, max_points)
    points = rng.sample(range(horizon), min(n, horizon))
    exists_raw, ends_raw = [], []
    for _ in range(levels):
        exists_raw.append({p for p in points if rng.random() < 0.45})
        ends_raw.append({p for p in points if rng.random() < 0.25})
    if not any(exists_raw):
        exists_raw[0].add(rng.choice(points))
    w = rng.choice((1, 2, 3))
    return exists_raw, ends_raw, w


# constraint-free rule set for tests that supply fact sets directly
PLAIN_TES = parse_tes(
    "decl nonpersistent e/1.\nexists(e(x), 0, 1).\nwindow(e(X), 1).")


def random_fact_set(rng: random.Random, max_facts=12, max_levels=3, horizon=12):
    """Random annotated event facts over a couple of instances; conflicts
    arise naturally from overlapping intervals on the same instance."""
    from timeloom import STAR, AnnotatedEventFact, Interval

    n = rng.randint(1, max_facts)
    facts = set()
    while len(facts) < n:
        pred = rng.choice(("e", "f"))
        args = (rng.choice(("a", "b")),)
        start = rng.randrange(horizon)
        if rng.random() < 0.15:
            end = STAR
        else:
            end = start + rng.randrange(4)
        level = rng.randint(1, max_levels)
        facts.add(AnnotatedEventFact(pred, args, Interval(start, end), level))
    return frozenset(facts)


# constraint kinds for random_ruleful_instance(varied_constraints=True); the
# dataset holds flag(on) and a few mark observations, never flag(off)
VARIED_CONSTRAINTS = (
    # one event atom beside a data atom: edges of size 1
    ("constraint :- e([T, _]), mark(T).",),
    # the default two-atom constraint
    ("constraint :- e([T, T2]), p([T, T3]).",),
    # three event atoms: edges of size 3 (or 2 when an e fact repeats)
    ("constraint :- e([T1, _]), p([T2, _]), e([T3, _]), T1 < T2, T2 < T3.",),
    # over meta events built by a positive join, one or two strata deep
    ("meta m(inter(I, J), max(L1, L2)) :- e(I, L1), p(J, L2).",
     "constraint :- m([T, _]), T < 5."),
    ("meta m(inter(I, J), max(L1, L2)) :- e(I, L1), p(J, L2).",
     "meta n(inter(I, J), L1) :- m(I, L1), e(J, _).",
     "constraint :- n([T1, T2]), T1 < T2."),
    # never fires
    ("constraint :- e([T, _]), flag(off).",),
    # data only, always fires: no repair at all
    ("constraint :- flag(on).",),
)


def random_ruleful_instance(rng: random.Random, allow_constraints=True,
                            end_levels=(1, 2, 3), extra=(),
                            varied_constraints=False):
    """A (dataset, tes) pair with ground simple-event rules and sometimes a
    positive-only (monotone) constraint. With `varied_constraints` it
    always has one monotone constraint drawn from VARIED_CONSTRAINTS, and
    the declarations and data those use."""
    lines = ["decl nonpersistent e/0.", "decl persistent p/0."]
    horizon = 10
    for _ in range(rng.randint(1, 7)):
        lines.append(f"exists(e, {rng.randrange(horizon)}, {rng.randint(1, 3)}).")
    for _ in range(rng.randint(0, 3)):
        lines.append(f"ends(e, {rng.randrange(horizon)}, {rng.choice(end_levels)}).")
    lines.append(f"window(e, {rng.choice((1, 2, 3))}).")
    for _ in range(rng.randint(0, 4)):
        lines.append(f"exists_pers(p, {rng.randrange(horizon)}, {rng.randint(1, 3)}).")
    for _ in range(rng.randint(0, 2)):
        lines.append(f"ends(p, {rng.randrange(horizon)}, {rng.choice(end_levels)}).")
    facts = []
    if varied_constraints:
        lines += ["decl atemporal flag/1.", "decl observation mark/0.",
                  "decl meta m/0.", "decl meta n/0."]
        lines.extend(rng.choice(VARIED_CONSTRAINTS))
        facts.append(AtemporalFact("flag", ("on",)))
        facts += [ObservationFact("mark", (), rng.randrange(horizon))
                  for _ in range(rng.randint(0, 2))]
    elif allow_constraints and rng.random() < 0.5:
        # positive-only: an e and a p interval may not start together
        lines.append("constraint :- e([T, T2]), p([T, T3]).")
    lines.extend(extra)
    return Dataset(facts), parse_tes("\n".join(lines))


def counting_derivations(monkeypatch) -> list:
    """The facts each call of `meta.derived` is given, in call order; a run
    of several models under monotone rules derives the core's closure
    first, then each kept result's."""
    from timeloom import meta

    given = []
    derived = meta.derived
    monkeypatch.setattr(meta, "derived", lambda firings, facts: given.append(facts) or derived(
        firings, facts))
    return given


def random_guard_instance(rng: random.Random, max_facts=12):
    """An instance with a single preferred repair: no domain constraints and
    termination knowledge only at the strongest level.  Returns (se, tes)."""
    from timeloom import infer_all_simple

    while True:
        dataset, tes = random_ruleful_instance(
            rng, allow_constraints=False, end_levels=(1,))
        se = infer_all_simple(dataset, tes)
        if 1 <= len(se) <= max_facts:
            return se, tes


# meta rules for random_program over its events e/1 and p/1: a positive
# join, a negated event atom, extremum tests, and an interval relation
PROGRAM_META = (
    "meta m(P, inter(I, J), max(L1, L2)) :- e(P, I, L1), p(P, J, L2).",
    "meta m(P, I, L) :- e(P, I, L), not p(P, _, _).",
    "meta m(P, [T, T2], L) :- e(P, [T, T2], L), start(e(P), T).",
    "meta m(P, [T1, T], L) :- p(P, [T1, T], L), end(p(P), T).",
    "meta m(P, I, L) :- e(P, I, L), p(P, J, _), during(I, J).",
)
# a second stratum over m, positive or through negation
PROGRAM_META_2 = (
    "meta n(P, I, L) :- m(P, I, L), p(P, _, _).",
    "meta n(P, I, L) :- p(P, I, L), not m(P, _, _).",
)
# constraints over simple events (one beside an observation), over meta
# events, and negating an event, each with the meta predicate it names
PROGRAM_CONSTRAINTS = (
    (None, "constraint :- e(P, [T, _]), p(P, [T, _])."),
    (None, "constraint :- p(P, [T, _]), ps(P, T), e(P, [T2, _]), T2 < T."),
    ("m", "constraint :- m(P, [T, _]), T < 4."),
    ("n", "constraint :- n(P, I)."),
    (None, "constraint :- e(P, [T, _]), not p(P, [T, _])."),
    ("m", "constraint :- p(P, I), not m(P, _)."),
)


def random_program(rng: random.Random, horizon=8):
    """A (dataset, tes) pair of a whole rule program: per entity, start and
    end evidence for a non-persistent event e and a persistent event p from
    observations, each read at one or two random levels; up to two meta
    rules over e and p, half of the time under a second stratum; and up to
    two constraints over predicates the program derives."""
    lines = ["decl observation es/1.", "decl observation ee/1.", "decl observation ps/1.",
             "decl observation pe/1.", "decl nonpersistent e/1.", "decl persistent p/1.",
             "decl meta m/1.", "decl meta n/1.", f"window(e(P), {rng.randint(1, 3)})."]
    for obs, head in (("es", "exists(e(P), T, {})"), ("ee", "ends(e(P), T, {})"),
                      ("ps", "exists_pers(p(P), T, {})"), ("pe", "ends(p(P), T, {})")):
        lines += [head.format(level) + f" :- {obs}(P, T)."
                  for level in rng.sample((1, 2, 3), rng.randint(1, 2))]
    meta = rng.sample(PROGRAM_META, rng.randint(0, 2))
    if meta and rng.random() < 0.5:
        meta.append(rng.choice(PROGRAM_META_2))
    derived = {None} | {rule[len("meta ")] for rule in meta}  # m or n
    usable = [c for needs, c in PROGRAM_CONSTRAINTS if needs in derived]
    lines += meta + rng.sample(usable, rng.randint(0, 2))
    facts = [ObservationFact(pred, (entity,), rng.randrange(horizon))
             for entity in rng.sample("ab", rng.randint(1, 2))
             for pred in ("es", "ee", "ps", "pe") for _ in range(rng.randint(0, 2))]
    return Dataset(facts), parse_tes("\n".join(lines))
