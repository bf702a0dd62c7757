"""Seeded workload generators with answers known by construction.

Each generator writes a rule file and a fact file and derives, from its own
interval arithmetic rather than from timeloom, what every mode must return.
A fact is the tuple (pred, args, start, end, level) with an ongoing end
written "*", the same shape the JSON output takes; a model is a frozenset of
such tuples holding its simple and meta facts together.

Workloads (see README.md for why each exists):

  ward   conflict-free clinical data, one repair; grounding, interval
         inference, meta closure and the all-pairs clash scans do the work
  clash  four instances of the two-level conflict pattern (4**4 repairs)
         beside conflict-free filler patients
  guard  a small ward plus one monotone constraint that fires for one
         patient-drug pair; exercises the constraint enumerator
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass

WINDOW = 24
ANTIBIOTICS = ("amox", "cefaz", "vanco", "pipt", "mero")
NOT_ANTIBIOTIC = "saline"
BLOCK = 1000  # episodes of one patient sit in separate blocks, far beyond WINDOW

BASE_RULES = f"""\
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
window(abth(P, D), {WINDOW}).
exists_pers(infect(P), T, 1) :- lab(P, T).
ends(infect(P), T, 1) :- labneg(P, T).
meta treated(P, D, inter([T1, T2], [T3, T4]), max(L1, L2)) :-
    abth(P, D, [T1, T2], L1), infect(P, [T3, T4], L2).
"""

# A level-2 termination rule: with it present the single-pass preferred
# construction does not apply and preferred mode enumerates every repair.
HOLD_RULES = """\
decl observation hold/2.
ends(abth(P, D), T, 2) :- hold(P, D, T).
"""

GUARD_RULES = """\
decl atemporal allergic/2.
constraint :- abth(P, D, [T1, T2]), allergic(P, D).
"""

# The README's two-level conflict pattern (window 2) scaled by 12 to the
# window of 24, with the level-2 evidence at 10 replaced by a level-2
# termination: level 1 derives [24,48] and [108,108], level 2 derives
# [12,84] and [108,120]. [24,48] starts inside [12,84] and [108,108] shares
# its start with [108,120], so each instance has two independent clashes
# and four repairs.
CLASH_OBS = (("adm", 24), ("adm", 48), ("adm", 108), ("note", 12), ("note", 60),
             ("note", 72), ("stop", 84), ("stop", 96), ("hold", 120))
CLASH_CHOICES = (((24, 48, 1), (12, 84, 2)), ((108, 108, 1), (108, 120, 2)))
CLASH_INSTANCES = 4

STAR = "*"

# Patients at scale 1. ward (about 3.3k input facts) and clash are sized so
# that a 35-second run holds ten or more passes of all five modes on a 2-core
# machine; guard keeps enough simple facts (29) that the constraint
# enumerator meets its cap.
WARD_PATIENTS = 80
CLASH_FILLER = 20
GUARD_PATIENTS = 5

# Per patient, one entry per episode (at most five episodes).
EPISODE_POINTS = (4, 6, 7, 8, 10)
EPISODE_LEVELS = (1, 1, 1, 2, 2)
EPISODE_STOPPED = (True, True, True, False, False)


@dataclass
class Workload:
    name: str
    rules: str
    facts: str
    n_facts: int
    expected: dict  # mode -> list of models
    check_kind: str
    check_facts: frozenset
    check_verdict: bool


def _rank(end) -> float:
    return float("inf") if end == STAR else float(end)


def meta_of(simple) -> set:
    """treated facts: each abth interval intersected with each infect
    interval of the same patient, at the weaker of the two levels."""
    infect: dict = {}
    for pred, args, s, e, lvl in simple:
        if pred == "infect":
            infect.setdefault(args[0], []).append((s, e, lvl))
    out = set()
    for pred, args, s, e, lvl in simple:
        if pred != "abth":
            continue
        for s2, e2, lvl2 in infect.get(args[0], ()):
            lo = max(s, s2)
            hi = e if _rank(e) <= _rank(e2) else e2
            if _rank(hi) >= lo:
                out.add(("treated", args, lo, hi, max(lvl, lvl2)))
    return out


def close(simple) -> frozenset:
    return frozenset(simple) | frozenset(meta_of(simple))


class _Facts:
    def __init__(self):
        self.lines: list[str] = []

    def obs(self, pred: str, *args) -> None:
        self.lines.append(f"obs {pred}({', '.join(str(a) for a in args)}).")

    def atemporal(self, pred: str, *args) -> None:
        self.lines.append(f"atemporal {pred}({', '.join(str(a) for a in args)}).")

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _patient(rng: random.Random, out: _Facts, i: int, p: str, episodes: int) -> set:
    """Patient number i: `episodes` therapy episodes in separate time blocks
    and one or two infection periods; returns the simple facts they must
    yield."""
    simple = set()
    # Episode shapes are drawn from fixed per-patient mixes and the rest
    # follows the patient number, so that input sizes, and with them run
    # times, barely differ between seeds.
    lengths = rng.sample(EPISODE_POINTS, episodes)
    levels = rng.sample(EPISODE_LEVELS, episodes)
    stops = rng.sample(EPISODE_STOPPED, episodes)
    saline = rng.randrange(episodes) if i % 2 and episodes > 1 else None  # no event
    for k in range(episodes):
        drug = NOT_ANTIBIOTIC if k == saline else rng.choice(ANTIBIOTICS)
        level = levels[k]
        t = k * BLOCK + rng.randint(0, 100)
        points = [t]
        for _ in range(lengths[k] - 1):
            t += rng.randint(1, WINDOW)
            points.append(t)
        for t in points:
            out.obs("adm" if level == 1 else "note", p, drug, t)
        end = points[-1]
        if stops[k]:
            end = points[-1] + rng.randint(1, WINDOW)
            out.obs("stop", p, drug, end)
        if drug != NOT_ANTIBIOTIC:
            simple.add(("abth", (p, drug), points[0], end, level))
    # infection: a positive lab, a second positive inside the same period
    # (contained, so it adds no interval), then a negative lab or none, and
    # for every third patient a second, ongoing infection
    start = rng.randint(0, BLOCK)
    out.obs("lab", p, start)
    out.obs("lab", p, start + rng.randint(1, BLOCK))
    end = STAR
    if i % 3:
        end = start + BLOCK + rng.randint(1, BLOCK)
        out.obs("labneg", p, end)
    simple.add(("infect", (p,), start, end, 1))
    if i % 3 == 2:
        again = end + rng.randint(1, BLOCK)
        out.obs("lab", p, again)
        simple.add(("infect", (p,), again, STAR, 1))
    return simple


def _header(out: _Facts) -> None:
    for d in ANTIBIOTICS:
        out.atemporal("ab", d)


def _ward(rng: random.Random, patients: int, name: str = "ward") -> Workload:
    out = _Facts()
    _header(out)
    simple = set()
    for i in range(patients):
        simple |= _patient(rng, out, i, f"p{i}", 5)
    model = close(simple)
    # check candidate: the one repair less one therapy fact; putting the
    # fact back stays consistent, so the candidate is not maximal
    dropped = rng.choice(sorted(f for f in simple if f[0] == "abth"))
    candidate = close(simple - {dropped})
    return Workload(name, BASE_RULES, out.text(), len(out.lines),
                    {m: [model] for m in ("naive", "consistent", "preferred", "cautious")},
                    "consistent", candidate, False)


def _clash(rng: random.Random, filler: int) -> Workload:
    out = _Facts()
    _header(out)
    shared = set()
    for i in range(filler):
        shared |= _patient(rng, out, i, f"f{i}", 1)
    contested = []  # per instance, per clash, the (level-1, level-2) pair
    for i in range(CLASH_INSTANCES):
        p, drug = f"c{i}", rng.choice(ANTIBIOTICS)
        base = rng.randint(0, BLOCK)
        for pred, t in CLASH_OBS:
            out.obs(pred, p, drug, base + t)
        start = base + rng.randint(0, 40)
        end = base + rng.randint(100, 130) if rng.random() < 0.7 else STAR
        out.obs("lab", p, start)
        if end != STAR:
            out.obs("labneg", p, end)
        shared.add(("infect", (p,), start, end, 1))
        for pair in CLASH_CHOICES:
            contested.append(tuple(("abth", (p, drug), base + s, base + e, lvl)
                                   for s, e, lvl in pair))
    repairs = [close(shared | set(pick)) for pick in itertools.product(*contested)]
    strongest = close(shared | {pair[0] for pair in contested})
    return Workload(
        "clash", BASE_RULES + HOLD_RULES, out.text(), len(out.lines),
        {"naive": [close(shared | {f for pair in contested for f in pair})],
         "consistent": repairs,
         "preferred": [strongest],
         "cautious": [close(shared)]},
        "preferred", strongest, True)


def _guard(rng: random.Random, patients: int) -> Workload:
    w = _ward(rng, patients, "guard")
    simple = {f for f in w.expected["naive"][0] if f[0] != "treated"}
    # The first patient-drug pair with a single therapy fact: the fact sorts
    # first, so the enumerator's search tree has the same shape for every seed.
    counts = Counter(f[1] for f in simple if f[0] == "abth")
    p, d = min([pair for pair, n in counts.items() if n == 1] or counts)
    w.facts += f"atemporal allergic({p}, {d}).\n"
    w.n_facts += 1
    w.rules = BASE_RULES + GUARD_RULES
    kept = close({f for f in simple if not (f[0] == "abth" and f[1] == (p, d))})
    for mode in ("consistent", "preferred", "cautious"):
        w.expected[mode] = [kept]
    w.check_facts, w.check_verdict = kept, True
    return w


NAMES = ("ward", "clash", "guard")


def generate(name: str, seed: int, scale: float = 1.0) -> Workload:
    """Build workload `name` from `seed`; `scale` multiplies the number of
    patients (for clash, of filler patients: the four contested instances
    stay, so the repair count stays 256)."""
    rng = random.Random(f"{name}/{seed}")
    if name == "ward":
        return _ward(rng, max(1, round(WARD_PATIENTS * scale)))
    if name == "clash":
        return _clash(rng, max(1, round(CLASH_FILLER * scale)))
    if name == "guard":
        return _guard(rng, max(1, round(GUARD_PATIENTS * scale)))
    raise ValueError(f"unknown workload {name!r}")
