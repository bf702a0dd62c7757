"""Simple-event inference: worked two-level example, edge shapes, and
agreement between the constructive engine and the item-by-item checker."""

import itertools
import random
from collections import Counter
from time import perf_counter

from hypothesis import given, settings
from hypothesis import strategies as st

from timeloom import (
    STAR,
    AnnotatedEventFact,
    Dataset,
    Interval,
    InvalidSpec,
    ground_simple_heads,
    infer_all_simple,
    infer_nonpersistent,
    infer_persistent,
    parse_fact_text,
    parse_tes,
)
from timeloom.simple import infer_from_aux

from conftest import make_timepoints, random_program, random_timepoint_config
from oracle import (
    candidate_intervals,
    max_level,
    oracle_check_interval,
    oracle_infer,
    window_values,
)
from walk_configs import disagreement, random_config


def iv(a, b):
    return Interval(a, b)


FIG_EXISTS = [{2, 4, 9}, {1, 5, 6, 10}]
FIG_ENDS = [{7, 8}]
FIG_TP = make_timepoints(FIG_EXISTS, FIG_ENDS)


def test_two_level_nonpersistent_exact():
    got = infer_nonpersistent(*FIG_TP, w=2)
    assert got == {
        (iv(2, 4), 1), (iv(9, 9), 1),
        (iv(1, 7), 2), (iv(9, 10), 2),
    }


def test_two_level_persistent_exact():
    got = infer_persistent(*FIG_TP)
    assert got == {
        (iv(2, 7), 1), (iv(9, STAR), 1),
        (iv(1, 7), 2),
    }


def test_per_level_views_reexpand():
    """Running one level alone reproduces that level's full view; the stacked
    run only suppresses exact duplicates from stronger levels."""
    view_np = {1: {iv(2, 4), iv(9, 9)}, 2: {iv(1, 7), iv(9, 10)}}
    view_pers = {1: {iv(2, 7), iv(9, STAR)}, 2: {iv(1, 7), iv(9, STAR)}}
    stacked_np = infer_nonpersistent(*FIG_TP, w=2)
    stacked_pers = infer_persistent(*FIG_TP)
    for lvl in (1, 2):
        solo = make_timepoints([set().union(*FIG_EXISTS[:lvl])],
                               [set().union(*FIG_ENDS[:lvl])])
        assert {i for i, _ in infer_nonpersistent(*solo, w=2)} == view_np[lvl]
        assert {i for i, _ in infer_persistent(*solo)} == view_pers[lvl]
        # stacked output at lvl plus duplicates carried from stronger levels
        assert {i for i, l in stacked_np if l == lvl} == view_np[lvl] - {
            i for i, l in stacked_np if l < lvl}
        assert {i for i, l in stacked_pers if l == lvl} == view_pers[lvl] - {
            i for i, l in stacked_pers if l < lvl}


def test_infer_all_simple_wraps_facts(np_tes, empty_dataset):
    got = infer_all_simple(empty_dataset, np_tes)
    assert got == frozenset({
        AnnotatedEventFact("e", (), iv(2, 4), 1),
        AnnotatedEventFact("e", (), iv(9, 9), 1),
        AnnotatedEventFact("e", (), iv(1, 7), 2),
        AnnotatedEventFact("e", (), iv(9, 10), 2),
    })


def test_infer_all_simple_persistent(pers_tes, empty_dataset):
    got = infer_all_simple(empty_dataset, pers_tes)
    assert {(f.interval, f.level) for f in got} == {
        (iv(2, 7), 1), (iv(9, STAR), 1), (iv(1, 7), 2)}


def test_checker_frozen_examples():
    assert oracle_check_interval(False, FIG_TP, iv(2, 4), 1, w=2)
    assert not oracle_check_interval(False, FIG_TP, iv(2, 4), 2, w=2)
    assert not oracle_check_interval(False, FIG_TP, iv(9, 9), 2, w=2)
    assert oracle_check_interval(False, FIG_TP, iv(9, 10), 2, w=2)
    assert not oracle_check_interval(False, FIG_TP, iv(9, STAR), 1, w=2)
    assert oracle_check_interval(True, FIG_TP, iv(2, 7), 1)
    assert not oracle_check_interval(True, FIG_TP, iv(1, 7), 1)
    assert oracle_check_interval(True, FIG_TP, iv(1, 7), 2)
    assert oracle_check_interval(True, FIG_TP, iv(9, STAR), 1)
    # valid at level 2 as well, but already reported at level 1
    assert not oracle_check_interval(True, FIG_TP, iv(9, STAR), 2)


def test_single_point_shapes():
    lone = make_timepoints([{5}], [])
    assert infer_nonpersistent(*lone, w=2) == {(iv(5, 5), 1)}
    assert infer_persistent(*lone) == {(iv(5, STAR), 1)}
    closed = make_timepoints([{1}], [{1}])
    assert infer_nonpersistent(*closed, w=2) == {(iv(1, 1), 1)}
    assert infer_persistent(*closed) == {(iv(1, 1), 1)}
    ends_only = make_timepoints([set()], [{3}])
    assert infer_nonpersistent(*ends_only, w=2) == set()
    assert infer_persistent(*ends_only) == set()


def test_window_chaining():
    chain = make_timepoints([{1, 2, 3}], [])
    assert infer_nonpersistent(*chain, w=1) == {(iv(1, 3), 1)}
    gapped = make_timepoints([{1, 3}], [])
    assert infer_nonpersistent(*gapped, w=1) == {(iv(1, 1), 1), (iv(3, 3), 1)}
    assert infer_nonpersistent(*gapped, w=2) == {(iv(1, 3), 1)}


def test_termination_closes_nonpersistent():
    tp = make_timepoints([{1}], [{2}])
    assert infer_nonpersistent(*tp, w=3) == {(iv(1, 2), 1)}
    # first termination wins even inside the window
    tp2 = make_timepoints([{1, 4}], [{2, 5}])
    assert infer_nonpersistent(*tp2, w=3) == {(iv(1, 2), 1), (iv(4, 5), 1)}


def test_persistent_inference_is_linear_in_episodes():
    """Each of 4000 disjoint episodes has two existence points before its
    termination; only the earlier one starts a maximal interval."""
    n = 4000
    tp = make_timepoints([{10 * i for i in range(n)} | {10 * i + 2 for i in range(n)}],
                         [{10 * i + 5 for i in range(n)}])
    t0 = perf_counter()
    got = infer_persistent(*tp)
    took = perf_counter() - t0
    assert got == {(iv(10 * i, 10 * i + 5), 1) for i in range(n)}
    assert took < 1.0, f"{took:.2f} s for {n} episodes"


# a persistent event existing at 2, one running from its start until a stop,
# and a non-persistent one chaining two starts that a stop closes; the stops
# and the first event carry the level under test
HIGH_LEVEL_RULES = """\
decl observation begin/1.
decl observation stop/1.
decl persistent e/0.
decl persistent p/1.
decl nonpersistent n/1.
exists_pers(e, 2, {level}).
exists_pers(p(X), T, 1) :- begin(X, T).
ends(p(X), T, {level}) :- stop(X, T).
exists(n(X), T, 1) :- begin(X, T).
window(n(X), 10).
ends(n(X), T, {level}) :- stop(X, T).
"""

HIGH_LEVEL_FACTS = "obs begin(a, 1).\nobs begin(a, 3).\nobs stop(a, 6).\n"


def test_a_level_of_a_billion_costs_what_level_two_costs():
    """Inference walks the levels some evidence names, not every level up
    to the largest, so level 10**9 derives level 2's facts, relabelled."""
    data = Dataset(parse_fact_text(HIGH_LEVEL_FACTS))
    got = {}
    for level in (2, 10**9):
        t0 = perf_counter()
        got[level] = infer_all_simple(data, parse_tes(HIGH_LEVEL_RULES.format(level=level)))
        took = perf_counter() - t0
        assert took < 2.0, f"{took:.2f} s at level {level}"
    top = 10**9
    assert got[top] == {
        AnnotatedEventFact("e", (), iv(2, STAR), top),
        AnnotatedEventFact("p", ("a",), iv(1, STAR), 1),
        AnnotatedEventFact("p", ("a",), iv(1, 6), top),
        AnnotatedEventFact("n", ("a",), iv(1, 3), 1),
        AnnotatedEventFact("n", ("a",), iv(1, 6), top),
    }
    assert got[2] == {AnnotatedEventFact(f.pred, f.args, f.interval,
                                         2 if f.level == top else f.level)
                      for f in got[top]}


def test_gapped_levels_match_checker():
    """Evidence at levels 1, 4 and 9 only: the levels between repeat the
    named level below them, and inference agrees with the checker, which
    walks every level."""
    rng = random.Random(41)
    for _ in range(300):
        points = range(rng.randint(3, 14))
        # a timepoint may be named at several levels
        exists = {(t, lvl) for t in points for lvl in (1, 4, 9) if rng.random() < 0.15} or {(0, 4)}
        ends = {(t, lvl) for t in points for lvl in (1, 4, 9) if rng.random() < 0.08}
        tp = (exists, ends)
        w = rng.choice((1, 2, 3))
        for window in (w, len(points) + 1, 10 ** 9):  # the drawn one, and gaps none breaks
            assert infer_nonpersistent(exists, ends, window) == oracle_infer(tp, False, window)
        assert infer_persistent(exists, ends) == oracle_infer(tp, True)


def test_timepoints_past_the_float_range():
    # a natural may have 4,300 digits, far past any float: the walk compares
    # such a timepoint with STAR but never subtracts it from STAR
    big = 10 ** 4299
    for ends in ([{big + 5}], [set()]):
        tp = make_timepoints([{big, big + 1}], ends)
        for w in (1, 2, 10, 10 ** 9):
            assert infer_nonpersistent(*tp, w) == oracle_infer(tp, False, w)
        assert infer_persistent(*tp) == oracle_infer(tp, True)
    assert infer_persistent(*tp) == {(iv(big, STAR), 1)}


def test_random_configurations_match_the_oracle():
    """A tier-1 share of the CI step's differential: timepoints named at
    several levels, gapped levels, points past the float range, and finite
    and STAR windows."""
    rng = random.Random(26)
    for i in range(500):
        assert disagreement(*random_config(rng)) is None, f"configuration {i}"


def test_grounded_instances_match_the_oracle():
    """Every instance that grounding groups from 500 random whole programs
    gives the oracle's intervals on the same pairs."""
    rng = random.Random(26)
    instances = with_ends = 0
    for _ in range(500):
        dataset, tes = random_program(rng)
        aux = ground_simple_heads(tes, dataset)
        for key in aux.keys():
            tp = aux.exists[key], aux.ends.get(key, ())
            if key[0] == "p":
                assert infer_nonpersistent(*tp, STAR) == oracle_infer(tp, True)
            else:
                (w,) = window_values(aux, key)
                assert infer_nonpersistent(*tp, w) == oracle_infer(tp, False, w)
            instances += 1
            with_ends += bool(tp[1])
    assert instances > 500 and with_ends > 200, (instances, with_ends)


# instance arguments in key order (numbers before symbols), each beside
# its rule text
WINDOW_ARGS = ((0, "0"), (7, "7"), ("B c", "'B c'"), ("a", "a"), ("b", "b"))


def _window_text(w):
    return "minus(1, 1)" if w == 0 else str(w)


def random_window_rules(rng):
    """Rule text with instances of several predicates, window rules per
    instance and per predicate (some of them zero), in shuffled order; and
    the error its least faulty instance in key order raises, read from the
    text, as (kind, key, message), or None."""
    decls = ["decl atemporal never/1.", "decl persistent p/1."]
    lines, faulty = ["exists_pers(p(a), 1, 1)."], []
    for pred, arity in (("e", 1), ("f", 1), ("h", 2)):
        head = f"{pred}({', '.join('XY'[:arity])})"
        decls.append(f"decl nonpersistent {pred}/{arity}.")
        # a window rule that derives nothing, as parsing wants one
        lines.append(f"window({head}, 1) :- {', '.join(f'never({v})' for v in 'XY'[:arity])}.")
        shared = rng.choices(range(4), k=rng.choice((0, 0, 1, 1, 1)))
        lines += [f"window({head}, {_window_text(w)})." for w in shared]
        combos = list(itertools.product(range(len(WINDOW_ARGS)), repeat=arity))
        for combo in rng.sample(combos, rng.randint(0, min(3, len(combos)))):
            text = f"{pred}({', '.join(WINDOW_ARGS[i][1] for i in combo)})"
            own = rng.choices(range(4), k=rng.choice((0, 0, 1, 1, 1)))
            lines += [f"window({text}, {_window_text(w)})." for w in own]
            if rng.random() < 0.2:
                continue  # window rules for an instance that never exists
            lines.append(f"exists({text}, {rng.randrange(5)}, 1).")
            ws = set(shared) | set(own)
            kind = ("MissingWindow" if not ws else "AmbiguousWindow" if len(ws) > 1
                    else "ZeroWindow" if 0 in ws else None)
            if kind:
                key = (pred, tuple(WINDOW_ARGS[i][0] for i in combo))
                faulty.append(((pred, combo), (kind, key, f"{kind} for {text}")))
    rng.shuffle(lines)
    return "\n".join(decls + lines), min(faulty)[1] if faulty else None


def test_window_faults_name_the_least_instance():
    """Of the instances whose window is missing, ambiguous or zero, the
    least in key order is named, whatever order grounding met them in."""
    rng = random.Random(30)
    kinds, unordered = Counter(), 0
    for i in range(2000):
        text, want = random_window_rules(rng)
        tes = parse_tes(text)
        aux = ground_simple_heads(tes, Dataset([]))
        try:
            infer_from_aux(aux, tes)
            got = None
        except InvalidSpec as err:
            got = (err.kind, err.key, str(err))
        assert got == want, (i, text)
        kinds[want and want[0]] += 1
        unordered += bool(want) and list(aux.exists) != aux.keys()
    assert min(kinds.values()) > 200 and len(kinds) == 4 and unordered > 500, (kinds, unordered)


def test_candidate_intervals_cover():
    cands_np = candidate_intervals(FIG_TP, persistent=False)
    cands_p = candidate_intervals(FIG_TP, persistent=True)
    assert iv(1, 7) in cands_np and iv(9, 10) in cands_np
    assert iv(9, STAR) in cands_p
    assert all(not c.ongoing for c in cands_np)


config_seeds = st.integers(min_value=0, max_value=10_000)


@settings(max_examples=120, deadline=None)
@given(config_seeds)
def test_constructive_matches_checker(seed):
    rng = random.Random(seed)
    exists_raw, ends_raw, w = random_timepoint_config(rng)
    tp = make_timepoints(exists_raw, ends_raw)
    got_np = infer_nonpersistent(*tp, w)
    got_p = infer_persistent(*tp)
    for persistent, got in ((False, got_np), (True, got_p)):
        expected = set()
        for interval in candidate_intervals(tp, persistent):
            for lvl in range(1, max_level(tp) + 1):
                if oracle_check_interval(persistent, tp, interval, lvl,
                                         w=None if persistent else w):
                    expected.add((interval, lvl))
        assert got == expected
    for wide in (21, 10 ** 9):  # past the drawn points' horizon of 20: no gap breaks a chain
        assert infer_nonpersistent(*tp, wide) == oracle_infer(tp, False, wide)
