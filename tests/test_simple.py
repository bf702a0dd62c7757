"""Simple-event inference: worked two-level example, edge shapes, and
agreement between the constructive engine and the item-by-item checker."""

import random
from time import perf_counter

from hypothesis import given, settings
from hypothesis import strategies as st

from timeloom import (
    STAR,
    AnnotatedEventFact,
    Interval,
    ground_simple_heads,
    infer_all_simple,
    infer_nonpersistent,
    infer_persistent,
    level_timepoints,
)

from conftest import make_timepoints, random_timepoint_config
from oracle import candidate_intervals, oracle_check_interval


def iv(a, b):
    return Interval(a, b)


FIG_EXISTS = [{2, 4, 9}, {1, 5, 6, 10}]
FIG_ENDS = [{7, 8}]
FIG_TP = make_timepoints(FIG_EXISTS, FIG_ENDS)


def test_two_level_nonpersistent_exact():
    got = infer_nonpersistent(FIG_TP, w=2)
    assert got == {
        (iv(2, 4), 1), (iv(9, 9), 1),
        (iv(1, 7), 2), (iv(9, 10), 2),
    }


def test_two_level_persistent_exact():
    got = infer_persistent(FIG_TP)
    assert got == {
        (iv(2, 7), 1), (iv(9, STAR), 1),
        (iv(1, 7), 2),
    }


def test_per_level_views_reexpand():
    """Running one level alone reproduces that level's full view; the stacked
    run only suppresses exact duplicates from stronger levels."""
    view_np = {1: {iv(2, 4), iv(9, 9)}, 2: {iv(1, 7), iv(9, 10)}}
    view_pers = {1: {iv(2, 7), iv(9, STAR)}, 2: {iv(1, 7), iv(9, STAR)}}
    stacked_np = infer_nonpersistent(FIG_TP, w=2)
    stacked_pers = infer_persistent(FIG_TP)
    for lvl in (1, 2):
        solo = make_timepoints([set().union(*FIG_EXISTS[:lvl])],
                               [set().union(*FIG_ENDS[:lvl])])
        assert {i for i, _ in infer_nonpersistent(solo, w=2)} == view_np[lvl]
        assert {i for i, _ in infer_persistent(solo)} == view_pers[lvl]
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
    assert infer_nonpersistent(lone, w=2) == {(iv(5, 5), 1)}
    assert infer_persistent(lone) == {(iv(5, STAR), 1)}
    closed = make_timepoints([{1}], [{1}])
    assert infer_nonpersistent(closed, w=2) == {(iv(1, 1), 1)}
    assert infer_persistent(closed) == {(iv(1, 1), 1)}
    ends_only = make_timepoints([set()], [{3}])
    assert infer_nonpersistent(ends_only, w=2) == set()
    assert infer_persistent(ends_only) == set()


def test_window_chaining():
    chain = make_timepoints([{1, 2, 3}], [])
    assert infer_nonpersistent(chain, w=1) == {(iv(1, 3), 1)}
    gapped = make_timepoints([{1, 3}], [])
    assert infer_nonpersistent(gapped, w=1) == {(iv(1, 1), 1), (iv(3, 3), 1)}
    assert infer_nonpersistent(gapped, w=2) == {(iv(1, 3), 1)}


def test_termination_closes_nonpersistent():
    tp = make_timepoints([{1}], [{2}])
    assert infer_nonpersistent(tp, w=3) == {(iv(1, 2), 1)}
    # first termination wins even inside the window
    tp2 = make_timepoints([{1, 4}], [{2, 5}])
    assert infer_nonpersistent(tp2, w=3) == {(iv(1, 2), 1), (iv(4, 5), 1)}


def test_persistent_inference_is_linear_in_episodes():
    """Each of 4000 disjoint episodes has two existence points before its
    termination; only the earlier one starts a maximal interval."""
    n = 4000
    tp = make_timepoints([{10 * i for i in range(n)} | {10 * i + 2 for i in range(n)}],
                         [{10 * i + 5 for i in range(n)}])
    t0 = perf_counter()
    got = infer_persistent(tp)
    took = perf_counter() - t0
    assert got == {(iv(10 * i, 10 * i + 5), 1) for i in range(n)}
    assert took < 1.0, f"{took:.2f} s for {n} episodes"


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
    got_np = infer_nonpersistent(tp, w)
    got_p = infer_persistent(tp)
    for persistent, got in ((False, got_np), (True, got_p)):
        expected = set()
        for interval in candidate_intervals(tp, persistent):
            for lvl in range(1, tp.max_level + 1):
                if oracle_check_interval(persistent, tp, interval, lvl,
                                         w=None if persistent else w):
                    expected.add((interval, lvl))
        assert got == expected
