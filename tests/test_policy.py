"""Selection tests: exploration schedule membership, round-robin
rotation with declared processes skipped, closed-loop argmax selection
from the incrementally updated ranking, and the open-loop ordering."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqscan.policy import (
    PolicyState,
    exploration_schedule,
    is_exploration_instant,
    ol_order,
    round_robin_next,
    round_robin_next_multi,
    select_cl,
)


def idx(*values, inactive=()):
    return [0.0 if i + 1 in inactive else float(v) for i, v in enumerate(values)]


def ranked(values, m=1, active=None, rr_cursor=None):
    """A policy state over len(values) ids ranked by values; ids outside
    ``active`` are declared, and ``rr_cursor`` overrides the fresh cursor."""
    s = PolicyState.fresh(values, m=m)
    for pid in range(1, len(values) + 1):
        if active is not None and pid not in active:
            s.declare(pid)
    if rr_cursor is not None:
        s.rr_cursor = rr_cursor
    return s


def test_schedule_head_for_default_zeta():
    sched = exploration_schedule(1.7)
    members = [n for n in range(1, 26) if is_exploration_instant(sched, n)]
    assert members == [2, 3, 5, 9, 15, 25]


def test_schedule_sentinel_never_explores():
    sched = exploration_schedule(math.inf)
    assert not any(is_exploration_instant(sched, n) for n in range(1, 2000))


def test_schedule_near_one_is_dense_early():
    sched = exploration_schedule(1.005)
    # consecutive integers until the geometric gaps exceed 1
    assert all(is_exploration_instant(sched, n) for n in range(2, 100))


def test_schedule_rejects_bad_arguments():
    with pytest.raises(ValueError):
        exploration_schedule(1.0)
    with pytest.raises(ValueError):
        exploration_schedule(0.5)
    with pytest.raises(ValueError):
        is_exploration_instant(exploration_schedule(1.7), 0)


def test_schedule_large_n_stays_cheap():
    sched = exploration_schedule(1.01)
    assert is_exploration_instant(sched, 1_000_000) in (True, False)
    assert len(sched._instants) < 3000


def test_round_robin_wrapped_successors():
    s = ranked(idx(0, 0, 0), active={1, 2, 3}, rr_cursor=1)
    assert round_robin_next(s, 3) == 2

    s = ranked(idx(0, 0, 0), active={1, 3}, rr_cursor=1)  # process 2 declared
    assert round_robin_next(s, 3) == 3

    s = ranked(idx(0, 0, 0), active={1}, rr_cursor=1)  # wraps all the way around
    assert round_robin_next(s, 3) == 1

    s = ranked(idx(0, 0, 0), active=set(), rr_cursor=1)
    with pytest.raises(ValueError):
        round_robin_next(s, 3)


def test_round_robin_first_instant_starts_at_one():
    s = PolicyState.fresh(idx(0, 0, 0, 0, 0))
    assert round_robin_next(s, 5) == 1
    assert round_robin_next(s, 5) == 2


def test_round_robin_multi_examples():
    s = ranked(idx(0, 0, 0, 0), m=2, active={1, 2, 3, 4}, rr_cursor=4)
    assert round_robin_next_multi(s, 4, 2) == (1, 2)
    assert s.rr_cursor == 2

    s = ranked(idx(0, 0, 0, 0), m=2, active={3}, rr_cursor=4)
    assert round_robin_next_multi(s, 4, 2) == (3,)

    s = ranked(idx(0, 0, 0, 0), m=4, active={1, 2, 3, 4}, rr_cursor=4)
    assert round_robin_next_multi(s, 4, 4) == (1, 2, 3, 4)

    s = PolicyState.fresh(idx(0, 0, 0, 0, 0, 0), m=3)
    assert round_robin_next_multi(s, 6, 3) == (1, 2, 3)


def test_select_cl_argmax_and_ties():
    sched = exploration_schedule(math.inf)
    s = ranked(idx(0.3, 0.1, 0.7))
    assert select_cl(s, n=1, sched=sched) == (3,)

    s = ranked(idx(0.3, 0.1, 0.7), m=2)
    assert select_cl(s, n=1, sched=sched) == (3, 1)

    s = ranked(idx(0.1, 0.5, 0.2, 0.5))
    assert select_cl(s, n=1, sched=sched) == (2,)


def test_select_cl_exploration_instant_rotates():
    sched = exploration_schedule(1.7)
    s = ranked(idx(0.3, 0.1, 0.7))
    assert select_cl(s, n=2, sched=sched) == (1,)
    assert select_cl(s, n=3, sched=sched) == (2,)
    # non-exploration instant in between goes back to the argmax
    assert select_cl(s, n=4, sched=sched) == (3,)


def test_select_cl_empty_and_small_active_sets():
    sched = exploration_schedule(math.inf)
    s = ranked(idx(0.3, 0.1, 0.7), m=2, active=set())
    assert select_cl(s, n=5, sched=sched) == ()

    s = ranked(idx(0.3, 0.1, 0.7), m=2, active={2})
    assert select_cl(s, n=5, sched=sched) == (2,)


def test_declared_processes_are_never_selected():
    rng = np.random.default_rng(29)
    sched = exploration_schedule(1.7)
    s = PolicyState.fresh(idx(*([0] * 6)), m=2)
    declared = set()
    for n in range(1, 300):
        if not s.active:
            break
        values = idx(*rng.uniform(0.0, 1.0, size=6), inactive=declared)
        for pid in s.active:
            s.rerank(pid, values[pid - 1])
        picks = select_cl(s, n=n, sched=sched)
        assert declared.isdisjoint(picks)
        assert len(picks) == min(2, len(s.active))
        if rng.random() < 0.05:
            victim = int(rng.choice(sorted(s.active)))
            s.declare(victim)
            declared.add(victim)


def test_selection_is_argmax_consistent_off_exploration():
    rng = np.random.default_rng(37)
    sched = exploration_schedule(math.inf)
    for _ in range(100):
        k = int(rng.integers(2, 8))
        m = int(rng.integers(1, k + 1))
        values = idx(*rng.uniform(0.0, 1.0, size=k))
        s = ranked(values, m=m)
        picks = select_cl(s, n=7, sched=sched)
        unpicked = s.active - set(picks)
        if unpicked:
            assert min(values[p - 1] for p in picks) >= max(values[q - 1] for q in unpicked)


def test_exploration_visits_are_fair():
    # with no declarations, rotation spreads exploration instants evenly:
    # every process gets at least floor(instants/K) - 1 visits
    sched = exploration_schedule(1.7)
    k = 5
    s = ranked(idx(*([0.5] * k)))
    visits = {pid: 0 for pid in range(1, k + 1)}
    instants = 0
    for n in range(1, 3000):
        if is_exploration_instant(sched, n):
            instants += 1
            (pick,) = select_cl(s, n=n, sched=sched)
            visits[pick] += 1
    assert instants > 0
    floor_share = instants // k
    assert all(v >= floor_share - 1 for v in visits.values())


VALUES = st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0])


@settings(max_examples=200, deadline=None)
@given(
    initial=st.lists(VALUES, min_size=1, max_size=12),
    data=st.data(),
)
def test_ranking_matches_full_sort_under_updates(initial, data):
    # a small value set makes ties (0.0 among them) common; after every
    # rerank or declaration the ranking's first m ids are a full sort's
    k = len(initial)
    m = data.draw(st.integers(1, k), label="m")
    s = PolicyState.fresh(initial, m=m)
    indices = list(initial)
    active = set(range(1, k + 1))
    sched = exploration_schedule(math.inf)
    steps = data.draw(
        st.lists(st.tuples(st.booleans(), st.integers(1, k), VALUES), max_size=40), label="steps"
    )
    for is_declare, pid, value in steps:
        if is_declare:
            s.declare(pid)
            active.discard(pid)
            indices[pid - 1] = 0.0
        elif pid in active:
            s.rerank(pid, value)
            indices[pid - 1] = value
        else:
            with pytest.raises(ValueError, match="not active"):
                s.rerank(pid, value)
        expected = sorted(active, key=lambda q: (-indices[q - 1], q))
        assert set(s.active) == active
        assert s.top(m) == tuple(expected[:m])
        assert select_cl(s, n=1, sched=sched) == tuple(expected[:m])
    if active:
        pid = min(active)
        before = s.top(k)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                s.rerank(pid, bad)
        assert s.top(k) == before
    with pytest.raises(ValueError, match="finite"):
        PolicyState.fresh([math.nan] * k)


def test_ol_order_examples():
    assert ol_order([0.5, 0.5, 0.5], [1.0, 3.0, 2.0], [4.0, 4.0, 4.0]) == (2, 3, 1)
    assert ol_order([0.9, 0.1], [5.0, 5.0], [3.0, 3.0]) == (1, 2)
    assert ol_order([0.5, 0.5], [10.0, 20.0], [5.0, 20.0]) == (1, 2)
    # ties break to the lowest id
    assert ol_order([0.5, 0.5], [2.0, 2.0], [4.0, 4.0]) == (1, 2)
    with pytest.raises(ValueError):
        ol_order([0.5], [1.0], [0.0])
    with pytest.raises(ValueError):
        ol_order([0.5, 0.5], [1.0], [1.0, 1.0])
