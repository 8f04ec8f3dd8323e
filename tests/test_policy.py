"""Selection tests: the exploration instants against a step-by-step scan
of ceil(zeta^l), the round-robin rotation against a brute-force one with
declared processes skipped, closed-loop argmax selection from the
incrementally updated ranking, and the open-loop pre-data order."""

from __future__ import annotations

import math
import time
from itertools import takewhile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqscan.belief import expected_detection_time, index
from seqscan.engine import ProcessSpec, initial_priority
from seqscan.models import Poisson
from seqscan.policy import PolicyState, exploration_instants, rotation


def idx(*values, inactive=()):
    return [0.0 if i + 1 in inactive else float(v) for i, v in enumerate(values)]


def ranked(values, active=None, rr_cursor=None):
    """A policy state over len(values) ids ranked by values; ids outside
    ``active`` are declared, and ``rr_cursor`` overrides the fresh cursor."""
    s = PolicyState.fresh(values)
    for pid in range(1, len(values) + 1):
        if active is not None and pid not in active:
            s.declare(pid)
    if rr_cursor is not None:
        s.rr_cursor = rr_cursor
    return s


def instants_up_to(zeta, limit):
    return list(takewhile(lambda n: n <= limit, exploration_instants(zeta)))


def ceil_powers(zeta, limit):
    """The instants ceil(zeta^l) up to limit, one exponent at a time."""
    instants, exponent = [0], 1
    while not math.isinf(zeta) and math.ceil(zeta**exponent) <= limit:
        if math.ceil(zeta**exponent) > instants[-1]:
            instants.append(math.ceil(zeta**exponent))
        exponent += 1
    return instants[1:]


def brute_rotation(k, active, cursor, m):
    """The first m active ids in the order cursor + 1, ..., K, 1, ..., cursor."""
    return tuple(sorted(active, key=lambda pid: (pid - cursor - 1) % k)[:m])


def select(state, n, explores, m):
    """Closed-loop selection at instant n as ``run_episode`` reads it: the
    rotation, which then moves the cursor, on an exploration instant, the
    top m otherwise."""
    if n in explores:
        picks = rotation(state, m)
        if picks:
            state.rr_cursor = picks[-1]
        return picks
    return state.top(m)


def test_schedule_head_for_default_zeta():
    assert instants_up_to(1.7, 25) == [2, 3, 5, 9, 15, 25]


def test_schedule_sentinel_never_explores():
    assert list(exploration_instants(math.inf)) == []


def test_schedule_near_one_is_dense_early():
    # consecutive integers until the geometric gaps exceed 1
    assert instants_up_to(1.005, 99) == list(range(2, 100))


def test_schedule_rejects_bad_arguments():
    for zeta in (1.0, 0.5, -math.inf, math.nan):
        with pytest.raises(ValueError):
            exploration_instants(zeta)


def test_schedule_large_n_stays_cheap():
    assert len(instants_up_to(1.01, 1_000_000)) < 3000


def test_instants_just_above_one_skip_the_repeats():
    # about 6.9e11 exponents have ceil(zeta^l) = 2; the generator jumps them
    start = time.perf_counter()
    instants = exploration_instants(1 + 1e-12)
    assert [next(instants) for _ in range(6)] == [2, 3, 4, 5, 6, 7]
    assert time.perf_counter() - start < 0.5


@settings(max_examples=200, deadline=None)
@given(
    zeta=st.sampled_from([1.005, 1.3, 1.7, 2.0, math.inf]),
    queries=st.lists(st.integers(1, 20_000), min_size=1, max_size=8),
)
def test_next_exploration_instant_is_first_member_at_or_after(zeta, queries):
    # the engine walks the instants forward to the first at or after an
    # ascending sequence of queries; against a scan of ceil(zeta^l)
    members = ceil_powers(zeta, 50_000)  # past the member after any query
    instants = exploration_instants(zeta)
    explore = next(instants, math.inf)
    for n in sorted(queries):
        while explore < n:
            explore = next(instants, math.inf)
        assert explore == min((j for j in members if j >= n), default=math.inf)


@settings(max_examples=200, deadline=None)
@given(
    zeta=st.one_of(
        st.sampled_from([1.0001, 1.005, 1.3, 1.7, 2.0, math.inf]),
        st.floats(1.001, 3.0, exclude_min=True),
    )
)
def test_instants_match_a_scan_of_every_exponent(zeta):
    assert instants_up_to(zeta, 20_000) == ceil_powers(zeta, 20_000)


def test_instants_end_where_the_powers_leave_the_float_range():
    # 1e5^62 overflows a float: the instants end there, far past any time cap
    assert list(exploration_instants(1e5)) == [math.ceil(1e5**l) for l in range(1, 62)]
    assert list(exploration_instants(1e200)) == [math.ceil(1e200)]


def test_floor_except_skips_only_the_given_id():
    s = ranked(idx(3, 5, 5, 1))
    assert s.floor_except(2) == 5.0
    assert s.floor_except(3) == math.nextafter(5.0, math.inf)  # id 3 loses the tie to id 2
    assert s.floor_except(4) == math.nextafter(5.0, math.inf)
    s.declare(2)
    s.declare(3)
    s.declare(4)
    assert s.floor_except(1) == -math.inf
    assert s.floor_except(2) == math.nextafter(3.0, math.inf)


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(st.sampled_from([0.0, 5e-324, 0.25, 0.5, 1.0, 3.0]), min_size=2, max_size=6),
    data=st.data(),
)
def test_floor_except_matches_the_key_order(values, data):
    # an index falls below the floor exactly when its key falls below the
    # best other key, ties on the index going to the lower id
    s = ranked(idx(*values))
    pid = data.draw(st.integers(1, len(values)), label="pid")
    best = max((v, -q) for q, v in enumerate(values, start=1) if q != pid)
    for value in values + [math.nextafter(v, -math.inf) for v in values]:
        assert (value < s.floor_except(pid)) == ((value, -pid) < best)


def test_round_robin_wrapped_successors():
    s = ranked(idx(0, 0, 0), active={1, 2, 3}, rr_cursor=1)
    assert rotation(s, 1) == (2,)

    s = ranked(idx(0, 0, 0), active={1, 3}, rr_cursor=1)  # process 2 declared
    assert rotation(s, 1) == (3,)

    s = ranked(idx(0, 0, 0), active={1}, rr_cursor=1)  # wraps all the way around
    assert rotation(s, 1) == (1,)

    s = ranked(idx(0, 0, 0), active=set(), rr_cursor=1)
    assert select(s, 1, {1}, 1) == ()
    assert s.rr_cursor == 1


def test_round_robin_pick_wraps_past_declared_ids_without_moving_the_cursor():
    s = ranked(idx(0, 0, 0, 0, 0), active={1, 2}, rr_cursor=4)  # 5 declared: wraps to 1
    assert rotation(s, 1) == (1,)
    assert rotation(s, 5) == (1, 2)
    s.rr_cursor = 1
    assert rotation(s, 5) == (2, 1)  # all the way round

    s = ranked(idx(0, 0, 0), active=set(), rr_cursor=2)
    assert rotation(s, 1) == ()
    assert s.rr_cursor == 2


@settings(max_examples=300, deadline=None)
@given(k=st.integers(1, 12), data=st.data())
def test_round_robin_pick_is_the_next_single_rotation(k, data):
    # the pick is rotation(state, 1); any m takes the brute-force order's first m
    active = data.draw(st.sets(st.integers(1, k)), label="active")
    cursor = data.draw(st.integers(1, k), label="cursor")
    m = data.draw(st.integers(1, k), label="m")
    s = ranked(idx(*[0] * k), active=active, rr_cursor=cursor)
    assert rotation(s, m) == brute_rotation(k, active, cursor, m)
    assert s.rr_cursor == cursor


def test_round_robin_first_instant_starts_at_one():
    s = PolicyState.fresh(idx(0, 0, 0, 0, 0))
    assert select(s, 2, {2, 3}, 1) == (1,)
    assert select(s, 3, {2, 3}, 1) == (2,)
    assert rotation(PolicyState.fresh(idx(0, 0, 0, 0, 0, 0)), 3) == (1, 2, 3)


def test_round_robin_multi_examples():
    s = ranked(idx(0, 0, 0, 0), active={1, 2, 3, 4}, rr_cursor=4)
    assert select(s, 1, {1}, 2) == (1, 2)
    assert s.rr_cursor == 2

    s = ranked(idx(0, 0, 0, 0), active={3}, rr_cursor=4)
    assert rotation(s, 2) == (3,)

    s = ranked(idx(0, 0, 0, 0), active={1, 2, 3, 4}, rr_cursor=4)
    assert rotation(s, 4) == (1, 2, 3, 4)


def test_select_cl_argmax_and_ties():
    assert ranked(idx(0.3, 0.1, 0.7)).top(1) == (3,)
    assert ranked(idx(0.3, 0.1, 0.7)).top(2) == (3, 1)
    assert ranked(idx(0.1, 0.5, 0.2, 0.5)).top(1) == (2,)


def test_select_cl_exploration_instant_rotates():
    explores = set(instants_up_to(1.7, 10))
    s = ranked(idx(0.3, 0.1, 0.7))
    assert select(s, 2, explores, 1) == (1,)
    assert select(s, 3, explores, 1) == (2,)
    # non-exploration instant in between goes back to the argmax
    assert select(s, 4, explores, 1) == (3,)


def test_select_cl_empty_and_small_active_sets():
    s = ranked(idx(0.3, 0.1, 0.7), active=set())
    assert s.top(2) == ()
    assert rotation(s, 2) == ()

    s = ranked(idx(0.3, 0.1, 0.7), active={2})
    assert s.top(2) == (2,)
    assert rotation(s, 2) == (2,)


def test_declared_processes_are_never_selected():
    rng = np.random.default_rng(29)
    explores = set(instants_up_to(1.7, 300))
    s = PolicyState.fresh(idx(*([0] * 6)))
    declared = set()
    for n in range(1, 300):
        if not s.active:
            break
        values = idx(*rng.uniform(0.0, 1.0, size=6), inactive=declared)
        for pid in s.active:
            s.rerank(pid, values[pid - 1])
        picks = select(s, n, explores, 2)
        assert declared.isdisjoint(picks)
        assert len(picks) == min(2, len(s.active))
        if rng.random() < 0.05:
            victim = int(rng.choice(sorted(s.active)))
            s.declare(victim)
            declared.add(victim)


def test_selection_is_argmax_consistent_off_exploration():
    rng = np.random.default_rng(37)
    for _ in range(100):
        k = int(rng.integers(2, 8))
        m = int(rng.integers(1, k + 1))
        values = idx(*rng.uniform(0.0, 1.0, size=k))
        s = ranked(values)
        picks = s.top(m)
        unpicked = s.active - set(picks)
        if unpicked:
            assert min(values[p - 1] for p in picks) >= max(values[q - 1] for q in unpicked)


def test_exploration_visits_are_fair():
    # with no declarations, rotation spreads exploration instants evenly:
    # every process gets at least floor(instants/K) - 1 visits
    explores = set(instants_up_to(1.7, 3000))
    k = 5
    s = ranked(idx(*([0.5] * k)))
    visits = {pid: 0 for pid in range(1, k + 1)}
    for n in sorted(explores):
        (pick,) = select(s, n, explores, 1)
        visits[pick] += 1
    assert explores
    floor_share = len(explores) // k
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
    s = PolicyState.fresh(initial)
    indices = list(initial)
    active = set(range(1, k + 1))
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
    if active:
        pid = min(active)
        before = s.top(k)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                s.rerank(pid, bad)
        assert s.top(k) == before
    with pytest.raises(ValueError, match="finite"):
        PolicyState.fresh([math.nan] * k)


@settings(max_examples=200, deadline=None)
@given(
    initial=st.lists(VALUES, min_size=1, max_size=12),
    data=st.data(),
)
def test_settled_held_keys_are_the_top_m_under_updates(initial, data):
    # the engine's passes: each held id gets a new value where it is held
    # or is declared, then the held keys settle into the top m, or go back
    # for a rotation whose picks are lifted out; settling must give a full
    # sort's first m ids and report the ids that were not held before
    k = len(initial)
    m = data.draw(st.integers(1, k), label="m")
    s = PolicyState.fresh(initial)
    indices = list(initial)
    active = set(range(1, k + 1))
    held = []
    while active and data.draw(st.booleans(), label="another pass"):
        before = {-neg for _, neg in held}
        if data.draw(st.booleans(), label="rotate"):
            s.release(held)
            picks = rotation(s, m)
            s.rr_cursor = picks[-1]
            held = s.hold(picks)
            assert held == [(indices[pid - 1], -pid) for pid in picks]
        else:
            entered = s.settle(held, m)
            expected = sorted(active, key=lambda q: (-indices[q - 1], q))[:m]
            assert sorted(held, reverse=True) == [(indices[pid - 1], -pid) for pid in expected]
            assert sorted(entered) == sorted(set(expected) - before)
        read = []
        for _, neg in held:
            if data.draw(st.booleans(), label="declare"):
                s.declare(-neg)
                active.discard(-neg)
            else:
                indices[-neg - 1] = data.draw(VALUES, label="value")
                read.append((indices[-neg - 1], neg))
        held = read
    s.release(held)
    assert set(s.active) == active
    assert s.top(k) == tuple(sorted(active, key=lambda q: (-indices[q - 1], q)))


def pre_data_order(priors, costs, expected_sizes):
    """Open loop's order as the engine builds it: ids ranked by the pre-data
    priority prior * cost / expected size (initial_priority's index)."""
    values = [index(p, c, e) for p, c, e in zip(priors, costs, expected_sizes)]
    return PolicyState.fresh(values).top(len(values))


def test_ol_order_examples():
    assert pre_data_order([0.5, 0.5, 0.5], [1.0, 3.0, 2.0], [4.0, 4.0, 4.0]) == (2, 3, 1)
    assert pre_data_order([0.9, 0.1], [5.0, 5.0], [3.0, 3.0]) == (1, 2)
    assert pre_data_order([0.5, 0.5], [10.0, 20.0], [5.0, 20.0]) == (1, 2)
    # ties break to the lowest id
    assert pre_data_order([0.5, 0.5], [2.0, 2.0], [4.0, 4.0]) == (1, 2)
    with pytest.raises(ValueError):
        pre_data_order([0.5], [1.0], [0.0])
    # initial_priority is that index over a spec's prior-weighted expected size
    specs = [
        ProcessSpec(prior=0.5, cost_rate=c, alpha=1e-2, beta=1e-2,
                    model_h0=Poisson(10.0), model_h1=Poisson(15.0))
        for c in (1.0, 3.0, 2.0)
    ]
    for spec in specs:
        expected = expected_detection_time(0.5, spec.table.e_n_h0, spec.table.e_n_h1)
        assert initial_priority(spec) == index(0.5, spec.cost_rate, expected)
