"""Differential test: the engine against a step-by-step reference replay
of episodes over model pairs and parameter grids.

The reference keeps the plain form of every step: both log-densities
through ``log_density``, the increment added to the sum before the
boundaries are checked, the posterior recomputed from the prior on every
use; for a grid process, one row of log-densities per observation added
to per-point sums, the estimate and the regional maxima found by a scan
of those sums, and the boundaries, the prior log-odds and the expected
size of the current estimate recomputed from the spec on every use; a
plain set of active ids, a full sort of that set on every
closed-loop instant that is not an exploration instant, the first M
active ids of one full sort by pre-data priority for open loop,
exploration instants ceil(zeta^l) from its own set rather than the
schedule under test, and a round-robin rotation that rebuilds its
eligible set for every pick. The engine must reproduce it exactly:
every ``EpisodeResult`` field and every ``TraceStep`` compare with ``==``,
and a run that fails must raise what the replay raises. Traced and
untraced runs take the same loops: open loop at every M in lanes to
each declaration, closed loop at M > 1 one pass per instant and a lone
probe's observations in stretches up to its next event; a traced run's
trace is rebuilt from its log of those blocks, so every traced replay
checks them instant by instant. Every policy run on one shared path set
(``EpisodePaths``), in any order, must equal the replay too.
"""

from __future__ import annotations

import math
import random
from array import array

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from seqscan.composite import ParameterGrid, Region, StatisticKind
from seqscan.engine import (
    EpisodePaths,
    EpisodeResult,
    PolicyConfig,
    PolicyKind,
    ProcessSpec,
    SimulationError,
    TIME_CAP,
    TraceStep,
    _pair_index,
    _pair_threshold,
    run_episode,
)
from seqscan.models import Categorical, Gaussian, Poisson, finite_kl, log_density, sample
from seqscan.sprt import expected_sample_sizes, wald_boundaries


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def _nearest(spec, point: int, region: Region) -> float:
    """Smallest divergence from a grid point to a region's points."""
    models, regions = spec.grid.models, spec.grid.regions
    return min(finite_kl(models[point], m) for m, r in zip(models, regions) if r is region)


def _grid_size(spec, point: int) -> float:
    """Expected sample size while ``point`` is the estimate: the boundary
    over the floored divergence to the opposing region, an indifference
    point taking the side of the nearer region."""
    b0, b1 = math.log(1.0 / spec.beta), math.log(1.0 / spec.alpha)
    d0, d1 = _nearest(spec, point, Region.THETA0), _nearest(spec, point, Region.THETA1)
    region = spec.grid.regions[point]
    if region is Region.INDIFFERENCE:
        region = Region.THETA0 if d0 <= d1 else Region.THETA1
    return b0 / max(d1, 1e-12) if region is Region.THETA0 else b1 / max(d0, 1e-12)


def _truth_mixture(spec, abnormal: bool) -> list[tuple[int, float]]:
    region = Region.THETA1 if abnormal else Region.THETA0
    points = [i for i, r in enumerate(spec.grid.regions) if r is region]
    weights = (spec.h1_weights if abnormal else spec.h0_weights) or [1.0 / len(points)] * len(points)
    return list(zip(points, weights))


def _conditional_sizes(spec) -> tuple[float, float]:
    """The expected sizes under H0 and H1 that a priority averages by the
    belief: Wald's for a model pair; for a grid, before any data, boundary over the floored divergence to the
    opposing region, averaged over each region's truth mixture."""
    if not spec.is_composite:
        return expected_sample_sizes(
            spec.alpha, spec.beta,
            finite_kl(spec.model_h0, spec.model_h1), finite_kl(spec.model_h1, spec.model_h0),
        )
    b0, b1 = math.log(1.0 / spec.beta), math.log(1.0 / spec.alpha)
    e0 = sum(w * b0 / max(_nearest(spec, i, Region.THETA1), 1e-12) for i, w in _truth_mixture(spec, False))
    e1 = sum(w * b1 / max(_nearest(spec, i, Region.THETA0), 1e-12) for i, w in _truth_mixture(spec, True))
    return e0, e1


def _truth_model(spec, abnormal: bool, meta_rng):
    if not spec.is_composite:
        return spec.model_h1 if abnormal else spec.model_h0
    points = _truth_mixture(spec, abnormal)
    u, acc = meta_rng.random(), 0.0
    for i, w in points:
        acc += w
        if u < acc:
            return spec.grid.models[i]
    return spec.grid.models[points[-1][0]]


def apply_switching_delay(previous, new, specs) -> int:
    """Delay units consumed by every process entering the probed set
    this instant; simultaneous entries add."""
    return sum(specs[pid - 1].switch_delay for pid in new if pid not in previous)


def test_apply_switching_delay_rules():
    specs = [
        ProcessSpec(prior=0.5, cost_rate=1.0, alpha=1e-2, beta=1e-2,
                    model_h0=Poisson(10.0), model_h1=Poisson(15.0), switch_delay=delay)
        for delay in (1, 2, 0)
    ]
    assert apply_switching_delay({1, 2}, (1, 2), specs) == 0
    assert apply_switching_delay({2}, (1,), specs) == 1
    assert apply_switching_delay(set(), (1, 2), specs) == 3
    assert apply_switching_delay({1}, (1, 3), specs) == 0


def reference_episode(
    specs,
    policy: PolicyConfig,
    seed: np.random.SeedSequence,
    statistic: StatisticKind = StatisticKind.GLR,
    time_cap: int = TIME_CAP,
    forced_truth=None,
) -> EpisodeResult:
    """Episode replayed one observation at a time, traced. A forced truth
    skips the truth draws. It raises a SimulationError at the first
    instant whose clock passes time_cap, and a ValueError at the first
    impossible observation of an instant, in selection order."""
    k = len(specs)
    children = [
        np.random.SeedSequence(entropy=seed.entropy, spawn_key=tuple(seed.spawn_key) + (i,))
        for i in range(k + 1)
    ]
    meta_rng = np.random.default_rng(children[0])
    obs_rngs = [np.random.default_rng(c) for c in children[1:]]
    if forced_truth is None:
        truth = tuple(bool(meta_rng.random() < s.prior) for s in specs)
    else:
        truth = tuple(bool(b) for b in forced_truth)
    truth_models = tuple(_truth_model(s, a, meta_rng) for s, a in zip(specs, truth))

    sum_llr = [0.0] * k
    # grid processes: per-point sums, estimate, adaptive numerator, belief
    cum = [[0.0] * len(s.grid) if s.is_composite else None for s in specs]
    mle = [0] * k
    alr = [0.0] * k
    grid_belief = [s.prior for s in specs]

    def belief(i: int) -> float:
        if specs[i].is_composite:
            return grid_belief[i]
        prior = specs[i].prior
        if prior == 0.0 or prior == 1.0:
            return prior
        return _sigmoid(math.log(prior / (1.0 - prior)) + sum_llr[i])

    def priority(i: int) -> float:
        if specs[i].is_composite:
            return belief(i) * specs[i].cost_rate / _grid_size(specs[i], mle[i])
        e0, e1 = _conditional_sizes(specs[i])
        expected = belief(i) * e1 + (1.0 - belief(i)) * e0
        return belief(i) * specs[i].cost_rate / expected

    def regional_max(i: int, region: Region) -> float:
        return max(c for c, r in zip(cum[i], specs[i].grid.regions) if r is region)

    def grid_stat(i: int, declare: int, adaptive: bool = False) -> float:
        """GLR (or ALR) statistic for rejecting Theta0 (declare=1) or Theta1."""
        top = alr[i] if adaptive else max(cum[i])
        rejected = regional_max(i, Region.THETA0 if declare == 1 else Region.THETA1)
        if math.isinf(top) and math.isinf(rejected):
            return 0.0
        return top - rejected

    def observe(i: int, y) -> bool | None:
        """Fold y into process i; True or False on a declaration (abnormal
        or normal), None while it continues."""
        spec = specs[i]
        if not spec.is_composite:
            inc = log_density(spec.model_h1, y) - log_density(spec.model_h0, y)
            if not math.isfinite(inc):
                raise ValueError(f"LLR increment must be finite, got {inc}")
            sum_llr[i] += inc
            b = wald_boundaries(spec.alpha, spec.beta)
            if sum_llr[i] >= b.upper_b or sum_llr[i] <= b.lower_a:
                return sum_llr[i] >= b.upper_b
            return None
        row = [log_density(m, y) for m in spec.grid.models]
        alr[i] += row[mle[i]]
        cum[i] = [c + d for c, d in zip(cum[i], row)]
        mle[i] = cum[i].index(max(cum[i]))
        l1, l0 = regional_max(i, Region.THETA1), regional_max(i, Region.THETA0)
        prior = spec.prior
        if prior in (0.0, 1.0):
            grid_belief[i] = prior
        elif not (math.isinf(l1) and math.isinf(l0)):
            grid_belief[i] = _sigmoid(math.log(prior / (1.0 - prior)) + l1 - l0)
        adaptive = statistic is StatisticKind.ALR
        excess1 = grid_stat(i, 1, adaptive) - math.log(1.0 / spec.alpha)
        excess0 = grid_stat(i, 0, adaptive) - math.log(1.0 / spec.beta)
        if excess1 >= 0 and excess0 >= 0:
            return excess1 >= excess0
        if excess1 >= 0 or excess0 >= 0:
            return excess1 >= 0
        return None

    def stat(i: int) -> float:
        return grid_stat(i, 1) if specs[i].is_composite else sum_llr[i]

    indices = [priority(i) for i in range(k)]
    active = set(range(1, k + 1))
    rr_cursor = k

    def rotation(m: int) -> tuple[int, ...]:
        nonlocal rr_cursor
        chosen: list[int] = []
        prev = rr_cursor
        for _ in range(m):
            eligible = active - set(chosen)
            cands = [((prev + u) % k) + 1 for u in range(k)]
            pick = next((c for c in cands if c in eligible), None)
            if pick is None:
                break
            chosen.append(pick)
            prev = pick
        if chosen:
            rr_cursor = chosen[-1]
        return tuple(chosen)

    explore: set[int] = set()  # the instants ceil(zeta^l) computed so far
    last_power, exponent = 0, 1

    def exploring(n: int) -> bool:
        nonlocal last_power, exponent
        while not math.isinf(policy.zeta) and last_power < n:
            last_power = math.ceil(policy.zeta**exponent)
            exponent += 1
            explore.add(last_power)
        return n in explore

    order = None  # open loop: every id by decreasing prior * cost / a-priori size
    if policy.kind is PolicyKind.OL:
        sizes = [_conditional_sizes(s) for s in specs]
        a_priori = [s.prior * e1 + (1.0 - s.prior) * e0 for s, (e0, e1) in zip(specs, sizes)]
        ratio = [s.prior * s.cost_rate / e for s, e in zip(specs, a_priori)]
        order = sorted(range(1, k + 1), key=lambda pid: (-ratio[pid - 1], pid))

    declared = [False] * k
    stop_times = [0] * k
    samples = [0] * k
    t = total_delay = idle_slots = 0
    prev_sel: set[int] = set()
    trace = []
    while active:
        instant = t + 1
        m = min(policy.m, len(active))
        if order is not None:
            sel = tuple([pid for pid in order if pid in active][:m])
        elif exploring(instant):
            sel = rotation(m)
        else:
            ranked = sorted(active, key=lambda pid: (-indices[pid - 1], pid))
            sel = tuple(ranked[:m])
        delta = apply_switching_delay(prev_sel, sel, specs)
        t += delta + 1
        total_delay += delta
        idle_slots += policy.m - len(sel)
        if t > time_cap:
            raise SimulationError(f"episode exceeded {time_cap} time units with {len(active)} processes undecided")

        observations = []
        for pid in sel:
            i = pid - 1
            y = sample(truth_models[i], obs_rngs[i])
            observations.append(y)
            samples[i] += 1
            verdict = observe(i, y)
            if verdict is not None:
                declared[i] = verdict
                stop_times[i] = t
                active.discard(pid)
                indices[i] = 0.0
            else:
                indices[i] = priority(i)
        prev_sel = set(sel)
        trace.append(
            TraceStep(
                instant=instant,
                delay=delta,
                selected=tuple(sel),
                observations=tuple(observations),
                beliefs=tuple(belief(i) for i in range(k)),
                indices=tuple(indices),
                stats=tuple(stat(i) for i in range(k)),
            )
        )

    return EpisodeResult(
        truth=truth,
        declared=tuple(declared),
        stop_times=tuple(stop_times),
        samples=tuple(samples),
        final_time=t,
        total_delay=total_delay,
        idle_slots=idle_slots,
        cost=sum(specs[i].cost_rate * stop_times[i] for i in range(k) if truth[i] and declared[i]),
        false_alarms=tuple(declared[i] and not truth[i] for i in range(k)),
        miss_detects=tuple(not declared[i] and truth[i] for i in range(k)),
        truth_models=truth_models,
        trace=trace,
    )


@st.composite
def model_pairs(draw, near=False):
    # near pairs take hundreds of observations to tell apart
    family = draw(st.sampled_from(["poisson", "gaussian", "categorical", "saturated"]))
    if family == "poisson":
        r0 = draw(st.floats(1.0, 12.0))
        return Poisson(r0), Poisson(r0 * draw(st.floats(1.05, 1.3) if near else st.floats(1.3, 2.5)))
    if family == "gaussian":
        sd = draw(st.floats(0.5, 2.0))
        mean0 = draw(st.floats(-3.0, 3.0))
        shift = draw(st.floats(0.15, 0.6) if near else st.floats(0.6, 2.0))
        return Gaussian(mean0, sd), Gaussian(mean0 + shift * sd, sd)
    if family == "saturated":
        # category 2 has no mass under one model and 1e-12 under the other:
        # the divergence into the first saturates at KL_SATURATION, so one
        # Wald size is about 1e-11 of the other, and the category that
        # would make an increment infinite is all but never drawn
        a, b = draw(st.floats(0.2, 0.8)), draw(st.floats(0.2, 0.8))
        assume(abs(a - b) > (0.05 if near else 0.2))
        none = Categorical((a, 1.0 - a, 0.0))
        rare = Categorical((b * (1.0 - 1e-12), (1.0 - b) * (1.0 - 1e-12), 1e-12))
        return (none, rare) if draw(st.booleans()) else (rare, none)
    w = draw(st.lists(st.floats(1.0, 10.0), min_size=3, max_size=3))
    p0 = tuple(x / sum(w) for x in w)
    p1 = p0[1:] + p0[:1]
    if near:
        p1 = tuple(0.7 * a + 0.3 * b for a, b in zip(p0, p1))
    p0, p1 = Categorical(p0), Categorical(p1)
    least = 0.005 if near else 0.1
    assume(finite_kl(p0, p1) > least and finite_kl(p1, p0) > least)
    return p0, p1


@st.composite
def pair_specs(draw, min_budget=1e-3, near=False):
    h0, h1 = draw(model_pairs(near))
    budget = st.floats(min_budget, 0.2)
    # the absorbing priors, priors a hair from them and cost 0 (index 0
    # throughout) in about one spec of five each
    edge, free = draw(st.sampled_from(range(10))) < 2, draw(st.sampled_from(range(10))) < 2
    return ProcessSpec(
        prior=draw(st.sampled_from([0.0, 1.0, 1e-6, 1.0 - 1e-6]) if edge else st.floats(0.05, 0.95)),
        cost_rate=0.0 if free else draw(st.floats(0.1, 5.0)),
        alpha=draw(budget),
        beta=draw(budget),
        model_h0=h0,
        model_h1=h1,
        switch_delay=draw(st.integers(0, 2)),
    )


@st.composite
def grids(draw, positive=False, near=False):
    """A grid of 2-5 distinct points with both regions nonempty and,
    at times, indifference points, in a shuffled order so the pre-data
    estimate (point 0) may sit in any region. Categorical points give
    category 2 no mass under Theta0 and category 0 none under Theta1,
    so per-point sums reach -inf, unless ``positive``: an adaptive
    numerator that reaches -inf never recovers, so the ALR test could
    not decide. ``near`` regions take hundreds of observations to tell
    apart."""
    n0, n1 = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    n_indiff = draw(st.integers(0, 5 - n0 - n1))
    regions = [Region.THETA0] * n0 + [Region.THETA1] * n1 + [Region.INDIFFERENCE] * n_indiff
    # each region's points sit on its own stretch of a shift scale, and
    # distinct shifts give distinct models
    spans = {Region.THETA0: (0.0, 0.2), Region.INDIFFERENCE: (0.3, 0.5), Region.THETA1: (0.7, 1.0)}
    if near:
        spans = {Region.THETA0: (0.0, 0.05), Region.INDIFFERENCE: (0.08, 0.12), Region.THETA1: (0.15, 0.3)}
    shifts = [draw(st.floats(*spans[r])) for r in regions]
    assume(len(set(shifts)) == len(shifts))
    family = draw(st.sampled_from(["poisson", "gaussian", "categorical"]))
    if family == "poisson":
        r0 = draw(st.floats(2.0, 12.0))
        models = [Poisson(r0 * (1.0 + x)) for x in shifts]
    elif family == "gaussian":
        sd, mean0 = draw(st.floats(0.5, 2.0)), draw(st.floats(-3.0, 3.0))
        models = [Gaussian(mean0 + 2.0 * x * sd, sd) for x in shifts]
    else:
        models = []
        for x, region in zip(shifts, regions):
            first, last = 0.6 * (1.0 - x), 0.6 * x
            if positive:
                first, last = first + 0.1, last + 0.1
            elif region is Region.THETA0:
                last = 0.0
            elif region is Region.THETA1:
                first = 0.0
            models.append(Categorical((first, 1.0 - first - last, last)))
    order = draw(st.permutations(range(len(regions))))
    return ParameterGrid(tuple(models[i] for i in order), tuple(regions[i] for i in order))


def _weights(n: int):
    return st.one_of(
        st.none(),
        st.lists(st.integers(0, 4), min_size=n, max_size=n)
        .filter(any)
        .map(lambda w: tuple(x / sum(w) for x in w)),
    )


@st.composite
def grid_specs(draw, positive=False, near=False):
    grid = draw(grids(positive, near))
    budget = st.floats(1e-4, 1e-2) if near else st.floats(1e-3, 0.2)
    # the absorbing priors 0 and 1 in about one spec of five
    edge = draw(st.sampled_from(range(10))) < 2
    return ProcessSpec(
        prior=draw(st.sampled_from([0.0, 1.0]) if edge else st.floats(0.05, 0.95)),
        cost_rate=draw(st.floats(0.1, 5.0)),
        alpha=draw(budget),
        beta=draw(budget),
        grid=grid,
        h0_weights=draw(_weights(len(grid.theta0))),
        h1_weights=draw(_weights(len(grid.theta1))),
        switch_delay=draw(st.integers(0, 2)),
    )


POLICIES = {
    "CL": lambda m: PolicyConfig(kind=PolicyKind.CL, m=m, zeta=1.3),
    "OL": lambda m: PolicyConfig(kind=PolicyKind.OL, m=m),
    "CL-no-explore": lambda m: PolicyConfig(kind=PolicyKind.CL, m=m, zeta=math.inf),
}


def engine_episode(specs, policy, seed: int, statistic=StatisticKind.GLR, trace=False):
    """The engine's run of policy on a fresh path set of the seed."""
    return run_episode(EpisodePaths(specs, np.random.SeedSequence(seed), statistic, trace=trace), policy)


def assert_matches_replay(
    specs, policy, seed: int, statistic=StatisticKind.GLR, time_cap: int = TIME_CAP, forced_truth=None
) -> str:
    """The engine's traced run equals the replay, trace and all, compared
    instant by instant first, and its untraced run equals it without the
    trace; or all three raise errors of equal repr. Returns "finished" or
    the error's class name."""

    def run(trace: bool) -> EpisodeResult:
        paths = EpisodePaths(specs, np.random.SeedSequence(seed), statistic, forced_truth, trace)
        return run_episode(paths, policy, time_cap)

    try:
        expected = reference_episode(specs, policy, np.random.SeedSequence(seed), statistic, time_cap, forced_truth)
    except (SimulationError, ValueError) as exc:
        for trace in (True, False):
            with pytest.raises(type(exc)) as raised:
                run(trace)
            assert repr(raised.value) == repr(exc)
        return type(exc).__name__
    traced = run(True)
    assert traced.trace == expected.trace
    assert traced == expected
    plain = run(False)
    assert plain.trace is None
    expected.trace = None
    assert plain == expected
    return "finished"


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    specs=st.lists(pair_specs(), min_size=1, max_size=6),
    policy=st.sampled_from(sorted(POLICIES)),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_engine_matches_reference_replay(specs, policy, seed, data):
    assert_matches_replay(specs, POLICIES[policy](data.draw(st.integers(1, len(specs)), label="m")), seed)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    spec=pair_specs(),
    k=st.integers(2, 30),
    policy=st.sampled_from(sorted(POLICIES)),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_identical_processes_match_reference_replay(spec, k, policy, seed, data):
    # identical specs start with equal indices and keep long runs of ties,
    # so the ranking's lowest-id tie-break and its removal of ids declared
    # in the middle of a run are compared against the full sort
    assert_matches_replay([spec] * k, POLICIES[policy](data.draw(st.integers(1, min(5, k)), label="m")), seed)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    specs=st.lists(pair_specs(min_budget=1e-4, near=True), min_size=2, max_size=2),
    zeta=st.sampled_from([1.005, math.inf]),
    seed=st.integers(0, 2**32 - 1),
)
def test_two_process_single_probe_stretches_match_reference_replay(specs, zeta, seed):
    # K=2, M=1 with small error budgets: a run takes each lone probe's
    # observations in stretches of up to hundreds of steps, across
    # refills of the observation buffer, ending at a declaration, the
    # next exploration instant or a crossing of the other process's index
    assert_matches_replay(specs, PolicyConfig(kind=PolicyKind.CL, m=1, zeta=zeta), seed)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    fast=pair_specs(),
    slow=pair_specs(min_budget=1e-4, near=True),
    slow_first=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_lone_process_through_exploration_instants_matches_reference_replay(fast, slow, slow_first, seed):
    # K=2, M=1, zeta=1.005: exploration instants alternate the two ids
    # until the fast spec declares; from then on the slow one is the only
    # active id, every exploration instant picks it, and a run takes it to
    # its declaration across many of them
    specs = [slow, fast] if slow_first else [fast, slow]
    assert_matches_replay(specs, PolicyConfig(kind=PolicyKind.CL, m=1, zeta=1.005), seed)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    spec=pair_specs(min_budget=1e-4, near=True),
    zeta=st.sampled_from([1.005, math.inf]),
    seed=st.integers(0, 2**32 - 1),
)
def test_identical_pair_single_probe_stretches_match_reference_replay(spec, zeta, seed):
    # one spec used twice at K=2, M=1: equal pre-data indices, so a
    # stretch's floor is an index the probed spec itself takes (id 1
    # wins the tie) or the next float above it (id 2 loses it)
    assert_matches_replay([spec, spec], PolicyConfig(kind=PolicyKind.CL, m=1, zeta=zeta), seed)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    specs=st.lists(
        st.one_of(pair_specs(min_budget=1e-4, near=True), pair_specs(), grid_specs()), min_size=3, max_size=6
    ),
    kind=st.sampled_from(list(PolicyKind)),
    zeta=st.sampled_from([1.005, 1.05, math.inf]),
    m=st.one_of(st.just(1), st.integers(2, 3)),
    seed=st.integers(0, 2**32 - 1),
)
def test_lone_stretches_among_three_or_more_processes_match_reference_replay(specs, kind, zeta, m, seed):
    # K = 3..6 of mixed kinds: in closed loop, at M = 1 every instant is a
    # lone stretch, at M = 2 or 3 the last active id is; open loop runs as
    # lanes at every M. The round-robin cursor wraps past declared ids,
    # entering delays push a stretch's first step past an exploration
    # instant, and an instant that picks another id starts that id's
    # stretch, on a path of another kind
    assert_matches_replay(specs, PolicyConfig(kind=kind, m=m, zeta=zeta), seed)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    specs=st.lists(st.one_of(pair_specs(), grid_specs()), min_size=1, max_size=4),
    zeta=st.sampled_from([1e5, 1e6, 1e200]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_large_zeta_matches_reference_replay(specs, zeta, seed, data):
    # a zeta whose powers leave the float range a few instants past the
    # time cap: the engine reads no further than the instant after the
    # next one, as the reference reads up to the next
    m = data.draw(st.integers(1, len(specs)), label="m")
    assert_matches_replay(specs, PolicyConfig(kind=PolicyKind.CL, m=m, zeta=zeta), seed)


def _index_at(spec, llr: float) -> float:
    t = spec.table
    return _pair_index(spec.prior, t.log_odds, llr, spec.cost_rate, t.e_n_h0, t.e_n_h1)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    spec=pair_specs(),
    abnormal=st.booleans(),
    first=st.integers(0, 200),
    more=st.integers(0, 400),
    seed=st.integers(0, 2**32 - 1),
)
def test_stored_index_equals_the_pair_index_at_every_step(spec, abnormal, first, more, seed):
    # Poisson, Gaussian and Categorical pairs, sums falling or rising with
    # the truth, cost 0 and the absorbing priors, which have no log-odds;
    # a fill starts where the last one stopped and indexes every folded
    # step but the declaration's, and a step's priority is the same
    # whether or not the stored index covers it
    path = EpisodePaths([spec], np.random.SeedSequence(seed), forced_truth=(abnormal,)).paths[0]
    path.extend(first, TIME_CAP)
    path.fill_indices()
    path.extend(first + more, TIME_CAP)
    steps = range(len(path.series))
    computed = [path.priority(pos) for pos in steps]
    path.fill_indices()
    assert len(path.indices) == (len(path.series) if path.end is None else path.end)
    assert list(path.indices) == [_index_at(spec, llr) for llr in path.series[: len(path.indices)]]
    assert [_index_at(spec, llr) for llr in path.series] == computed
    assert [path.priority(pos) for pos in steps] == computed


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    spec=pair_specs(),
    other=pair_specs(),
    kind=st.sampled_from(["own", "other", "tie", "unreachable", "zero", "-inf"]),
    at=st.floats(-40.0, 40.0),
    data=st.data(),
)
def test_pair_threshold_keeps_the_index_at_or_above_its_floor(spec, other, kind, at, data):
    # floors the engine meets: the index of another spec or of the probed
    # spec itself, the next float above one (a lost tie), 0 (the best
    # other index of a prior-0 or cost-0 spec), -inf (no other active id),
    # and floors above every index the spec can take
    t = spec.table
    floor = {
        "own": lambda: _index_at(spec, at),
        "other": lambda: _index_at(other, at),
        "tie": lambda: math.nextafter(_index_at(other, at), math.inf),
        "unreachable": lambda: spec.cost_rate / t.e_n_h1 * data.draw(st.floats(1.0 + 1e-9, 10.0), label="over"),
        "zero": lambda: 0.0,
        "-inf": lambda: -math.inf,
    }[kind]()
    t_safe = _pair_threshold(spec.prior, t.log_odds, spec.cost_rate, t.e_n_h0, t.e_n_h1, floor)
    if floor == -math.inf:
        assert t_safe == -math.inf
        return
    if t.log_odds is None or spec.cost_rate == 0 or floor <= 0 or kind == "unreachable":
        assert t_safe == math.inf
        return
    assert not math.isnan(t_safe) and t_safe > -math.inf
    if t_safe == math.inf:  # not certified: the engine computes every step
        return
    llrs = [t_safe]
    for _ in range(1000):
        llrs.append(math.nextafter(llrs[-1], math.inf))
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="points"))
    llrs += [t_safe + (max(t_safe, t.bounds.upper_b) - t_safe) * rng.random() for _ in range(1000)]
    for llr in llrs:
        assert _index_at(spec, llr) >= floor, llr


def test_pair_threshold_is_certified_for_a_reachable_floor():
    # a fig5-like Poisson pair at floors its own index takes: the
    # threshold sits just above the LLR where the index meets the floor
    spec = ProcessSpec(
        prior=0.3, cost_rate=1.0, alpha=1e-3, beta=1e-3, model_h0=Poisson(10.0), model_h1=Poisson(11.0)
    )
    t = spec.table
    for at in (-5.0, 0.0, 5.0):
        t_safe = _pair_threshold(spec.prior, t.log_odds, spec.cost_rate, t.e_n_h0, t.e_n_h1, _index_at(spec, at))
        assert at < t_safe < at + 1e-5


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    statistic=st.sampled_from(list(StatisticKind)),
    policy=st.sampled_from(sorted(POLICIES)),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_grid_engine_matches_reference_replay(statistic, policy, seed, data):
    # grid processes, mixed at times with model pairs, under GLR or ALR
    positive = statistic is StatisticKind.ALR
    kinds = st.one_of(grid_specs(positive), grid_specs(positive), pair_specs())
    specs = data.draw(st.lists(kinds, min_size=1, max_size=5), label="specs")
    assert_matches_replay(specs, POLICIES[policy](data.draw(st.integers(1, len(specs)), label="m")), seed, statistic)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    statistic=st.sampled_from(list(StatisticKind)),
    zeta=st.sampled_from([1.005, math.inf]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_two_grid_process_single_probe_stretches_match_reference_replay(statistic, zeta, seed, data):
    # the grid form of the model-pair stretch test: stretches of hundreds
    # of steps across buffer refills, ending at a declaration, an
    # exploration instant or a crossing of the other index; one spec used
    # twice (equal pre-data indices) or prior 0 (index 0 throughout) makes
    # that crossing an exact tie
    spec = grid_specs(statistic is StatisticKind.ALR, near=True)
    specs = data.draw(st.one_of(st.lists(spec, min_size=2, max_size=2), spec.map(lambda s: [s, s])), label="specs")
    assert_matches_replay(specs, PolicyConfig(kind=PolicyKind.CL, m=1, zeta=zeta), seed, statistic)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    spec=grid_specs(),
    k=st.integers(2, 12),
    policy=st.sampled_from(sorted(POLICIES)),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_identical_grid_processes_match_reference_replay(spec, k, policy, seed, data):
    # one grid spec shared by every process: equal pre-data indices and
    # long runs of ties, as for identical model pairs
    assert_matches_replay([spec] * k, POLICIES[policy](data.draw(st.integers(1, min(5, k)), label="m")), seed)


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    statistic=st.sampled_from(list(StatisticKind)),
    order=st.permutations(sorted(POLICIES)),
    traced=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_policies_sharing_one_path_set_match_fresh_runs_and_the_replay(statistic, order, traced, seed, data):
    # every policy of a sweep point reads one path set, in a drawn order:
    # each reads what earlier ones folded and folds further where it must.
    # Near model pairs give long lone stretches at M = 1; a traced set
    # gives traced runs, whose results without the trace equal an
    # untraced set's
    positive = statistic is StatisticKind.ALR
    kinds = st.one_of(grid_specs(positive), pair_specs(), pair_specs(min_budget=1e-4, near=True))
    specs = data.draw(st.lists(kinds, min_size=1, max_size=4), label="specs")
    m = data.draw(st.integers(1, len(specs)), label="m")
    paths = EpisodePaths(specs, np.random.SeedSequence(seed), statistic, trace=traced)
    for name in order:
        config = POLICIES[name](m)
        expected = reference_episode(specs, config, np.random.SeedSequence(seed), statistic)
        shared = run_episode(paths, config)
        fresh = engine_episode(specs, config, seed, statistic, trace=traced)
        assert shared == fresh
        if traced:
            assert shared == expected
            shared.trace = None
        expected.trace = None
        assert shared == engine_episode(specs, config, seed, statistic) == expected


def test_time_cap_with_shared_paths():
    # two slow pairs entered with a delay: closed loop switches at
    # exploration instants and at index crossings, paying entering delays
    # that open loop, which probes each process to its declaration, does
    # not, so a time cap at open loop's final time stops closed loop alone
    spec = ProcessSpec(
        prior=0.5, cost_rate=1.0, alpha=1e-3, beta=1e-3,
        model_h0=Poisson(10.0), model_h1=Poisson(11.0), switch_delay=3,
    )
    specs, seed = [spec, spec], np.random.SeedSequence(21)
    cl, ol = PolicyConfig(kind=PolicyKind.CL, zeta=1.3), PolicyConfig(kind=PolicyKind.OL)
    uncapped = {policy: run_episode(EpisodePaths(specs, seed), policy) for policy in (cl, ol)}
    cap = uncapped[ol].final_time
    assert uncapped[cl].final_time > cap
    message = rf"^episode exceeded {cap} time units with [12] processes undecided$"
    with pytest.raises(SimulationError, match=message) as alone:
        run_episode(EpisodePaths(specs, seed), cl, time_cap=cap)
    paths = EpisodePaths(specs, seed)
    with pytest.raises(SimulationError) as shared:
        run_episode(paths, cl, time_cap=cap)
    assert str(shared.value) == str(alone.value)
    assert run_episode(paths, ol, time_cap=cap) == uncapped[ol]
    for path, n in zip(paths.paths, uncapped[ol].samples):
        # steps as compact doubles, none past the declaration or the cap
        assert isinstance(path.series, array) and path.series.typecode == "d"
        assert len(path.series) == n + 1 <= cap + 1


def test_impossible_observation_fails_the_episode():
    # category 2 has no mass under H0 and category 0 none under H1: the
    # first such draw makes the LLR increment infinite
    spec = ProcessSpec(
        prior=0.5, cost_rate=1.0, alpha=1e-2, beta=1e-2,
        model_h0=Categorical((0.5, 0.5, 0.0)),
        model_h1=Categorical((0.0, 0.5, 0.5)),
    )
    for truth in (True, False):
        with pytest.raises(ValueError, match="LLR increment must be finite"):
            run_episode(EpisodePaths([spec], np.random.SeedSequence(3), forced_truth=(truth,)), PolicyConfig())
