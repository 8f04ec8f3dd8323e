"""Differential test: the engine against a step-by-step reference replay
of model-pair episodes.

The reference keeps the plain form of every step: both log-densities
through ``log_density``, the increment added to the sum before the
boundaries are checked, the posterior recomputed from the prior on every
use, a plain set of active ids, a full sort of that set on every
closed-loop instant that is not an exploration instant, the first M
active ids of one full sort by pre-data priority for open loop,
exploration instants ceil(zeta^l) from its own set rather than the
schedule under test, and a round-robin rotation that rebuilds its
eligible set for every pick. The engine must reproduce it exactly:
every ``EpisodeResult`` field and every ``TraceStep`` compare with ``==``.
Traced runs take one observation per decision; untraced runs take a lone
probe's observations in stretches up to its next event, and their
``EpisodeResult`` must equal the same replay.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from seqscan.engine import (
    EpisodeResult,
    PolicyConfig,
    PolicyKind,
    ProcessSpec,
    TraceStep,
    apply_switching_delay,
    run_episode,
)
from seqscan.models import Categorical, Gaussian, Poisson, finite_kl, log_density, sample
from seqscan.sprt import expected_sample_sizes, wald_boundaries


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def reference_episode(specs, policy: PolicyConfig, seed: np.random.SeedSequence) -> EpisodeResult:
    """Model-pair episode replayed one observation at a time, traced."""
    k = len(specs)
    children = [
        np.random.SeedSequence(entropy=seed.entropy, spawn_key=tuple(seed.spawn_key) + (i,))
        for i in range(k + 1)
    ]
    meta_rng = np.random.default_rng(children[0])
    obs_rngs = [np.random.default_rng(c) for c in children[1:]]
    truth = tuple(bool(meta_rng.random() < s.prior) for s in specs)
    truth_models = tuple(s.model_h1 if a else s.model_h0 for s, a in zip(specs, truth))

    bounds = [wald_boundaries(s.alpha, s.beta) for s in specs]
    sizes = [
        expected_sample_sizes(
            s.alpha, s.beta, finite_kl(s.model_h0, s.model_h1), finite_kl(s.model_h1, s.model_h0)
        )
        for s in specs
    ]
    sum_llr = [0.0] * k

    def belief(i: int) -> float:
        prior = specs[i].prior
        if prior == 0.0 or prior == 1.0:
            return prior
        return _sigmoid(math.log(prior / (1.0 - prior)) + sum_llr[i])

    def priority(i: int) -> float:
        e0, e1 = sizes[i]
        expected = belief(i) * e1 + (1.0 - belief(i)) * e0
        return belief(i) * specs[i].cost_rate / expected

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

        observations = []
        for pid in sel:
            i = pid - 1
            y = sample(truth_models[i], obs_rngs[i])
            observations.append(y)
            samples[i] += 1
            inc = log_density(specs[i].model_h1, y) - log_density(specs[i].model_h0, y)
            assert math.isfinite(inc)
            sum_llr[i] += inc
            if sum_llr[i] >= bounds[i].upper_b or sum_llr[i] <= bounds[i].lower_a:
                declared[i] = sum_llr[i] >= bounds[i].upper_b
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
                stats=tuple(sum_llr),
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
    family = draw(st.sampled_from(["poisson", "gaussian", "categorical"]))
    if family == "poisson":
        r0 = draw(st.floats(1.0, 12.0))
        return Poisson(r0), Poisson(r0 * draw(st.floats(1.05, 1.3) if near else st.floats(1.3, 2.5)))
    if family == "gaussian":
        sd = draw(st.floats(0.5, 2.0))
        mean0 = draw(st.floats(-3.0, 3.0))
        shift = draw(st.floats(0.15, 0.6) if near else st.floats(0.6, 2.0))
        return Gaussian(mean0, sd), Gaussian(mean0 + shift * sd, sd)
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
    return ProcessSpec(
        prior=draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.05, 0.95))),
        cost_rate=draw(st.floats(0.1, 5.0)),
        alpha=draw(budget),
        beta=draw(budget),
        model_h0=h0,
        model_h1=h1,
        switch_delay=draw(st.integers(0, 2)),
    )


POLICIES = {
    "CL": lambda m: PolicyConfig(kind=PolicyKind.CL, m=m, zeta=1.3),
    "OL": lambda m: PolicyConfig(kind=PolicyKind.OL, m=m),
    "CL-no-explore": lambda m: PolicyConfig(kind=PolicyKind.CL, m=m, zeta=math.inf),
}


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    specs=st.lists(pair_specs(), min_size=1, max_size=6),
    policy=st.sampled_from(sorted(POLICIES)),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_engine_matches_reference_replay(specs, policy, seed, data):
    config = POLICIES[policy](data.draw(st.integers(1, len(specs)), label="m"))
    expected = reference_episode(specs, config, np.random.SeedSequence(seed))
    traced = run_episode(specs, config, np.random.SeedSequence(seed), record_trace=True)
    assert traced.trace == expected.trace
    assert traced == expected
    plain = run_episode(specs, config, np.random.SeedSequence(seed))
    assert plain.trace is None
    expected.trace = None
    assert plain == expected


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
    specs = [spec] * k
    config = POLICIES[policy](data.draw(st.integers(1, min(5, k)), label="m"))
    expected = reference_episode(specs, config, np.random.SeedSequence(seed))
    traced = run_episode(specs, config, np.random.SeedSequence(seed), record_trace=True)
    assert traced.trace == expected.trace
    assert traced == expected
    plain = run_episode(specs, config, np.random.SeedSequence(seed))
    expected.trace = None
    assert plain == expected


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    specs=st.lists(pair_specs(min_budget=1e-4, near=True), min_size=2, max_size=2),
    zeta=st.sampled_from([1.005, math.inf]),
    seed=st.integers(0, 2**32 - 1),
)
def test_two_process_single_probe_stretches_match_reference_replay(specs, zeta, seed):
    # K=2, M=1 with small error budgets: an untraced run takes each lone
    # probe's observations in stretches of up to hundreds of steps, across
    # refills of the observation buffer, ending at a declaration, the
    # next exploration instant or a crossing of the other process's index
    config = PolicyConfig(kind=PolicyKind.CL, m=1, zeta=zeta)
    expected = reference_episode(specs, config, np.random.SeedSequence(seed))
    plain = run_episode(specs, config, np.random.SeedSequence(seed))
    expected.trace = None
    assert plain == expected


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
            run_episode([spec], PolicyConfig(), np.random.SeedSequence(3), forced_truth=(truth,))
