"""Episode-engine tests: spec validation, conservation accounting,
switching delays, open-loop execution order, reproducibility, and the
analysis lower bound."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from array import array
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import seqscan
from seqscan.belief import index
from seqscan.composite import ParameterGrid, Region, StatisticKind, composite_boundaries
from seqscan.engine import (
    EpisodePaths,
    PolicyConfig,
    PolicyKind,
    ProcessSpec,
    SimulationError,
    TIME_CAP,
    _child_generators,
    _draw_truth_model,
    _pair_index,
    _PairPath,
    lower_bound_oracle,
    run_episode,
)
from seqscan.models import KL_SATURATION, Categorical, Gaussian, Poisson, finite_kl
from seqscan.sprt import expected_sample_sizes, wald_boundaries

from test_engine_reference import assert_matches_replay, grid_specs as replay_grid_specs, pair_specs as replay_pair_specs


def simple_spec(prior=0.5, cost=1.0, alpha=1e-2, beta=1e-2, delay=0, r0=10.0, r1=15.0):
    return ProcessSpec(
        prior=prior,
        cost_rate=cost,
        alpha=alpha,
        beta=beta,
        model_h0=Poisson(r0),
        model_h1=Poisson(r1),
        switch_delay=delay,
    )


def grid_spec(prior=0.5, cost=1.0, alpha=1e-2, beta=1e-2, rates=((10.0,), (12.0, 15.0)), weights=None):
    models = tuple(Poisson(r) for r in rates[0] + rates[1])
    regions = tuple(
        [Region.THETA0] * len(rates[0]) + [Region.THETA1] * len(rates[1])
    )
    return ProcessSpec(
        prior=prior,
        cost_rate=cost,
        alpha=alpha,
        beta=beta,
        grid=ParameterGrid(models=models, regions=regions),
        h1_weights=weights,
    )


def test_spec_validation():
    with pytest.raises(ValueError):
        ProcessSpec(prior=0.5, cost_rate=1.0, alpha=1e-2, beta=1e-2)  # no models
    with pytest.raises(ValueError):
        ProcessSpec(
            prior=0.5, cost_rate=1.0, alpha=1e-2, beta=1e-2,
            model_h0=Poisson(10.0), model_h1=Poisson(15.0),
            grid=ParameterGrid((Poisson(10.0), Poisson(15.0)), (Region.THETA0, Region.THETA1)),
        )
    with pytest.raises(ValueError):
        simple_spec(prior=1.2)
    with pytest.raises(ValueError):
        simple_spec(cost=-1.0)
    with pytest.raises(ValueError):
        simple_spec(alpha=0.6, beta=0.6)
    with pytest.raises(ValueError):
        simple_spec(delay=-1)
    with pytest.raises(ValueError):
        grid_spec(weights=(0.5, 0.6))
    # one truth weight per point of the region: zip would drop or ignore the rest
    for weights in ((1.0,), (0.2, 0.3, 0.5)):
        with pytest.raises(ValueError, match="one weight per point"):
            grid_spec(weights=weights)
    with pytest.raises(ValueError, match="h0_weights needs one weight per point"):
        replace(grid_spec(), h0_weights=(0.5, 0.5))
    with pytest.raises(ValueError, match="truth weights only make sense with a grid"):
        replace(simple_spec(), h1_weights=(1.0,))
    with pytest.raises(ValueError):
        PolicyConfig(m=0)
    with pytest.raises(ValueError):
        PolicyConfig(zeta=1.0)


def test_certain_abnormal_is_declared_with_high_probability():
    spec = simple_spec(prior=1.0, beta=1e-2)
    hits = 0
    episodes = 2000
    for ep in range(episodes):
        res = run_episode(EpisodePaths([spec], np.random.SeedSequence((1, ep))), PolicyConfig())
        hits += res.declared[0]
    md_rate = 1 - hits / episodes
    bound = 0.01 / 0.99
    assert md_rate <= bound + 3 * math.sqrt(bound * (1 - bound) / episodes)


def test_all_normal_truth_costs_nothing():
    specs = [simple_spec(prior=0.0), simple_spec(prior=0.0), simple_spec(prior=0.0)]
    for ep in range(50):
        res = run_episode(EpisodePaths(specs, np.random.SeedSequence((2, ep))), PolicyConfig())
        assert res.truth == (False, False, False)
        assert res.cost == 0.0


def test_full_budget_probes_everyone_every_instant():
    specs = [simple_spec(), simple_spec()]
    for ep in range(30):
        res = run_episode(EpisodePaths(specs, np.random.SeedSequence((3, ep))), PolicyConfig(m=2))
        assert res.stop_times == res.samples  # no contention, no delays
        assert res.idle_slots == 2 * res.final_time - sum(res.samples)


def test_time_conservation_across_policies_and_budgets():
    rng = np.random.default_rng(101)
    for trial in range(40):
        k = int(rng.integers(1, 6))
        m = int(rng.integers(1, k + 1))
        specs = [
            simple_spec(
                prior=float(rng.uniform(0.1, 0.9)),
                cost=float(rng.uniform(0.5, 5.0)),
                delay=int(rng.integers(0, 3)),
            )
            for _ in range(k)
        ]
        kind = PolicyKind.CL if trial % 2 == 0 else PolicyKind.OL
        res = run_episode(EpisodePaths(specs, np.random.SeedSequence((4, trial))), PolicyConfig(kind=kind, m=m))
        assert sum(res.samples) + m * res.total_delay + res.idle_slots == m * res.final_time
        assert all(tau <= res.final_time for tau in res.stop_times)


def test_cost_matches_accounting_rule():
    specs = [simple_spec(prior=0.6, cost=2.5), simple_spec(prior=0.4, cost=1.0)]
    saw_miss = False
    for ep in range(300):
        res = run_episode(EpisodePaths(specs, np.random.SeedSequence((5, ep))), PolicyConfig())
        expect = sum(
            specs[i].cost_rate * res.stop_times[i]
            for i in range(2)
            if res.truth[i] and res.declared[i]
        )
        assert res.cost == expect
        saw_miss = saw_miss or any(res.miss_detects)
    assert saw_miss  # the exclusion branch was actually exercised


def test_error_flags_and_rates_within_wald_bounds():
    specs = [simple_spec(prior=0.5), simple_spec(prior=0.5)]
    episodes = 10_000
    fa = normal = md = abnormal = 0
    for ep in range(episodes):
        res = run_episode(EpisodePaths(specs, np.random.SeedSequence((6, ep))), PolicyConfig())
        for i in range(2):
            if res.truth[i]:
                abnormal += 1
                md += res.miss_detects[i]
            else:
                normal += 1
                fa += res.false_alarms[i]
    bound = 0.01 / 0.99
    assert fa / normal <= bound + 3 * math.sqrt(bound * (1 - bound) / normal)
    assert md / abnormal <= bound + 3 * math.sqrt(bound * (1 - bound) / abnormal)


def test_switching_delays_stretch_the_clock():
    specs = [simple_spec(delay=2), simple_spec(delay=0)]
    res = run_episode(EpisodePaths(specs, np.random.SeedSequence(7), trace=True), PolicyConfig())
    assert res.total_delay >= 2  # first entry into process 1 pays at least once
    assert res.final_time == len(res.trace) + res.total_delay
    recomputed = sum(step.delay for step in res.trace)
    assert recomputed == res.total_delay


def test_reprobe_after_interruption_pays_the_delay_again():
    specs = [simple_spec(delay=1), simple_spec(delay=0)]
    res = run_episode(EpisodePaths(specs, np.random.SeedSequence(8), trace=True), PolicyConfig())
    entries = 0
    prev: tuple[int, ...] = ()
    for step in res.trace:
        entries += sum(1 for pid in step.selected if pid not in prev and pid == 1)
        prev = step.selected
    assert res.total_delay == entries  # one unit per entry of process 1


def test_reproducibility_bit_identical():
    specs = [simple_spec(prior=0.4, cost=2.0), grid_spec(prior=0.6, cost=1.0)]
    a = run_episode(EpisodePaths(specs, np.random.SeedSequence(99), trace=True), PolicyConfig())
    b = run_episode(EpisodePaths(specs, np.random.SeedSequence(99), trace=True), PolicyConfig())
    assert a == b


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    entropy=st.integers(0, 2**128),
    key=st.lists(st.integers(0, 2**64), max_size=3),
    n=st.one_of(st.integers(1, 20), st.integers(1, 1001)),
)
@example(entropy=2**40, key=[0, 0], n=1001)  # a run's seed at K = 1000
def test_child_generators_equal_numpys_seed_sequence(entropy, key, n):
    # the shared hash must give every child the state numpy's own
    # SeedSequence mixing gives it, so a numpy change fails here
    seed = np.random.SeedSequence(entropy, spawn_key=tuple(key))
    rngs = _child_generators(seed, n)
    assert len(rngs) == n
    for i, rng in enumerate(rngs):
        expected = np.random.default_rng(np.random.SeedSequence(entropy=entropy, spawn_key=tuple(key) + (i,)))
        assert rng.bit_generator.state == expected.bit_generator.state


def test_child_generators_of_a_sequence_entropy_go_through_seed_sequence():
    seed = np.random.SeedSequence((1, 2**40), spawn_key=(3,))
    for i, rng in enumerate(_child_generators(seed, 3)):
        expected = np.random.default_rng(np.random.SeedSequence(entropy=(1, 2**40), spawn_key=(3, i)))
        assert rng.bit_generator.state == expected.bit_generator.state


def test_truth_drawn_at_once_equals_one_draw_per_process():
    # one vector draw gives the scalar draws' doubles and leaves the truth
    # generator where they leave it, so the grid truth models drawn next
    # come out the same
    specs = [simple_spec(prior=0.3), grid_spec(prior=0.6), simple_spec(prior=0.9), grid_spec(prior=0.1, weights=(0.3, 0.7))]
    for entropy in range(20):
        seed = np.random.SeedSequence(entropy, spawn_key=(2,))
        paths = EpisodePaths(specs, seed)
        meta_rng = _child_generators(seed, len(specs) + 1)[0]
        truth = tuple(bool(meta_rng.random() < spec.prior) for spec in specs)
        assert paths.truth == truth
        assert paths.truth_models == tuple(_draw_truth_model(s, a, meta_rng) for s, a in zip(specs, truth))


def test_importing_the_command_line_leaves_numpy_random_unloaded():
    # numpy.random loads at the first episode's seeding, not at import
    src = str(Path(seqscan.__file__).resolve().parents[1])
    code = "import sys, seqscan.cli; print('numpy.random' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_common_random_numbers_share_truth_across_policies():
    specs = [simple_spec(prior=0.5), simple_spec(prior=0.5), simple_spec(prior=0.5)]
    for ep in range(20):
        seed = np.random.SeedSequence((9, ep))
        cl = run_episode(EpisodePaths(specs, seed), PolicyConfig(kind=PolicyKind.CL))
        ol = run_episode(EpisodePaths(specs, seed), PolicyConfig(kind=PolicyKind.OL))
        assert cl.truth == ol.truth
        assert cl.truth_models == ol.truth_models


def test_unprobed_indices_do_not_move():
    specs = [simple_spec(prior=0.3, cost=1.0), simple_spec(prior=0.7, cost=2.0),
             simple_spec(prior=0.5, cost=1.5)]
    res = run_episode(EpisodePaths(specs, np.random.SeedSequence(11), trace=True), PolicyConfig())
    for prev, step in zip(res.trace, res.trace[1:]):
        for pid in range(1, 4):
            if pid not in step.selected:
                assert step.indices[pid - 1] == prev.indices[pid - 1]


def test_exploration_instants_rotate_in_trace():
    specs = [simple_spec(prior=0.9, cost=5.0), simple_spec(prior=0.1, cost=1.0),
             simple_spec(prior=0.1, cost=1.0)]
    res = run_episode(EpisodePaths(specs, np.random.SeedSequence(12), trace=True), PolicyConfig(zeta=1.7))
    by_instant = {step.instant: step for step in res.trace}
    # instant 2 is the first exploration instant and must pick process 1
    # (nothing was declared by then in this configuration)
    if 2 in by_instant and len(by_instant[2].selected) == 1:
        assert by_instant[2].selected == (1,)


def test_open_loop_builds_no_ranking(monkeypatch):
    # open loop walks a frozen order, its tables' open-loop keys sorted
    # once per episode, so no open-loop run builds closed loop's ranking;
    # repeated specs tie, and the order keeps the lowest id first
    def refuse(cls, indices):
        raise AssertionError("open loop built a ranking")

    monkeypatch.setattr("seqscan.engine.PolicyState.fresh", classmethod(refuse))
    specs = [simple_spec(prior=0.2), simple_spec(cost=3.0), grid_spec(weights=(0.3, 0.7)),
             simple_spec(cost=3.0), simple_spec(prior=0.1, cost=2.0, delay=2)]
    for m in (1, 3):
        for seed in range(4):
            assert assert_matches_replay(specs, PolicyConfig(PolicyKind.OL, m), seed) == "finished"
    with pytest.raises(AssertionError, match="built a ranking"):
        run_episode(EpisodePaths(specs, np.random.SeedSequence(0)), PolicyConfig(PolicyKind.CL, 3))


def test_open_loop_probes_to_completion_in_order():
    specs = [simple_spec(prior=0.5, cost=1.0), simple_spec(prior=0.5, cost=3.0),
             simple_spec(prior=0.5, cost=2.0)]
    # open loop's frozen order: the open-loop keys, descending
    order = tuple(sorted((1, 2, 3), key=lambda pid: -specs[pid - 1].table.keys[1]))
    assert order == (2, 3, 1)
    res = run_episode(EpisodePaths(specs, np.random.SeedSequence(13), trace=True), PolicyConfig(kind=PolicyKind.OL))
    seen = [step.selected[0] for step in res.trace if step.selected]
    # collapse runs: the probed id changes only at declarations, walking the order
    collapsed = [seen[0]]
    for pid in seen[1:]:
        if pid != collapsed[-1]:
            collapsed.append(pid)
    assert tuple(collapsed) == order


def test_open_loop_multi_probe_fills_freed_slots_in_order():
    specs = [simple_spec(prior=0.5, cost=c) for c in (4.0, 3.0, 2.0, 1.0)]
    res = run_episode(EpisodePaths(specs, np.random.SeedSequence(14), trace=True), PolicyConfig(kind=PolicyKind.OL, m=2))
    first_seen = {}
    for step in res.trace:
        for pid in step.selected:
            first_seen.setdefault(pid, step.instant)
    # processes 1 and 2 start immediately; 3 and 4 start strictly later
    assert first_seen[1] == first_seen[2] == 1
    assert first_seen[3] > 1 and first_seen[4] > 1


def test_forced_truth_and_episode_cap():
    twin = ProcessSpec(
        prior=0.5,
        cost_rate=1.0,
        alpha=1e-2,
        beta=1e-2,
        grid=ParameterGrid(
            (Poisson(10.0), Poisson(10.0)), (Region.THETA0, Region.THETA1)
        ),
    )
    with pytest.raises(SimulationError):
        run_episode(EpisodePaths([twin], np.random.SeedSequence(15)), PolicyConfig(), time_cap=500)

    paths = EpisodePaths([simple_spec(), simple_spec()], np.random.SeedSequence(16), forced_truth=(True, False))
    res = run_episode(paths, PolicyConfig())
    assert res.truth == (True, False)


def test_argument_errors():
    with pytest.raises(ValueError, match="^need at least one process$"):
        EpisodePaths([], np.random.SeedSequence(17))
    with pytest.raises(ValueError, match="^forced truth length must match process count$"):
        EpisodePaths([simple_spec()], np.random.SeedSequence(17), forced_truth=(True, False))
    paths = EpisodePaths([simple_spec(), simple_spec()], np.random.SeedSequence(17))
    for kind in PolicyKind:
        with pytest.raises(ValueError, match="^probe budget 3 exceeds process count 2$"):
            run_episode(paths, PolicyConfig(kind=kind, m=3))
    # the refused runs read nothing, so the paths still serve a run
    assert run_episode(paths, PolicyConfig(m=2)) == run_episode(
        EpisodePaths([simple_spec(), simple_spec()], np.random.SeedSequence(17)), PolicyConfig(m=2)
    )


POLICIES = {
    "CL": lambda m: PolicyConfig(PolicyKind.CL, m, 1.3),
    "OL": lambda m: PolicyConfig(PolicyKind.OL, m, 1.7),
    "CL-no-explore": lambda m: PolicyConfig(PolicyKind.CL, m, math.inf),
}


def test_spec_table_never_caches_an_impossible_increment():
    # category 2 has no mass under H1: its increment is -inf whenever drawn
    spec = ProcessSpec(
        prior=0.5, cost_rate=1.0, alpha=1e-6, beta=1e-6,
        model_h0=Categorical((0.4, 0.3, 0.3)),
        model_h1=Categorical((0.3, 0.7, 0.0)),
    )
    messages = []
    for _ in range(2):
        with pytest.raises(ValueError, match="LLR increment must be finite") as exc:
            run_episode(EpisodePaths([spec], np.random.SeedSequence(4), forced_truth=(False,)), PolicyConfig())
        messages.append(str(exc.value))
        assert 2 not in spec.table.increments
    assert messages[0] == messages[1]


def test_spec_table_shared_across_episodes_equals_fresh_copies():
    # one spec object serves every process and episode, so later episodes
    # read increments that earlier ones cached
    shared = simple_spec(alpha=1e-3, beta=1e-4, r0=4.0, r1=5.0)
    for kind, m in ((PolicyKind.CL, 1), (PolicyKind.OL, 2), (PolicyKind.CL, 3)):
        policy = PolicyConfig(kind=kind, m=m, zeta=1.3)
        for seed in range(4):
            got = run_episode(EpisodePaths([shared] * 3, np.random.SeedSequence(seed)), policy)
            fresh = [replace(shared) for _ in range(3)]
            assert got == run_episode(EpisodePaths(fresh, np.random.SeedSequence(seed)), policy)
    assert len(shared.table.increments) > 5


def _former_point_size(spec, point):
    """The expected size of a grid estimate as it was derived on every
    priority call: boundary over the floored divergence from the
    estimate to the opposing region, indifference to the nearer one."""
    grid, b = spec.grid, composite_boundaries(spec.alpha, spec.beta)
    region = grid.regions[point]
    d_to_t0, d_to_t1 = grid.nearest_kl[point]
    if region is Region.INDIFFERENCE:
        region = Region.THETA0 if d_to_t0 <= d_to_t1 else Region.THETA1
    if region is Region.THETA0:
        return b.b0 / max(d_to_t1, 1.0 / KL_SATURATION)
    return b.b1 / max(d_to_t0, 1.0 / KL_SATURATION)


def _former_initial_priority(spec):
    """The pre-data priority of a grid spec as it was derived per call."""
    grid, b = spec.grid, composite_boundaries(spec.alpha, spec.beta)
    e1 = sum(w * b.b1 / max(grid.nearest_kl[i][0], 1e-12) for i, w in spec.truth_points(True))
    e0 = sum(w * b.b0 / max(grid.nearest_kl[i][1], 1e-12) for i, w in spec.truth_points(False))
    return index(spec.prior, spec.cost_rate, spec.prior * e1 + (1.0 - spec.prior) * e0)


def test_grid_table_equals_the_per_call_formulas():
    # non-dyadic truth weights, where w * b / d and w * (b / d) can part
    # by an ulp, and an indifference point; == throughout
    t0, t1, mid = Region.THETA0, Region.THETA1, Region.INDIFFERENCE
    thirds = (1 / 3, 1 / 3, 1 / 3)
    specs = [
        grid_spec(weights=(0.3, 0.7)),
        grid_spec(rates=((10.0,), (11.0, 13.0, 17.0)), weights=thirds, alpha=1e-3, beta=1e-5),
        replace(grid_spec(rates=((7.0, 9.0), (12.0, 15.0)), weights=(0.7, 0.3)), h0_weights=(0.3, 0.7)),
        ProcessSpec(
            prior=0.5, cost_rate=2.0, alpha=0.05, beta=1e-4,
            grid=ParameterGrid(tuple(Poisson(r) for r in (11.0, 10.0, 12.5, 16.0, 9.0)), (mid, t0, mid, t1, t0)),
            h0_weights=(0.3, 0.7),
        ),
        # a point equally far from both regions takes the normal side
        ProcessSpec(
            prior=0.9, cost_rate=1.0, alpha=1e-3, beta=1e-3,
            grid=ParameterGrid(tuple(Gaussian(x, 1.0) for x in (1.0, 0.0, 2.0)), (mid, t0, t1)),
        ),
    ]
    for spec in specs:
        for prior in (spec.prior, 0.3, 0.7, 0.0, 1.0):
            at = replace(spec, prior=prior)
            assert at.table.sizes == tuple(_former_point_size(at, i) for i in range(len(at.grid)))
            assert at.table.keys[1] == _former_initial_priority(at)
            assert at.table.keys[0] == index(at.prior, at.cost_rate, at.table.sizes[0])


def test_grid_boundaries_are_built_once_per_spec(monkeypatch):
    from seqscan import engine

    calls = []

    def counted(alpha, beta):
        calls.append((alpha, beta))
        return composite_boundaries(alpha, beta)

    monkeypatch.setattr(engine, "composite_boundaries", counted)
    one, other = grid_spec(), grid_spec(alpha=1e-3)
    for kind in PolicyKind:
        for seed in range(3):
            run_episode(EpisodePaths([one, other, one, one], np.random.SeedSequence(seed)), PolicyConfig(kind=kind, m=2))
    assert calls == [(1e-2, 1e-2), (1e-3, 1e-2)]


def test_time_cap_fires_at_the_same_instant_traced_or_not():
    # a lone probe's stretch must stop at the cap; each cap either fails
    # the runs and the replay with the same message (same undecided count)
    # or lets all three finish alike
    slow = simple_spec(alpha=1e-3, beta=1e-3, r0=10.0, r1=11.0, delay=1)
    fast = simple_spec(alpha=0.05, beta=0.05, r0=10.0, r1=20.0, delay=2)
    outcomes = set()
    # CL at zeta 1.005 explores at every instant up to about 200, so a
    # stretch runs through exploration instants into the cap
    for make in (*POLICIES.values(), lambda m: PolicyConfig(PolicyKind.CL, m, 1.005)):
        for m in (1, 2):
            policy = make(m)
            for cap in range(1, 61):
                outcomes.add(assert_matches_replay([fast, slow], policy, 23, time_cap=cap))
                if m == 1:
                    outcomes.add(assert_matches_replay([fast], policy, 24, time_cap=cap))
    assert outcomes == {"finished", "SimulationError"}


# an infinite LLR increment of either sign: observation 0 is impossible
# under model_h1 and 2 under model_h0, and 1 leaves the LLR sum at 0
IMPOSSIBLE = ProcessSpec(
    prior=0.5, cost_rate=1.0, alpha=1e-2, beta=1e-2,
    model_h0=Categorical((0.6, 0.4, 0.0)), model_h1=Categorical((0.0, 0.4, 0.6)), switch_delay=1,
)
PASS_LOOP_POOL = [
    simple_spec(alpha=0.05, beta=0.05, r0=10.0, r1=20.0),
    simple_spec(alpha=1e-3, beta=1e-3, r0=10.0, r1=11.0, delay=1),
    simple_spec(alpha=0.05, beta=0.05, r0=10.0, r1=20.0, delay=2),
    simple_spec(alpha=1e-2, beta=1e-2, r0=10.0, r1=13.0, delay=1),
    simple_spec(alpha=0.1, beta=0.1, r0=5.0, r1=9.0),
    simple_spec(alpha=1e-2, beta=1e-2, r0=10.0, r1=15.0, delay=2),
    simple_spec(alpha=0.2, beta=0.2, r0=2.0, r1=20.0, delay=1),
    IMPOSSIBLE,
]


def _pass_loop_specs(seed, k):
    return [PASS_LOOP_POOL[(seed + j // 2) % len(PASS_LOOP_POOL)] for j in range(k)]  # some ids tie


def test_open_loop_lanes_match_the_reference_replay_at_every_time_cap():
    # open loop at every M runs each probed id to its declaration in one
    # scan, the last active id included; declarations at one pass, idle
    # slots once fewer than M are active, the cap and an impossible
    # observation must all fall as the step-by-step replay has them
    outcomes = set()
    for seed in range(len(PASS_LOOP_POOL)):
        for k in range(3, 7):
            specs = _pass_loop_specs(seed, k)
            for m in (1, 2, 3):
                for cap in range(1, 61):
                    outcomes.add(assert_matches_replay(specs, PolicyConfig(PolicyKind.OL, m), seed, time_cap=cap))
    assert outcomes == {"finished", "SimulationError", "ValueError"}


def test_closed_loop_passes_match_the_reference_replay_at_every_time_cap():
    # closed loop at M > 1 reads its held ids in the selection's order and
    # runs the last active id as one-id blocks, stretches; the selection a
    # pass settles or rotates to, its entering delays, declarations at one
    # pass, the cap and the error of an impossible observation must all
    # fall as the step-by-step replay, which reads in the selection's
    # order, has them
    outcomes = set()
    for seed in range(len(PASS_LOOP_POOL)):
        for k in range(3, 8):
            specs = _pass_loop_specs(seed, k)
            for m in (2, 3):
                for zeta in (1.05, 1.7, math.inf):
                    policy = PolicyConfig(PolicyKind.CL, m, zeta)
                    for cap in (*range(1, 41), TIME_CAP):
                        outcomes.add(assert_matches_replay(specs, policy, seed, time_cap=cap))
    assert outcomes == {"finished", "SimulationError", "ValueError"}


def test_the_last_active_id_pays_its_delay_only_if_it_was_not_held():
    # K = 3 at M = 2 with switch delays 1, 2 and 3; ids 1 and 2 are
    # selected first. With ids 2 and 3 slow, id 2 is still held when id 3
    # declares, so the stretch it is left to charges no delay; with ids 1
    # and 2 fast, both declare at one pass while id 3 is ranked, so its
    # stretch pays id 3's delay
    fast = simple_spec(alpha=0.2, beta=0.2, r0=2.0, r1=20.0, delay=1)
    slow, cheap = simple_spec(delay=2), simple_spec(cost=0.5, delay=3)
    truth = (True, False, True)
    for specs, last, delay in (([fast, slow, cheap], 2, 0), ([fast, replace(fast, switch_delay=2), cheap], 3, 3)):
        for zeta in (1.05, math.inf):
            assert assert_matches_replay(specs, PolicyConfig(PolicyKind.CL, 2, zeta), 0, forced_truth=truth) == "finished"
        paths = EpisodePaths(specs, np.random.SeedSequence(0), forced_truth=truth, trace=True)
        trace = run_episode(paths, PolicyConfig(PolicyKind.CL, 2, math.inf)).trace
        n = next(n for n, step in enumerate(trace) if len(step.selected) == 1)
        assert trace[n].selected == (last,) and trace[n].delay == delay
        assert (last in trace[n - 1].selected) == (delay == 0)


# an index that overflows once the posterior passes about 0.9: a cost of
# 1e308 over an H1 size of 0.29, though both keys before any data are finite
OVERFLOW = ProcessSpec(
    prior=0.5, cost_rate=1e308, alpha=1e-6, beta=1e-2, model_h0=Gaussian(0.0, 1.0), model_h1=Gaussian(0.0, 10.0)
)
# the same cost, with an index that stays finite: the absorbing prior 0
# holds it at 0, and with the models swapped it rises with the belief
# toward the cost over the H1 size, 2.55, never over the H0 size, 0.29
ABSORBED = replace(OVERFLOW, prior=0.0)
TOWARD_H1 = ProcessSpec(
    prior=0.5, cost_rate=1e308, alpha=1e-2, beta=1e-6, model_h0=Gaussian(0.0, 10.0), model_h1=Gaussian(0.0, 1.0)
)


def test_a_spec_is_refused_exactly_when_its_index_could_overflow():
    # OVERFLOW's table refuses it, so an episode on it raises while its
    # paths are built, before any run could read an infinite index; the
    # same cost builds where the index stays finite
    h0, h1 = OVERFLOW.model_h0, OVERFLOW.model_h1
    e_n_h0, e_n_h1 = expected_sample_sizes(1e-6, 1e-2, finite_kl(h0, h1), finite_kl(h1, h0))
    assert round(e_n_h1, 2) == 0.29
    for log_odds in (0.0, None):
        assert math.isfinite(_pair_index(0.5, log_odds, 0.0, 1e308, e_n_h0, e_n_h1))
    message = f"^the indices before and after any data are bounded by cost 1e\\+308 over size {e_n_h1}, which overflows$"
    with pytest.raises(ValueError, match=message):
        OVERFLOW.table
    for specs in ([OVERFLOW, simple_spec()], [simple_spec(), OVERFLOW]):
        with pytest.raises(ValueError, match=message):
            EpisodePaths(specs, np.random.SeedSequence(0))
    assert ABSORBED.table.keys == (0.0, 0.0)
    assert (round(TOWARD_H1.table.e_n_h0, 2), round(TOWARD_H1.table.e_n_h1, 2)) == (0.29, 2.55)


@pytest.mark.parametrize("spec", [ABSORBED, TOWARD_H1], ids=["absorbed", "toward_h1"])
def test_a_huge_cost_whose_index_stays_finite_runs_as_the_replay(spec):
    # beside a Poisson pair; the huge-cost process is forced normal, so the
    # episode's cost sums no stop time of it
    specs = [spec, simple_spec()]
    for m in (1, 2):
        for policy in (PolicyConfig(PolicyKind.CL, m, 1.05), PolicyConfig(PolicyKind.CL, m, math.inf), PolicyConfig(PolicyKind.OL, m)):
            for seed in range(3):
                assert assert_matches_replay(specs, policy, seed, forced_truth=(False, True)) == "finished"


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    spec=st.one_of(replay_pair_specs(), replay_grid_specs()),
    abnormal=st.booleans(),
    statistic=st.sampled_from(list(StatisticKind)),
    seed=st.integers(0, 2**32 - 1),
)
@example(spec=ABSORBED, abnormal=False, statistic=StatisticKind.GLR, seed=0)
@example(spec=TOWARD_H1, abnormal=True, statistic=StatisticKind.GLR, seed=0)
def test_every_index_stays_at_or_below_the_tables_bound(spec, abnormal, statistic, seed):
    # the largest reachable belief times the cost over the least size the
    # index divides by, up to a few ulps, far inside the table's headroom:
    # the keys, the indices a pair's pass stores and a grid's series, and
    # what priority and advance compute
    least = min(spec.table.sizes) if spec.is_composite else spec.table.e_n_h1
    bound = (1.0 if spec.prior else 0.0) * spec.cost_rate / least * (1.0 + 2.0**-48)
    path = EpisodePaths([spec], np.random.SeedSequence(seed), statistic, forced_truth=(abnormal,)).paths[0]
    path.extend(300, TIME_CAP)
    if not spec.is_composite:
        path.fill_indices()
    last = len(path.series) - 1
    values = [*spec.table.keys, *path.indices, *map(path.priority, range(last + 1))]
    values += [path.advance(pos, 1, -math.inf, TIME_CAP)[2] for pos in range(last)]
    assert max(values) <= bound


def test_two_impossible_reads_at_one_pass_raise_the_first_in_selection_order():
    # ids 1 and 2 (abnormal, normal) keep equal indices until each meets
    # an impossible observation, here both at their second step, of
    # opposite signs; the selection reads id 1 first, the tie going to the
    # lower id: settling leaves id 2's key before id 1's, and the pass
    # sorts them into the selection's order before it reads
    specs, truth, seed = [IMPOSSIBLE, IMPOSSIBLE, simple_spec(cost=0.1)], (True, False, False), 15
    walks = EpisodePaths(specs, np.random.SeedSequence(seed), forced_truth=truth).paths
    errors = []
    for path in walks[:2]:
        with pytest.raises(ValueError) as exc:
            for pos in range(100):
                path.advance(pos, 1, -math.inf, TIME_CAP)
        errors.append((pos, str(exc.value)))
    assert errors == [(1, "LLR increment must be finite, got inf"), (1, "LLR increment must be finite, got -inf")]
    policy = PolicyConfig(PolicyKind.CL, 2, math.inf)
    assert assert_matches_replay(specs, policy, seed, forced_truth=truth) == "ValueError"
    with pytest.raises(ValueError, match="got inf"):
        run_episode(EpisodePaths(specs, np.random.SeedSequence(seed), forced_truth=truth), policy)


def test_the_last_active_id_runs_through_exploration_instants_in_one_call(monkeypatch):
    # every exploration instant picks the one id left active, so an
    # untraced run scans it to its declaration in one call, however many
    # instants (about one in five steps near t = 1000) it spans: a lone
    # process at M = 1, and at M = 2 the process that outlives the other,
    # after passes of one read per probed id, each a read of the stored
    # index but the one that declares
    fast = simple_spec(alpha=0.05, beta=0.05, r0=10.0, r1=20.0)
    slow = simple_spec(alpha=1e-3, beta=1e-3, r0=10.0, r1=10.5)
    calls, reads = [], []

    class CountedIndices(array):
        def __getitem__(self, pos):
            if pos:  # step 0 is read only to rank the ids before the first pass
                reads.append(pos)
            return super().__getitem__(pos)

    def counted(paths):
        for path in paths.paths:
            path.indices = CountedIndices("d", [path.priority(0)])
        return paths

    advance = _PairPath.advance
    monkeypatch.setattr(_PairPath, "advance", lambda path, *args: calls.append(path) or advance(path, *args))
    lone = run_episode(counted(EpisodePaths([slow], np.random.SeedSequence(5))), PolicyConfig(PolicyKind.CL, 1, 1.005))
    assert lone.final_time > 300 and len(calls) == 1 and not reads
    calls.clear()
    paths = counted(EpisodePaths([fast, slow], np.random.SeedSequence(5), forced_truth=(True, False)))
    pair = run_episode(paths, PolicyConfig(PolicyKind.CL, 2, 1.005))
    assert pair.stop_times[1] - pair.stop_times[0] > 100
    assert len(reads) == 2 * pair.samples[0] - 1 and len(calls) == 1


def _count_fills(monkeypatch) -> list:
    fills, fill = [], _PairPath.fill_indices
    monkeypatch.setattr(_PairPath, "fill_indices", lambda path: fills.append(path) or fill(path))
    return fills


def test_a_second_closed_loop_policy_reads_the_stored_index_and_fills_none(monkeypatch):
    # a step's index does not depend on the policy: the first closed-loop
    # run at M > 1 indexes the steps its passes read, in bulk, and a
    # second one on the same paths, after open loop, only reads them
    fills = _count_fills(monkeypatch)
    spec = simple_spec(prior=0.1, r0=10.0, r1=12.0)
    for k, m, seed in ((8, 2, 0), (20, 3, 1), (50, 5, 2)):
        paths = EpisodePaths([spec] * k, np.random.SeedSequence(seed))
        run_episode(paths, PolicyConfig(PolicyKind.CL, m))
        assert fills
        fills.clear()
        run_episode(paths, PolicyConfig(PolicyKind.OL, m))
        run_episode(paths, PolicyConfig(PolicyKind.CL, m, math.inf))
        assert not fills


def test_lone_probes_and_open_loop_lanes_never_fill_the_stored_index(monkeypatch):
    # M = 1 runs (a fig5-like pair under dense exploration) and open loop
    # at M > 1 compute each index they read and store none
    fills = _count_fills(monkeypatch)
    near = simple_spec(alpha=1e-3, beta=1e-3, r0=10.0, r1=11.0)
    paths = EpisodePaths([near, near], np.random.SeedSequence(3))
    for policy in (PolicyConfig(PolicyKind.CL, 1, 1.005), PolicyConfig(PolicyKind.CL, 1, math.inf), PolicyConfig(PolicyKind.OL)):
        assert run_episode(paths, policy).final_time > 100
    for m in (2, 3):
        run_episode(EpisodePaths([simple_spec(prior=0.1)] * 12, np.random.SeedSequence(m)), PolicyConfig(PolicyKind.OL, m))
    assert not fills


@st.composite
def grid_specs(draw):
    theta0 = draw(st.lists(st.floats(1.0, 10.0), min_size=1, max_size=2))
    theta1 = [max(theta0) * f for f in draw(st.lists(st.floats(1.4, 2.5), min_size=1, max_size=2))]
    middle = [(max(theta0) + min(theta1)) / 2] if draw(st.booleans()) else []
    models = tuple(Poisson(r) for r in theta0 + theta1 + middle)
    regions = (
        (Region.THETA0,) * len(theta0)
        + (Region.THETA1,) * len(theta1)
        + (Region.INDIFFERENCE,) * len(middle)
    )
    budget = st.floats(1e-4, 0.2)
    return ProcessSpec(
        prior=draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.05, 0.95))),
        cost_rate=draw(st.floats(0.1, 5.0)),
        alpha=draw(budget),
        beta=draw(budget),
        grid=ParameterGrid(models, regions),
        switch_delay=draw(st.integers(0, 2)),
    )


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    specs=st.lists(grid_specs(), min_size=1, max_size=4),
    policy=st.sampled_from(sorted(POLICIES)),
    statistic=st.sampled_from(list(StatisticKind)),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_grid_episode_untraced_equals_traced(specs, policy, statistic, seed, data):
    # both runs take each lone probe to its next event, and the traced
    # one's rebuilt trace equals the replay's instant by instant
    config = POLICIES[policy](data.draw(st.integers(1, len(specs)), label="m"))
    assert assert_matches_replay(specs, config, seed, statistic, 20_000) in ("finished", "SimulationError")


@st.composite
def pair_specs(draw):
    r0 = draw(st.floats(1.0, 10.0))
    budget = st.floats(1e-3, 0.2)
    return ProcessSpec(
        prior=draw(st.floats(0.05, 0.95)),
        cost_rate=draw(st.floats(0.1, 5.0)),
        alpha=draw(budget),
        beta=draw(budget),
        model_h0=Poisson(r0),
        model_h1=Poisson(r0 * draw(st.floats(1.3, 2.5))),
        switch_delay=draw(st.integers(0, 2)),
    )


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    pool=st.lists(st.one_of(pair_specs(), grid_specs()), min_size=1, max_size=3),
    picks=st.lists(st.integers(0, 2), min_size=1, max_size=5),
    m=st.integers(1, 3),
    statistic=st.sampled_from(list(StatisticKind)),
    seed=st.integers(0, 2**32 - 1),
)
def test_open_loop_probes_the_first_active_ids_of_the_pre_data_order(pool, picks, m, statistic, seed):
    # a repeated spec ties on priority, which goes to the lowest id; a
    # process is active at an instant up to and including its stop time
    specs = [pool[i % len(pool)] for i in picks]
    m = min(m, len(specs))
    paths = EpisodePaths(specs, np.random.SeedSequence(seed), statistic, trace=True)
    res = run_episode(paths, PolicyConfig(kind=PolicyKind.OL, m=m))
    order = sorted(range(1, len(specs) + 1), key=lambda pid: (-specs[pid - 1].table.keys[1], pid))
    for step in res.trace:
        active = [pid for pid in order if res.stop_times[pid - 1] >= step.instant]
        assert step.selected == tuple(active[:m])


def test_lower_bound_frozen_value():
    specs = [simple_spec(cost=1.0, alpha=1e-3, beta=1e-6) for _ in range(3)]
    bound = lower_bound_oracle(specs, truth=(True, True, False))
    # two abnormal, equal ratios: 3 * B/D = 3 * 6.9078/1.0820
    assert bound == pytest.approx(19.153152131761927, abs=1e-9)
    assert lower_bound_oracle(specs, truth=(False, False, False)) == 0.0


def test_lower_bound_boundary_linearity():
    alpha, beta = 1e-3, 1e-6
    doubled_alpha = alpha**2 / (1 - beta)  # makes log((1-beta)/alpha) exactly double
    specs1 = [simple_spec(cost=1.0, alpha=alpha, beta=beta) for _ in range(2)]
    specs2 = [simple_spec(cost=1.0, alpha=doubled_alpha, beta=beta) for _ in range(2)]
    b1 = lower_bound_oracle(specs1, truth=(True, True))
    b2 = lower_bound_oracle(specs2, truth=(True, True))
    assert b2 == pytest.approx(2 * b1, rel=1e-12)


def test_lower_bound_orders_by_cost_over_time():
    # distinct costs, equal tests: the pricier process is counted first
    specs = [simple_spec(cost=1.0), simple_spec(cost=10.0)]
    w = lower_bound_oracle([simple_spec(cost=1.0)], truth=(True,))
    bound = lower_bound_oracle(specs, truth=(True, True))
    assert bound == pytest.approx(10.0 * w + 1.0 * 2 * w, rel=1e-9)


def test_lower_bound_multi_probe_stripes():
    specs = [simple_spec(cost=1.0, alpha=1e-3, beta=1e-6) for _ in range(4)]
    w = lower_bound_oracle([specs[0]], truth=(True,))
    bound = lower_bound_oracle(specs, truth=(True,) * 4, m=2)
    # two lanes of two: each lane contributes w + 2w
    assert bound == pytest.approx(6 * w, rel=1e-9)
    # three lanes of two, one and one: w + 2w, then w and w
    assert lower_bound_oracle(specs, truth=(True,) * 4, m=3) == pytest.approx(5 * w, rel=1e-9)
    with pytest.raises(ValueError):
        lower_bound_oracle(
            [simple_spec(cost=1.0), simple_spec(cost=2.0)], truth=(True, True), m=2
        )
    with pytest.raises(ValueError, match="probe budget"):
        lower_bound_oracle(specs, truth=(True,) * 4, m=0)


def test_lower_bound_composite_needs_realized_model():
    spec = grid_spec()
    with pytest.raises(ValueError):
        lower_bound_oracle([spec], truth=(True,))
    bound = lower_bound_oracle([spec], truth=(True,), truth_models=(Poisson(15.0),))
    assert bound > 0


def test_lower_bound_grid_reads_nearest_divergence_table():
    # duplicate points inside each region, and one model shared by both:
    # the table lookup must equal the scan over Theta0 bit for bit
    for models, regions in (
        (
            (Poisson(10.0), Poisson(10.0), Poisson(11.0), Poisson(15.0), Poisson(15.0), Poisson(20.0)),
            (Region.THETA0,) * 3 + (Region.THETA1,) * 3,
        ),
        (
            (Gaussian(0.0, 1.0), Gaussian(0.5, 1.0), Gaussian(0.5, 1.0), Gaussian(2.0, 1.5),
             Gaussian(2.0, 1.5), Gaussian(0.5, 1.0)),
            (Region.THETA0, Region.THETA0, Region.INDIFFERENCE, Region.THETA1, Region.THETA1,
             Region.THETA1),
        ),
    ):
        grid = ParameterGrid(models=models, regions=regions)
        spec = ProcessSpec(prior=0.5, cost_rate=1.5, alpha=1e-3, beta=1e-2, grid=grid)
        theta0 = [grid.models[j] for j in grid.indices(Region.THETA0)]
        for i in grid.indices(Region.THETA1):
            # an equal but distinct object, as a config round trip would give
            realized = type(grid.models[i])(**vars(grid.models[i]))
            d = min(finite_kl(realized, theta) for theta in theta0)
            if d == 0:
                with pytest.raises(ValueError, match="zero divergence"):
                    lower_bound_oracle([spec], (True,), (realized,))
                continue
            scan = spec.cost_rate * (wald_boundaries(spec.alpha, spec.beta).upper_b / d)
            assert lower_bound_oracle([spec], (True,), (realized,)) == scan
    with pytest.raises(ValueError, match="not a grid point"):
        lower_bound_oracle([spec], (True,), (Gaussian(9.0, 1.0),))
