"""Episode-engine tests: spec validation, conservation accounting,
switching delays, open-loop execution order, reproducibility, and the
analysis lower bound."""

from __future__ import annotations

import math

import numpy as np
import pytest

from seqscan.composite import ParameterGrid, Region
from seqscan.engine import (
    PolicyConfig,
    PolicyKind,
    ProcessSpec,
    SimulationError,
    a_priori_expected_size,
    apply_switching_delay,
    lower_bound_oracle,
    run_episode,
)
from seqscan.models import Gaussian, Poisson, finite_kl
from seqscan.policy import ol_order
from seqscan.sprt import wald_boundaries


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
    with pytest.raises(ValueError):
        PolicyConfig(m=0)
    with pytest.raises(ValueError):
        PolicyConfig(zeta=1.0)


def test_apply_switching_delay_rules():
    specs = [simple_spec(delay=1), simple_spec(delay=2), simple_spec(delay=0)]
    assert apply_switching_delay({1, 2}, (1, 2), specs) == 0
    assert apply_switching_delay({2}, (1,), specs) == 1
    assert apply_switching_delay(set(), (1, 2), specs) == 3
    assert apply_switching_delay({1}, (1, 3), specs) == 0


def test_certain_abnormal_is_declared_with_high_probability():
    spec = simple_spec(prior=1.0, beta=1e-2)
    hits = 0
    episodes = 2000
    for ep in range(episodes):
        res = run_episode([spec], PolicyConfig(), np.random.SeedSequence((1, ep)))
        hits += res.declared[0]
    md_rate = 1 - hits / episodes
    bound = 0.01 / 0.99
    assert md_rate <= bound + 3 * math.sqrt(bound * (1 - bound) / episodes)


def test_all_normal_truth_costs_nothing():
    specs = [simple_spec(prior=0.0), simple_spec(prior=0.0), simple_spec(prior=0.0)]
    for ep in range(50):
        res = run_episode(specs, PolicyConfig(), np.random.SeedSequence((2, ep)))
        assert res.truth == (False, False, False)
        assert res.cost == 0.0


def test_full_budget_probes_everyone_every_instant():
    specs = [simple_spec(), simple_spec()]
    for ep in range(30):
        res = run_episode(specs, PolicyConfig(m=2), np.random.SeedSequence((3, ep)))
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
        res = run_episode(
            specs,
            PolicyConfig(kind=kind, m=m),
            np.random.SeedSequence((4, trial)),
        )
        assert sum(res.samples) + m * res.total_delay + res.idle_slots == m * res.final_time
        assert all(tau <= res.final_time for tau in res.stop_times)


def test_cost_matches_accounting_rule():
    specs = [simple_spec(prior=0.6, cost=2.5), simple_spec(prior=0.4, cost=1.0)]
    saw_miss = False
    for ep in range(300):
        res = run_episode(specs, PolicyConfig(), np.random.SeedSequence((5, ep)))
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
        res = run_episode(specs, PolicyConfig(), np.random.SeedSequence((6, ep)))
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
    res = run_episode(
        specs, PolicyConfig(), np.random.SeedSequence(7), record_trace=True
    )
    assert res.total_delay >= 2  # first entry into process 1 pays at least once
    assert res.final_time == len(res.trace) + res.total_delay
    recomputed = sum(step.delay for step in res.trace)
    assert recomputed == res.total_delay


def test_reprobe_after_interruption_pays_the_delay_again():
    specs = [simple_spec(delay=1), simple_spec(delay=0)]
    res = run_episode(
        specs, PolicyConfig(), np.random.SeedSequence(8), record_trace=True
    )
    entries = 0
    prev: tuple[int, ...] = ()
    for step in res.trace:
        entries += sum(1 for pid in step.selected if pid not in prev and pid == 1)
        prev = step.selected
    assert res.total_delay == entries  # one unit per entry of process 1


def test_reproducibility_bit_identical():
    specs = [simple_spec(prior=0.4, cost=2.0), grid_spec(prior=0.6, cost=1.0)]
    a = run_episode(specs, PolicyConfig(), np.random.SeedSequence(99), record_trace=True)
    b = run_episode(specs, PolicyConfig(), np.random.SeedSequence(99), record_trace=True)
    assert a == b


def test_common_random_numbers_share_truth_across_policies():
    specs = [simple_spec(prior=0.5), simple_spec(prior=0.5), simple_spec(prior=0.5)]
    for ep in range(20):
        seed = np.random.SeedSequence((9, ep))
        cl = run_episode(specs, PolicyConfig(kind=PolicyKind.CL), seed)
        ol = run_episode(specs, PolicyConfig(kind=PolicyKind.OL), seed)
        assert cl.truth == ol.truth
        assert cl.truth_models == ol.truth_models


def test_unprobed_indices_do_not_move():
    specs = [simple_spec(prior=0.3, cost=1.0), simple_spec(prior=0.7, cost=2.0),
             simple_spec(prior=0.5, cost=1.5)]
    res = run_episode(specs, PolicyConfig(), np.random.SeedSequence(11), record_trace=True)
    for prev, step in zip(res.trace, res.trace[1:]):
        for pid in range(1, 4):
            if pid not in step.selected:
                assert step.indices[pid - 1] == prev.indices[pid - 1]


def test_exploration_instants_rotate_in_trace():
    specs = [simple_spec(prior=0.9, cost=5.0), simple_spec(prior=0.1, cost=1.0),
             simple_spec(prior=0.1, cost=1.0)]
    res = run_episode(
        specs, PolicyConfig(zeta=1.7), np.random.SeedSequence(12), record_trace=True
    )
    by_instant = {step.instant: step for step in res.trace}
    # instant 2 is the first exploration instant and must pick process 1
    # (nothing was declared by then in this configuration)
    if 2 in by_instant and len(by_instant[2].selected) == 1:
        assert by_instant[2].selected == (1,)


def test_open_loop_probes_to_completion_in_order():
    specs = [simple_spec(prior=0.5, cost=1.0), simple_spec(prior=0.5, cost=3.0),
             simple_spec(prior=0.5, cost=2.0)]
    order = ol_order(
        [s.prior for s in specs],
        [s.cost_rate for s in specs],
        [a_priori_expected_size(s) for s in specs],
    )
    assert order == (2, 3, 1)
    res = run_episode(
        specs, PolicyConfig(kind=PolicyKind.OL), np.random.SeedSequence(13), record_trace=True
    )
    seen = [step.selected[0] for step in res.trace if step.selected]
    # collapse runs: the probed id changes only at declarations, walking the order
    collapsed = [seen[0]]
    for pid in seen[1:]:
        if pid != collapsed[-1]:
            collapsed.append(pid)
    assert tuple(collapsed) == order


def test_open_loop_multi_probe_fills_freed_slots_in_order():
    specs = [simple_spec(prior=0.5, cost=c) for c in (4.0, 3.0, 2.0, 1.0)]
    res = run_episode(
        specs,
        PolicyConfig(kind=PolicyKind.OL, m=2),
        np.random.SeedSequence(14),
        record_trace=True,
    )
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
        run_episode([twin], PolicyConfig(), np.random.SeedSequence(15), time_cap=500)

    res = run_episode(
        [simple_spec(), simple_spec()],
        PolicyConfig(),
        np.random.SeedSequence(16),
        forced_truth=(True, False),
    )
    assert res.truth == (True, False)


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
    with pytest.raises(ValueError):
        lower_bound_oracle(
            [simple_spec(cost=1.0), simple_spec(cost=2.0)], truth=(True, True), m=2
        )


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
