"""End-to-end acceptance gates.

One test per criterion; each prints a single [criterion N] PASS/FAIL
line with the measured numbers (visible in the -rP summary), then
asserts. Monte Carlo gates use 3-standard-error bands around pinned
thresholds, so a healthy build passes deterministically at the seeds
fixed here.
"""

import math
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from seqscan.belief import BeliefState, bayes_update
from seqscan.composite import (
    ParameterGrid,
    Region,
    estimated_belief_update,
    composite_boundaries,
    ingest,
    init_state,
)
from seqscan.engine import (
    PolicyConfig,
    PolicyKind,
    ProcessSpec,
    lower_bound_oracle,
    run_episode,
)
from seqscan.harness import figure_config, run_experiment
from seqscan.models import Categorical, Poisson, kl_divergence, log_density, sample
from seqscan.sprt import SprtState, Verdict, check_stop, expected_sample_sizes, update_llr, wald_boundaries


def _report(num: int, passed: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, detail


def _simple(rate0=10.0, rate1=15.0, alpha=1e-2, beta=1e-2, cost=1.0, prior=0.5):
    return ProcessSpec(
        prior=prior, cost_rate=cost, alpha=alpha, beta=beta,
        model_h0=Poisson(rate0), model_h1=Poisson(rate1),
    )


def _seed(root: int, lane: int, ep: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(root, spawn_key=(lane, ep))


def test_c1_sequential_test_error_control():
    t0 = time.monotonic()
    spec = _simple(alpha=1e-2, beta=1e-2)
    policy = PolicyConfig()
    n = 20_000
    fa = sum(
        run_episode([spec], policy, _seed(101, 0, ep), forced_truth=(False,)).false_alarms[0]
        for ep in range(n)
    )
    md = sum(
        run_episode([spec], policy, _seed(101, 1, ep), forced_truth=(True,)).miss_detects[0]
        for ep in range(n)
    )
    fa_rate, md_rate = fa / n, md / n
    cap = 0.0102  # alpha/(1-beta) rounded up at the 4th decimal
    se_fa = math.sqrt(fa_rate * (1 - fa_rate) / n)
    se_md = math.sqrt(md_rate * (1 - md_rate) / n)
    elapsed = time.monotonic() - t0
    ok = fa_rate <= cap + 3 * se_fa and md_rate <= cap + 3 * se_md and elapsed < 60
    _report(
        1, ok,
        f"fa={fa_rate:.5f} (cap {cap}+3*{se_fa:.5f}), md={md_rate:.5f} "
        f"(cap {cap}+3*{se_md:.5f}), {elapsed:.0f}s < 60s",
    )


def test_c2_mean_sample_size_tracks_first_order_value():
    spec = _simple(alpha=1e-3, beta=1e-3)
    policy = PolicyConfig()
    n = 20_000
    total = sum(
        run_episode([spec], policy, _seed(202, 0, ep), forced_truth=(True,)).samples[0]
        for ep in range(n)
    )
    predicted = expected_sample_sizes(
        1e-3, 1e-3,
        kl_divergence(Poisson(10.0), Poisson(15.0)),
        kl_divergence(Poisson(15.0), Poisson(10.0)),
    )[1]
    ratio = (total / n) / predicted
    ok = 1.0 <= ratio <= 1.25
    _report(
        2, ok,
        f"mean N = {total / n:.4f}, first-order value {predicted:.4f}, "
        f"ratio {ratio:.4f} in [1.0, 1.25]",
    )


@pytest.mark.slow
def test_c3_composite_mixture_closed_loop_savings():
    t0 = time.monotonic()
    cfg = replace(figure_config("fig1"), sweep_values=(4.0, 8.0), episodes=2000,
                  master_seed=31)
    res = {(s.sweep_value, s.policy): s for s in run_experiment(cfg)}
    checks = []
    for k in (4.0, 8.0):
        cl, ol = res[(k, "CL")], res[(k, "OL")]
        gate = cl.mean_cost <= 0.80 * ol.mean_cost
        separated = cl.mean_cost + 3 * cl.stderr_cost < ol.mean_cost - 3 * ol.stderr_cost
        checks.append((k, cl.mean_cost / ol.mean_cost, gate and separated))
    elapsed = time.monotonic() - t0
    ok = all(c[2] for c in checks) and elapsed < 600
    detail = ", ".join(f"K={k:.0f} ratio={r:.3f}" for k, r, _ in checks)
    _report(3, ok, f"{detail} (gate 0.80, bands separated), {elapsed:.0f}s < 600s")


@pytest.mark.slow
def test_c4_multiprobe_closed_loop_not_worse():
    cfg = replace(figure_config("fig2"), episodes=2000, master_seed=41)
    res = {(s.sweep_value, s.policy): s for s in run_experiment(cfg)}
    checks = []
    for k in (10.0, 20.0):
        cl, ol = res[(k, "CL")], res[(k, "OL")]
        band = 3 * math.hypot(cl.stderr_cost, ol.stderr_cost)
        checks.append((k, cl.mean_cost, ol.mean_cost, cl.mean_cost <= ol.mean_cost + band))
    ok = all(c[3] for c in checks)
    detail = ", ".join(f"K={k:.0f} CL={c:.1f} OL={o:.1f}" for k, c, o, _ in checks)
    _report(4, ok, f"{detail} (CL <= OL within 3SE)")


def test_c5_cost_over_floor_shrinks_toward_small_errors():
    spec = _simple(alpha=1e-2, beta=1e-2)
    cfg = replace(
        figure_config("fig5"),
        name="floor-trend",
        processes=(spec, spec, spec, spec),
        truth=(True, True, True, True),
        policies=("CL",),
        zeta=1.7,
        sweep_values=(1e-1, 1e-2, 1e-3, 1e-4),
        alpha_match=None,
        episodes=2000,
        master_seed=53,
    )
    res = run_experiment(cfg)
    ratios = [s.cost_over_bound for s in res]
    ses = [s.stderr_cost / s.lower_bound for s in res]
    monotone = all(
        ratios[j + 1] <= ratios[j] + 3 * math.hypot(ses[j], ses[j + 1])
        for j in range(len(ratios) - 1)
    )
    ok = monotone and ratios[-1] <= 1.6
    _report(
        5, ok,
        "ratios " + ", ".join(f"{r:.3f}" for r in ratios)
        + f" non-increasing within 3SE, final {ratios[-1]:.3f} <= 1.6",
    )


@pytest.mark.slow
def test_c6_risk_falls_linearly_in_log_error_cost():
    cfg = replace(figure_config("fig4"), episodes=2000, master_seed=61)
    res = run_experiment(cfg)
    log_ce = [s.extra["log_ce"] for s in res]
    log_r = [s.extra["log_R"] for s in res]
    risks = [s.extra["mean_risk"] for s in res]
    ses = [s.extra["stderr_risk"] for s in res]
    slope = float(np.polyfit(log_ce, log_r, 1)[0])
    monotone = all(
        risks[j + 1] <= risks[j] + 3 * math.hypot(ses[j], ses[j + 1])
        for j in range(len(risks) - 1)
    )
    ok = slope < 0 and monotone
    _report(
        6, ok,
        f"slope {slope:.3f} < 0, risks "
        + ", ".join(f"{r:.3g}" for r in risks)
        + " monotone non-increasing within 3SE",
    )


@pytest.mark.slow
def test_c7_exploration_not_worse_at_small_errors():
    cfg = replace(figure_config("fig5"), episodes=150, master_seed=71)
    res = [s for s in run_experiment(cfg) if s.sweep_value == cfg.sweep_values[-1]]
    by_policy = {s.policy: s for s in res}
    s = by_policy["CL"]
    ok = s.rho is not None and s.rho <= 1.0 + 3 * s.rho_se
    _report(
        7, ok,
        f"rho = {s.rho:.4f} <= 1 + 3*{s.rho_se:.4f} at error budget "
        f"{cfg.sweep_values[-1]:g}",
    )


def test_c8_oracle_equivalences():
    rng = np.random.default_rng(8)
    worst = 0.0
    # belief recursion equals its closed form in the summed ratio
    for _ in range(100):
        r0, r1 = rng.uniform(5, 20, size=2)
        if abs(r0 - r1) < 0.1:
            r1 += 0.5
        prior = rng.uniform(0.05, 0.95)
        truth = Poisson(r1 if rng.random() < 0.5 else r0)
        belief = BeliefState(prior=prior)
        total = 0.0
        for _ in range(int(rng.integers(1, 40))):
            y = sample(truth, rng)
            l0 = log_density(Poisson(r0), y)
            l1 = log_density(Poisson(r1), y)
            belief = bayes_update(belief, l0, l1, probed=True)
            total += l1 - l0
        closed = 1.0 / (((1 - prior) / prior) * math.exp(-total) + 1.0)
        worst = max(worst, abs(belief.posterior - closed))
    ok_belief = worst <= 1e-10

    # incremental grid belief equals recomputation from scratch
    grid = ParameterGrid(
        models=(Poisson(10.0), Poisson(12.0), Poisson(15.0)),
        regions=(Region.THETA0, Region.THETA1, Region.THETA1),
    )
    state = init_state(grid, prior=0.37)
    worst_grid = 0.0
    ys = [int(v) for v in np.random.default_rng(88).poisson(11, size=60)]
    for n, y in enumerate(ys, start=1):
        ingest(state, grid, y)
        estimated_belief_update(state, grid)
        fresh = init_state(grid, prior=0.37)
        for past in ys[:n]:
            ingest(fresh, grid, past)
        estimated_belief_update(fresh, grid)
        worst_grid = max(worst_grid, abs(state.estimated_belief - fresh.estimated_belief))
    ok_grid = worst_grid <= 1e-10

    # divergence closed forms against direct summation
    p, q = Poisson(7.3), Poisson(11.1)
    direct = sum(
        math.exp(log_density(p, y)) * (log_density(p, y) - log_density(q, y))
        for y in range(0, 200)
    )
    ok_kl_poisson = abs(kl_divergence(p, q) - direct) <= 1e-9
    cp = Categorical((0.2, 0.5, 0.3))
    cq = Categorical((0.4, 0.4, 0.2))
    direct_cat = sum(
        a * math.log(a / b) for a, b in zip(cp.probs, cq.probs)
    )
    ok_kl_cat = abs(kl_divergence(cp, cq) - direct_cat) <= 1e-9

    # a single-process closed-loop episode is exactly the standalone test
    spec = _simple(alpha=1e-2, beta=1e-2)
    seed = _seed(808, 0, 0)
    res = run_episode([spec], PolicyConfig(), seed, forced_truth=(True,), record_trace=True)
    child = np.random.SeedSequence(entropy=seed.entropy, spawn_key=(0, 0, 1))
    stream = np.random.default_rng(child)
    state = SprtState()
    bounds = wald_boundaries(1e-2, 1e-2)
    ok_trace = len(res.trace) == res.samples[0]
    for step in res.trace:
        y = sample(Poisson(15.0), stream)
        ok_trace = ok_trace and y == step.observations[0]
        state = update_llr(
            state, log_density(Poisson(15.0), y) - log_density(Poisson(10.0), y)
        )
        ok_trace = ok_trace and state.sum_llr == step.stats[0]
    verdict = check_stop(state, bounds)
    ok_trace = ok_trace and (verdict is Verdict.DECLARE_ABNORMAL) == res.declared[0]

    ok = ok_belief and ok_grid and ok_kl_poisson and ok_kl_cat and ok_trace
    _report(
        8, ok,
        f"belief closed form (worst {worst:.2e}), grid belief recomputation "
        f"(worst {worst_grid:.2e}), divergence sums, single-process trace equality: "
        f"{ok_belief}, {ok_grid}, {ok_kl_poisson and ok_kl_cat}, {ok_trace}",
    )


@pytest.mark.slow
def test_c9_figure_pipeline_is_byte_deterministic(tmp_path):
    outputs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "seqscan.cli", "figures", "fig1",
             "--seed", "7", "--scale", "4", "--out", str(out)],
            capture_output=True, text=True, timeout=1200,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 0
    _report(9, ok, f"two seed-7 scale-4 runs byte-identical ({len(outputs[0])} bytes)")
