"""SPRT tests: boundary formulas, stop rules, expected sample sizes,
and the empirical error-control property the thresholds promise."""

from __future__ import annotations

import math

import numpy as np
import pytest

from seqscan.models import Poisson, kl_divergence, log_density, sample
from seqscan.sprt import (
    SprtBoundaries,
    Verdict,
    check_stop,
    expected_sample_sizes,
    update_llr,
    wald_boundaries,
)

# KLs between the two Poisson models used throughout
D10 = kl_divergence(Poisson(15.0), Poisson(10.0))  # 1.0820
D01 = kl_divergence(Poisson(10.0), Poisson(15.0))  # 0.9454


def test_wald_boundaries_frozen_values():
    b = wald_boundaries(1e-3, 1e-6)
    assert b.lower_a == pytest.approx(-13.81451005763069, abs=1e-10)
    assert b.upper_b == pytest.approx(6.907754278981637, abs=1e-10)

    sym = wald_boundaries(1e-2, 1e-2)
    assert sym.lower_a == pytest.approx(-4.59511985013459, abs=1e-10)
    assert sym.upper_b == pytest.approx(-sym.lower_a, abs=1e-12)


def test_wald_boundaries_reject_bad_budgets():
    with pytest.raises(ValueError):
        wald_boundaries(0.5, 0.5)  # alpha + beta == 1
    with pytest.raises(ValueError):
        wald_boundaries(0.0, 0.1)
    with pytest.raises(ValueError):
        wald_boundaries(0.1, 1.0)
    with pytest.raises(ValueError):
        SprtBoundaries(lower_a=1.0, upper_b=2.0)


def test_update_llr_accumulates():
    s = update_llr(0.0, 1.3)
    assert s == pytest.approx(1.3)
    s = update_llr(s, 0.0)  # equal likelihoods leave the sum alone
    assert s == pytest.approx(1.3)
    with pytest.raises(ValueError):
        update_llr(s, math.inf)
    with pytest.raises(ValueError):
        update_llr(s, math.nan)


def test_poisson_llr_increment_frozen_value():
    # log f1(12)/f0(12) for Poisson(15) vs Poisson(10): 12 ln 1.5 - 5
    inc = log_density(Poisson(15.0), 12) - log_density(Poisson(10.0), 12)
    assert inc == pytest.approx(-0.13441870270203182, abs=1e-12)


def test_check_stop_ties_declare():
    b = SprtBoundaries(lower_a=-2.0, upper_b=3.0)
    assert check_stop(0.0, b) is Verdict.CONTINUE
    assert check_stop(3.0, b) is Verdict.DECLARE_ABNORMAL
    assert check_stop(-2.0, b) is Verdict.DECLARE_NORMAL
    assert check_stop(3.1, b) is Verdict.DECLARE_ABNORMAL
    assert check_stop(-2.1, b) is Verdict.DECLARE_NORMAL
    assert not Verdict.CONTINUE.decided and Verdict.DECLARE_NORMAL.decided


def test_expected_sample_sizes_frozen_value():
    _, e1 = expected_sample_sizes(1e-3, 1e-6, D01, D10)
    assert e1 == pytest.approx(6.384364891691359, abs=1e-9)
    # dominant term is log(1/alpha)/D
    assert e1 == pytest.approx(6.9078 / 1.0820, rel=1e-3)


def test_expected_sample_sizes_symmetry_and_scaling():
    e0, e1 = expected_sample_sizes(1e-2, 1e-2, D01, D10)
    # equal budgets make the two numerators coincide
    assert e0 * D01 == pytest.approx(e1 * D10, rel=1e-12)
    e0d, e1d = expected_sample_sizes(1e-2, 1e-2, 2 * D01, 2 * D10)
    assert e0d == pytest.approx(e0 / 2, rel=1e-12)
    assert e1d == pytest.approx(e1 / 2, rel=1e-12)


def test_expected_sample_sizes_reject_bad_divergences():
    with pytest.raises(ValueError):
        expected_sample_sizes(1e-2, 1e-2, 0.0, 1.0)
    with pytest.raises(ValueError):
        expected_sample_sizes(1e-2, 1e-2, 1.0, math.inf)


def test_sum_llr_ignores_unprobed_instants():
    # interleave two processes; each LLR sum must match the one built
    # from that process's observations alone
    rng = np.random.default_rng(5)
    f0, f1 = Poisson(10.0), Poisson(15.0)
    obs_a = [sample(f1, rng) for _ in range(30)]
    obs_b = [sample(f0, rng) for _ in range(30)]

    inter_a = inter_b = 0.0
    for ya, yb in zip(obs_a, obs_b):
        inter_a = update_llr(inter_a, log_density(f1, ya) - log_density(f0, ya))
        inter_b = update_llr(inter_b, log_density(f1, yb) - log_density(f0, yb))

    solo_a = solo_b = 0.0
    for ya in obs_a:
        solo_a = update_llr(solo_a, log_density(f1, ya) - log_density(f0, ya))
    for yb in obs_b:
        solo_b = update_llr(solo_b, log_density(f1, yb) - log_density(f0, yb))
    assert solo_a == inter_a
    assert solo_b == inter_b


def _run_single_sprt(truth_abnormal: bool, boundaries, rng) -> tuple[Verdict, int]:
    f0, f1 = Poisson(10.0), Poisson(15.0)
    gen = f1 if truth_abnormal else f0
    total = 0.0
    taken = 0
    while True:
        y = sample(gen, rng)
        total = update_llr(total, log_density(f1, y) - log_density(f0, y))
        taken += 1
        verdict = check_stop(total, boundaries)
        if verdict.decided:
            return verdict, taken


def test_empirical_error_control_at_one_percent():
    # Wald bound on each realized error rate is budget/(1 - other budget)
    b = wald_boundaries(1e-2, 1e-2)
    episodes = 10_000
    bound = 0.01 / 0.99

    rng = np.random.default_rng(42)
    fa = sum(_run_single_sprt(False, b, rng)[0] is Verdict.DECLARE_ABNORMAL for _ in range(episodes))
    md = sum(_run_single_sprt(True, b, rng)[0] is Verdict.DECLARE_NORMAL for _ in range(episodes))
    se = math.sqrt(bound * (1 - bound) / episodes)
    assert fa / episodes <= bound + 3 * se
    assert md / episodes <= bound + 3 * se


def test_empirical_sample_size_tracks_wald_approximation():
    # the approximation ignores boundary overshoot, so the empirical mean
    # sits above it; for these models the inflation is just under 1.2x
    b = wald_boundaries(1e-3, 1e-3)
    _, e1 = expected_sample_sizes(1e-3, 1e-3, D01, D10)
    rng = np.random.default_rng(7)
    sizes = [_run_single_sprt(True, b, rng)[1] for _ in range(4000)]
    assert 1.0 <= np.mean(sizes) / e1 <= 1.25
