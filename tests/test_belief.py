"""Priority-arithmetic tests: the log-odds posterior against the
probability-space Bayes iteration, detection-time mixing, index
arithmetic, and the engine's zero index for declared processes."""

from __future__ import annotations

import math

import numpy as np
import pytest

from seqscan.belief import (
    expected_detection_time,
    index,
    posterior,
    prior_log_odds,
)
from seqscan.engine import EpisodePaths, PolicyConfig, ProcessSpec, run_episode
from seqscan.models import Poisson, log_density, sample
from seqscan.sprt import update_llr


def belief(prior: float, sum_llr: float = 0.0) -> float:
    return posterior(prior, prior_log_odds(prior), sum_llr)


def test_belief_starts_at_prior():
    assert belief(0.3) == pytest.approx(0.3, abs=1e-15)
    with pytest.raises(ValueError):
        prior_log_odds(1.5)


def test_unprobed_instant_changes_nothing():
    # an unprobed process adds nothing to its sum, so its engine-reported
    # posterior stays put from one decision instant to the next
    specs = [
        ProcessSpec(prior=p, cost_rate=c, alpha=1e-2, beta=1e-2,
                    model_h0=Poisson(10.0), model_h1=Poisson(15.0))
        for p, c in ((0.3, 1.0), (0.7, 2.0), (0.5, 1.5))
    ]
    res = run_episode(EpisodePaths(specs, np.random.SeedSequence(11), trace=True), PolicyConfig())
    moved = 0
    for prev, step in zip(res.trace, res.trace[1:]):
        for pid in range(1, 4):
            if pid not in step.selected:
                assert step.beliefs[pid - 1] == prev.beliefs[pid - 1]
            else:
                moved += step.beliefs[pid - 1] != prev.beliefs[pid - 1]
    assert moved > 0


def test_uninformative_observation_keeps_half():
    assert belief(0.5, -2.0 - -2.0) == pytest.approx(0.5, abs=1e-15)


def test_frozen_poisson_posterior():
    f0, f1 = Poisson(10.0), Poisson(15.0)
    b = belief(0.5, log_density(f1, 12) - log_density(f0, 12))
    assert b == pytest.approx(0.4664458315935051, abs=1e-10)


def test_impossible_observation_is_an_error():
    # the summed LLR refuses an observation impossible under both models
    # (-inf - -inf is NaN) and a NaN log-density
    with pytest.raises(ValueError):
        update_llr(0.0, -math.inf - -math.inf)
    with pytest.raises(ValueError):
        update_llr(0.0, -1.0 - math.nan)


def test_one_sided_impossibility_saturates():
    assert belief(0.5, -1.0 - -math.inf) == 1.0
    assert belief(0.5, -math.inf - -1.0) == 0.0


def test_degenerate_priors_are_absorbing():
    for prior in (0.0, 1.0):
        total = 0.0
        for l0, l1 in ((-1.0, -3.0), (-2.0, -0.5)):
            total += l1 - l0
            assert belief(prior, total) == prior


def test_log_odds_form_matches_probability_space_iteration():
    # oracle: direct Bayes rule iterated in probability space
    f0, f1 = Poisson(10.0), Poisson(15.0)
    rng = np.random.default_rng(13)
    for _ in range(30):
        prior = float(rng.uniform(0.05, 0.95))
        total = 0.0
        p = prior
        truth = rng.random() < 0.5
        gen = f1 if truth else f0
        for _ in range(int(rng.integers(1, 60))):
            y = sample(gen, rng)
            l0, l1 = log_density(f0, y), log_density(f1, y)
            total = update_llr(total, l1 - l0)
            p = p * math.exp(l1) / (p * math.exp(l1) + (1 - p) * math.exp(l0))
            assert belief(prior, total) == pytest.approx(p, abs=1e-10)


def test_posterior_survives_extreme_evidence():
    # a long one-sided run drives the probability form into saturation;
    # the log-odds form must keep a usable ordering
    strong, stronger = 80.0, 120.0
    assert belief(0.5, strong) == pytest.approx(1.0, abs=1e-12)
    assert strong < stronger


def test_expected_detection_time_endpoints_and_mean():
    assert expected_detection_time(0.0, 7.306, 12.77) == pytest.approx(7.306)
    assert expected_detection_time(1.0, 7.306, 12.77) == pytest.approx(12.77)
    assert expected_detection_time(belief(0.5), 7.306, 12.77) == pytest.approx(
        10.038, abs=1e-12
    )
    with pytest.raises(ValueError):
        expected_detection_time(0.5, 0.0, 1.0)


def test_index_arithmetic_and_inactivity():
    assert index(0.5, cost=10.0, expected_time=20.0) == pytest.approx(0.25)
    assert index(0.5, cost=0.0, expected_time=20.0) == 0.0
    with pytest.raises(ValueError):
        index(0.5, cost=-1.0, expected_time=1.0)
    with pytest.raises(ValueError):
        index(0.5, cost=1.0, expected_time=0.0)
    # a declared process's index is zero from its declaration on
    specs = [
        ProcessSpec(prior=0.5, cost_rate=c, alpha=1e-2, beta=1e-2,
                    model_h0=Poisson(10.0), model_h1=Poisson(15.0))
        for c in (1.0, 3.0, 2.0)
    ]
    res = run_episode(EpisodePaths(specs, np.random.SeedSequence(17), trace=True), PolicyConfig(m=2))
    for step in res.trace:
        end = step.instant + step.delay  # the clock after this instant
        for pid, stop in enumerate(res.stop_times, start=1):
            assert (step.indices[pid - 1] == 0.0) == (stop <= end)


def test_cost_scaling_preserves_argmax_exactly():
    # scaling every cost by a power of two is exact in binary floating
    # point, so the argmax must be bit-for-bit identical
    rng = np.random.default_rng(19)
    for _ in range(50):
        beliefs = [belief(float(rng.uniform(0.1, 0.9))) for _ in range(6)]
        costs = [float(rng.uniform(0.5, 30.0)) for _ in range(6)]
        times = [float(rng.uniform(2.0, 40.0)) for _ in range(6)]
        base = [index(b, c, t) for b, c, t in zip(beliefs, costs, times)]
        scaled = [index(b, c * 8.0, t) for b, c, t in zip(beliefs, costs, times)]
        assert int(np.argmax(base)) == int(np.argmax(scaled))
