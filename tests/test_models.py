"""Observation-model tests: frozen closed-form values, determinism,
and divergence properties cross-checked by direct summation."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqscan.models import (
    KL_SATURATION,
    Categorical,
    Gaussian,
    Poisson,
    finite_kl,
    kl_divergence,
    log_density,
    sample,
    sample_many,
)


def test_construction_rejects_bad_parameters():
    with pytest.raises(ValueError):
        Poisson(0.0)
    with pytest.raises(ValueError):
        Poisson(-3.0)
    with pytest.raises(ValueError):
        Poisson(math.inf)
    with pytest.raises(ValueError):
        Gaussian(0.0, 0.0)
    with pytest.raises(ValueError):
        Gaussian(math.nan, 1.0)
    with pytest.raises(ValueError):
        Categorical(())
    with pytest.raises(ValueError):
        Categorical((0.5, -0.1, 0.6))
    with pytest.raises(ValueError):
        Categorical((0.5, 0.4))  # does not sum to 1


def test_log_density_frozen_values():
    # Poisson(10) at 10: log(10^10 e^-10 / 10!)
    assert log_density(Poisson(10.0), 10) == pytest.approx(-2.0785616431350533, abs=1e-12)
    # Poisson(10) at 0: -rate exactly
    assert log_density(Poisson(10.0), 0) == pytest.approx(-10.0, abs=1e-12)
    # standard normal at the mean: -log(sqrt(2 pi))
    assert log_density(Gaussian(0.0, 1.0), 0.0) == pytest.approx(-0.9189385332046727, abs=1e-15)
    assert log_density(Categorical((0.5, 0.5)), 1) == pytest.approx(math.log(0.5), abs=1e-15)


def test_log_density_domain_errors():
    with pytest.raises(ValueError):
        log_density(Poisson(10.0), -1)
    with pytest.raises(ValueError):
        log_density(Poisson(10.0), 2.5)
    with pytest.raises(ValueError):
        log_density(Categorical((0.5, 0.5)), 2)
    with pytest.raises(ValueError):
        log_density(Gaussian(0.0, 1.0), math.inf)


def test_zero_probability_category_is_minus_inf():
    assert log_density(Categorical((1.0, 0.0)), 1) == -math.inf


def test_degenerate_categorical_always_samples_its_only_category():
    rng = np.random.default_rng(0)
    assert all(sample(Categorical((1.0,)), rng) == 0 for _ in range(20))


def test_sampling_is_deterministic_under_equal_seeds():
    models = [Poisson(10.0), Gaussian(-1.0, 2.0), Categorical((0.2, 0.3, 0.5))]
    for model in models:
        rng1 = np.random.default_rng(77)
        rng2 = np.random.default_rng(77)
        seq1 = [sample(model, rng1) for _ in range(50)]
        seq2 = [sample(model, rng2) for _ in range(50)]
        assert seq1 == seq2


@pytest.mark.parametrize(
    "model",
    [
        Poisson(0.5),
        Poisson(10.0),
        Poisson(1000.0),
        Gaussian(-1.0, 2.0),
        Categorical((0.2, 0.0, 0.5, 0.3)),
    ],
    ids=repr,
)
def test_sample_many_equals_single_draws(model):
    # a chunk must be the next n single draws, of the same types, and leave
    # the generator where they would: the draws that follow agree too
    for n in range(1, 301):
        single, chunked = np.random.default_rng(n), np.random.default_rng(n)
        expected = [sample(model, single) for _ in range(n + 2)]
        got = sample_many(model, chunked, n) + [sample(model, chunked) for _ in range(2)]
        assert got == expected
        assert [type(y) for y in got] == [type(y) for y in expected]


def test_poisson_sample_mean_matches_rate():
    rng = np.random.default_rng(20260822)
    n = 10**6
    mean = np.mean([sample(Poisson(10.0), rng) for _ in range(n)])
    assert abs(mean - 10.0) < 0.05


def test_poisson_kl_frozen_values():
    # lam1 log(lam1/lam0) + lam0 - lam1
    assert kl_divergence(Poisson(15.0), Poisson(10.0)) == pytest.approx(
        1.0819766216224664, abs=1e-12
    )
    assert kl_divergence(Poisson(10.0), Poisson(15.0)) == pytest.approx(
        0.9453489189183557, abs=1e-12
    )


def test_poisson_kl_matches_direct_summation():
    # truncated sum over the pmf; tail beyond 20 sigma is below 1e-12
    for p, q in [(Poisson(15.0), Poisson(10.0)), (Poisson(10.0), Poisson(15.0)),
                 (Poisson(3.0), Poisson(7.0))]:
        top = int(p.rate + 40 * math.sqrt(p.rate))
        total = sum(
            math.exp(log_density(p, y)) * (log_density(p, y) - log_density(q, y))
            for y in range(top)
        )
        assert kl_divergence(p, q) == pytest.approx(total, abs=1e-9)


def test_gaussian_kl_frozen_values():
    assert kl_divergence(Gaussian(1.0, 1.0), Gaussian(0.0, 1.0)) == pytest.approx(0.5, abs=1e-15)
    assert kl_divergence(Gaussian(0.0, 2.0), Gaussian(0.0, 1.0)) == pytest.approx(
        0.8068528194400546, abs=1e-12
    )


def test_categorical_kl_by_hand():
    p = Categorical((0.7, 0.3))
    q = Categorical((0.5, 0.5))
    expected = 0.7 * math.log(0.7 / 0.5) + 0.3 * math.log(0.3 / 0.5)
    assert kl_divergence(p, q) == pytest.approx(expected, abs=1e-15)


def test_kl_zero_iff_equal_and_nonnegative_on_grid():
    rates = [0.5, 1.0, 2.0, 10.0, 15.0, 40.0]
    for r1 in rates:
        for r2 in rates:
            d = kl_divergence(Poisson(r1), Poisson(r2))
            if r1 == r2:
                assert d == 0.0
            else:
                assert d > 0.0


def test_kl_rejects_mismatched_families():
    with pytest.raises(TypeError):
        kl_divergence(Poisson(10.0), Gaussian(10.0, 1.0))
    with pytest.raises(TypeError):
        kl_divergence(Categorical((0.5, 0.5)), Categorical((1.0,)))


def test_kl_infinite_sentinel_and_clamp():
    p = Categorical((0.5, 0.5))
    q = Categorical((1.0, 0.0))
    assert kl_divergence(p, q) == math.inf
    assert finite_kl(p, q) == KL_SATURATION
    # absolute continuity the other way is fine
    assert math.isfinite(kl_divergence(q, p))


@pytest.mark.parametrize(
    "p,q",
    [
        (Poisson(15.0), Poisson(10.0)),
        (Gaussian(0.5, 1.5), Gaussian(0.0, 1.0)),
        (Categorical((0.2, 0.3, 0.5)), Categorical((0.4, 0.4, 0.2))),
    ],
)
def test_kl_matches_monte_carlo_estimate(p, q):
    # E_p[log p - log q] estimated from raw samples, 3 SE band
    rng = np.random.default_rng(9)
    n = 10**5
    incs = np.array([log_density(p, y) - log_density(q, y) for y in (sample(p, rng) for _ in range(n))])
    se = incs.std(ddof=1) / math.sqrt(n)
    assert abs(incs.mean() - kl_divergence(p, q)) < 3 * se


@given(
    st.floats(min_value=0.1, max_value=100.0, allow_nan=False),
    st.floats(min_value=0.1, max_value=100.0, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_poisson_kl_nonnegative_property(r1, r2):
    assert kl_divergence(Poisson(r1), Poisson(r2)) >= 0.0
