"""Grid-test tests: statistic formulas against hand sums, stop-rule tie
handling, belief shortcut vs brute-force recomputation, estimate
consistency, and the frozen per-point sample-size quotients."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqscan.belief import index, prior_log_odds
from seqscan.composite import (
    CompositeBoundaries,
    ParameterGrid,
    Region,
    StatisticKind,
    alr_statistic,
    check_stop_composite,
    composite_boundaries,
    estimated_belief_update,
    glr_statistic,
    ingest,
    init_state,
    size_terms,
)
from seqscan.engine import ProcessSpec, _GridRuntime, _Stream
from seqscan.models import Categorical, Gaussian, Poisson, finite_kl, log_density, sample
from seqscan.sprt import Verdict, update_llr


def point_sizes(grid, b):
    """The expected sample size while each point is the estimate."""
    return [bound / d for bound, d in size_terms(grid, b)]


@pytest.fixture
def binary_grid():
    return ParameterGrid(
        models=(Poisson(10.0), Poisson(15.0)),
        regions=(Region.THETA0, Region.THETA1),
    )


@pytest.fixture
def mixture_grid():
    # normal rate 10; abnormal either 12 or 15
    return ParameterGrid(
        models=(Poisson(10.0), Poisson(12.0), Poisson(15.0)),
        regions=(Region.THETA0, Region.THETA1, Region.THETA1),
    )


def test_grid_validation():
    with pytest.raises(ValueError):
        ParameterGrid(models=(Poisson(10.0),), regions=(Region.THETA0,))
    with pytest.raises(ValueError):
        ParameterGrid(models=(Poisson(10.0), Poisson(15.0)), regions=(Region.THETA1, Region.THETA1))
    with pytest.raises(ValueError):
        ParameterGrid(models=(Poisson(10.0), Poisson(15.0)), regions=(Region.THETA0,))


def test_boundaries_from_budgets():
    # the abnormal side is the false-alarm event, so alpha gates it
    b = composite_boundaries(1e-2, 1e-6)
    assert b.b1 == pytest.approx(4.605170185988091, abs=1e-12)  # log(1/alpha)
    assert b.b0 == pytest.approx(13.815510557964274, abs=1e-12)  # log(1/beta)
    with pytest.raises(ValueError):
        composite_boundaries(0.0, 0.5)
    with pytest.raises(ValueError):
        CompositeBoundaries(b0=-1.0, b1=1.0)


def test_ingest_tracks_mle_and_counts(binary_grid):
    s = init_state(binary_grid, prior=0.5)
    assert s.mle == 0 and s.cum_ll == [0.0, 0.0]
    s = ingest(s, binary_grid, 16)
    assert s.cum_ll == [log_density(m, 16) for m in binary_grid.models]
    assert s.mle == 1  # 16 sits closer in likelihood to rate 15


def test_mle_tie_breaks_to_lowest_index():
    twin = ParameterGrid(
        models=(Poisson(10.0), Poisson(10.0)),
        regions=(Region.THETA0, Region.THETA1),
    )
    s = init_state(twin, prior=0.5)
    for y in (8, 11, 10, 14):
        s = ingest(s, twin, y)
        assert s.mle == 0
        # identical models in both regions: the statistic has nothing to separate
        assert glr_statistic(s, 1) == 0.0
        assert glr_statistic(s, 0) == 0.0


def test_glr_constant_data_hand_sum(binary_grid):
    s = init_state(binary_grid, prior=0.5)
    for _ in range(5):
        s = ingest(s, binary_grid, 15)
    # direct summation: gap per sample is log f(15|15) - log f(15|10) = 15 ln 1.5 - 5
    gap = log_density(Poisson(15.0), 15) - log_density(Poisson(10.0), 15)
    assert gap == pytest.approx(15 * math.log(1.5) - 5, abs=1e-12)
    assert glr_statistic(s, 1) == pytest.approx(5.409883108112328, abs=1e-10)
    assert glr_statistic(s, 1) == pytest.approx(5 * gap, abs=1e-12)
    # the declared-for side whose region holds the MLE is pinned at zero
    assert glr_statistic(s, 0) == 0.0


def test_glr_nonnegative_on_random_data(mixture_grid):
    rng = np.random.default_rng(3)
    s = init_state(mixture_grid, prior=0.5)
    for _ in range(60):
        s = ingest(s, mixture_grid, sample(Poisson(11.0), rng))
        assert glr_statistic(s, 0) >= 0.0
        assert glr_statistic(s, 1) >= 0.0


def test_alr_equals_glr_on_first_obs_when_initial_estimate_maximizes(binary_grid):
    # y=8 keeps the maximizer at index 0, which is also the initial estimate
    s = init_state(binary_grid, prior=0.5)
    s = ingest(s, binary_grid, 8)
    assert s.mle == 0
    assert alr_statistic(s, 1) == pytest.approx(
        glr_statistic(s, 1), abs=1e-12
    )
    assert alr_statistic(s, 0) == pytest.approx(
        glr_statistic(s, 0), abs=1e-12
    )


def test_alr_never_exceeds_glr(mixture_grid):
    rng = np.random.default_rng(11)
    for _ in range(20):
        s = init_state(mixture_grid, prior=0.5)
        true = Poisson(float(rng.choice([10.0, 12.0, 15.0])))
        for _ in range(int(rng.integers(1, 40))):
            s = ingest(s, mixture_grid, sample(true, rng))
        for declare in (0, 1):
            assert alr_statistic(s, declare) <= glr_statistic(s, declare) + 1e-12


def test_alr_grows_linearly_once_estimate_stabilizes(binary_grid):
    s = init_state(binary_grid, prior=0.5)
    values = []
    for _ in range(12):
        s = ingest(s, binary_grid, 15)
        values.append(alr_statistic(s, 1))
    gap = log_density(Poisson(15.0), 15) - log_density(Poisson(10.0), 15)
    diffs = np.diff(values[1:])  # estimate locks onto rate 15 after the first obs
    assert np.allclose(diffs, gap, atol=1e-12)


def test_check_stop_composite_rules(binary_grid):
    b = CompositeBoundaries(b0=4.0, b1=6.0)
    s = init_state(binary_grid, prior=0.5)

    def set_sums(*cum):
        # the sums, and the estimate and maxima ingest would derive from them
        s.cum_ll = np.array(cum)
        s.mle = int(np.argmax(s.cum_ll))
        s.max0 = max(cum[i] for i in binary_grid.indices(Region.THETA0))
        s.max1 = max(cum[i] for i in binary_grid.indices(Region.THETA1))

    set_sums(0.0, 0.0)
    assert check_stop_composite(s, b) is Verdict.CONTINUE

    # abnormal side at its boundary exactly
    set_sums(-6.0, 0.0)
    assert check_stop_composite(s, b) is Verdict.DECLARE_ABNORMAL

    set_sums(0.0, -4.0)
    assert check_stop_composite(s, b) is Verdict.DECLARE_NORMAL

    # the GLR can only cross one side at a time (one side is always 0),
    # so drive the simultaneous-crossing branch through the adaptive
    # statistic with an engineered numerator
    set_sums(-8.0, -6.5)
    s.alr_numerator = 0.0
    # excess for abnormal: 0-(-8)-6 = 2; for normal: 0-(-6.5)-4 = 2.5
    assert check_stop_composite(s, b, StatisticKind.ALR) is Verdict.DECLARE_NORMAL
    set_sums(-8.0, -6.0)
    # both excesses equal 2: tie declares abnormal
    assert check_stop_composite(s, b, StatisticKind.ALR) is Verdict.DECLARE_ABNORMAL


def test_estimated_belief_frozen_value(binary_grid):
    s = init_state(binary_grid, prior=0.5)
    s = ingest(s, binary_grid, 12)
    belief = estimated_belief_update(s, prior_log_odds(0.5))
    # posterior odds e^{-5} 1.5^{12} against the flat prior
    assert belief == pytest.approx(0.4664458315935051, abs=1e-10)
    assert s.estimated_belief == belief


def test_estimated_belief_degenerate_priors(binary_grid):
    for prior in (0.0, 1.0):
        s = init_state(binary_grid, prior=prior)
        for y in (12, 18, 9):
            s = ingest(s, binary_grid, y)
            assert estimated_belief_update(s, prior_log_odds(prior)) == prior


def test_estimated_belief_identical_restricted_models():
    twin = ParameterGrid(
        models=(Poisson(10.0), Poisson(10.0)),
        regions=(Region.THETA0, Region.THETA1),
    )
    s = init_state(twin, prior=0.5)
    for y in (9, 13, 10):
        s = ingest(s, twin, y)
        assert estimated_belief_update(s, prior_log_odds(0.5)) == pytest.approx(0.5, abs=1e-15)


def test_estimated_belief_matches_brute_force(mixture_grid):
    # oracle: recompute the odds from the raw observation list with the
    # current restricted maximum-likelihood models
    rng = np.random.default_rng(17)
    for trial in range(30):
        prior = float(rng.uniform(0.05, 0.95))
        s = init_state(mixture_grid, prior=prior)
        obs = []
        true = Poisson(float(rng.choice([10.0, 12.0, 15.0])))
        for _ in range(int(rng.integers(1, 100))):
            y = sample(true, rng)
            obs.append(y)
            s = ingest(s, mixture_grid, y)
            got = estimated_belief_update(s, prior_log_odds(prior))

            lls = [sum(log_density(m, o) for o in obs) for m in mixture_grid.models]
            l0 = max(lls[i] for i in mixture_grid.indices(Region.THETA0))
            l1 = max(lls[i] for i in mixture_grid.indices(Region.THETA1))
            num = prior * math.exp(l1 - max(l0, l1))
            den = num + (1 - prior) * math.exp(l0 - max(l0, l1))
            assert got == pytest.approx(num / den, abs=1e-10)


def test_estimated_sample_size_frozen_values(binary_grid):
    sizes = point_sizes(binary_grid, composite_boundaries(1e-3, 1e-6))
    # while the estimate is the normal point: log(1/1e-6) / KL(Poi 10 || Poi 15)
    assert sizes[0] == pytest.approx(14.614191947002627, abs=1e-9)
    # while it is the abnormal point: log(1/1e-3) / KL(Poi 15 || Poi 10)
    assert sizes[1] == pytest.approx(6.384384968155497, abs=1e-9)


def test_estimated_sample_size_scales_with_boundary(binary_grid):
    b = CompositeBoundaries(b0=5.0, b1=7.0)
    double = CompositeBoundaries(b0=10.0, b1=14.0)
    expect = [2 * x for x in point_sizes(binary_grid, b)]
    assert point_sizes(binary_grid, double) == pytest.approx(expect, rel=1e-12)


def test_estimated_sample_size_indifference_uses_nearer_region():
    grid = ParameterGrid(
        models=(Poisson(10.0), Poisson(11.0), Poisson(15.0)),
        regions=(Region.THETA0, Region.INDIFFERENCE, Region.THETA1),
    )
    b = CompositeBoundaries(b0=5.0, b1=7.0)
    # rate 11 sits nearer rate 10, so it is treated as normal-side:
    # boundary b0 over the divergence to the abnormal region
    from seqscan.models import kl_divergence

    expect = b.b0 / kl_divergence(Poisson(11.0), Poisson(15.0))
    assert point_sizes(grid, b)[1] == pytest.approx(expect, rel=1e-12)
    # a point equally far from both regions takes the normal side
    even = ParameterGrid(
        models=(Gaussian(0.0, 1.0), Gaussian(1.0, 1.0), Gaussian(2.0, 1.0)),
        regions=(Region.THETA0, Region.INDIFFERENCE, Region.THETA1),
    )
    assert even.nearest_kl[1] == (0.5, 0.5)
    assert size_terms(even, b)[1] == (b.b0, 0.5)


def test_singleton_regions_match_simple_sum_llr(binary_grid):
    # with one point per region and the estimate on the true parameter,
    # the generalized statistic for declaring abnormal is the plain
    # sum-LLR accumulated by the simple test
    rng = np.random.default_rng(23)
    s = init_state(binary_grid, prior=0.5)
    sum_llr = 0.0
    for _ in range(40):
        y = sample(Poisson(15.0), rng)
        s = ingest(s, binary_grid, y)
        sum_llr = update_llr(
            sum_llr, log_density(Poisson(15.0), y) - log_density(Poisson(10.0), y)
        )
        if s.mle == 1:
            assert glr_statistic(s, 1) == pytest.approx(sum_llr, abs=1e-9)


def test_mle_consistency_at_depth(mixture_grid):
    rng = np.random.default_rng(31)
    trials = 200
    hits = 0
    for _ in range(trials):
        s = init_state(mixture_grid, prior=0.5)
        for _ in range(200):
            s = ingest(s, mixture_grid, sample(Poisson(15.0), rng))
        hits += s.mle == 2
    assert hits / trials >= 0.99


# --- exact differential test of the grid fold against the old numpy fold ---


class _Oracle:
    """The grid statistics recomputed the direct way: one numpy row of
    log_density terms per observation added to the running sums, argmax
    for the estimate, and a fresh min(finite_kl) scan for the sample size."""

    def __init__(self, grid, prior):
        self.grid, self.prior = grid, prior
        self.cum = np.zeros(len(grid))
        self.mle = 0
        self.alr_numerator = 0.0

    def ingest(self, y):
        inc = np.array([log_density(m, y) for m in self.grid.models])
        self.alr_numerator += float(inc[self.mle])
        self.cum = self.cum + inc
        self.mle = int(np.argmax(self.cum))

    def restricted(self, region):
        return float(max(self.cum[i] for i, r in enumerate(self.grid.regions) if r is region))

    def glr(self, declare):
        full = float(np.max(self.cum))
        restricted = self.restricted(Region.THETA0 if declare == 1 else Region.THETA1)
        return 0.0 if math.isinf(full) and math.isinf(restricted) else full - restricted

    def alr(self, declare):
        restricted = self.restricted(Region.THETA0 if declare == 1 else Region.THETA1)
        if math.isinf(self.alr_numerator) and math.isinf(restricted):
            return 0.0
        return self.alr_numerator - restricted

    def belief(self, previous):
        if self.prior in (0.0, 1.0):
            return self.prior
        l1, l0 = self.restricted(Region.THETA1), self.restricted(Region.THETA0)
        if math.isinf(l1) and math.isinf(l0):
            return previous
        x = math.log(self.prior / (1.0 - self.prior)) + l1 - l0
        return 1.0 / (1.0 + math.exp(-x)) if x >= 0 else math.exp(x) / (1.0 + math.exp(x))

    def verdict(self, b, which):
        stat = self.glr if which is StatisticKind.GLR else self.alr
        excess1, excess0 = stat(1) - b.b1, stat(0) - b.b0
        if excess1 >= 0 and excess0 >= 0:
            return Verdict.DECLARE_ABNORMAL if excess1 >= excess0 else Verdict.DECLARE_NORMAL
        if excess1 >= 0:
            return Verdict.DECLARE_ABNORMAL
        return Verdict.DECLARE_NORMAL if excess0 >= 0 else Verdict.CONTINUE

    def expected_size(self, b):
        models, regions = self.grid.models, self.grid.regions
        theta = models[self.mle]
        d0 = min(finite_kl(theta, m) for m, r in zip(models, regions) if r is Region.THETA0)
        d1 = min(finite_kl(theta, m) for m, r in zip(models, regions) if r is Region.THETA1)
        region = regions[self.mle]
        if region is Region.INDIFFERENCE:
            region = Region.THETA0 if d0 <= d1 else Region.THETA1
        if region is Region.THETA0:
            return b.b0 / max(d1, 1e-12)
        return b.b1 / max(d0, 1e-12)


_REGIONS = st.sampled_from((Region.THETA0, Region.THETA1, Region.INDIFFERENCE))
_RATE = st.floats(min_value=0.2, max_value=40.0, allow_nan=False)


@st.composite
def _grid_and_data(draw):
    family = draw(st.sampled_from(("poisson", "gaussian", "categorical")))
    n = draw(st.integers(min_value=2, max_value=5))
    regions = [Region.THETA0, Region.THETA1] + draw(st.lists(_REGIONS, min_size=n - 2, max_size=n - 2))
    regions = draw(st.permutations(regions))
    if family == "poisson":
        models = [Poisson(draw(_RATE)) for _ in range(n)]
        obs = st.integers(min_value=0, max_value=60)
    elif family == "gaussian":
        models = [
            Gaussian(draw(st.floats(-5.0, 5.0)), draw(st.floats(0.3, 4.0))) for _ in range(n)
        ]
        obs = st.floats(-12.0, 12.0)
    else:
        arity = draw(st.integers(min_value=2, max_value=4))
        models = []
        for i in range(n):
            # the first point gives category 0 no mass: a -inf log-density
            w = [draw(st.integers(0 if i == 0 else 1, 6)) for _ in range(arity)]
            if i == 0:
                w[0], w[-1] = 0, max(w[-1], 1)
            models.append(Categorical(tuple(x / sum(w) for x in w)))
        obs = st.integers(min_value=0, max_value=arity - 1)
    ys = draw(st.lists(obs, min_size=1, max_size=40))
    prior = draw(st.sampled_from((0.0, 0.3, 0.5, 0.97, 1.0)))
    return ParameterGrid(tuple(models), tuple(regions)), ys, prior


@given(_grid_and_data())
@settings(max_examples=300, deadline=None)
def test_grid_fold_equals_direct_recomputation(case):
    grid, ys, prior = case
    b = composite_boundaries(1e-3, 1e-5)
    spec = ProcessSpec(prior=prior, cost_rate=2.0, alpha=1e-3, beta=1e-5, grid=grid)
    # the second fold over the same grid object reads the rows the first
    # one put in its table
    for data in (ys, ys[::-1]):
        s, oracle = init_state(grid, prior), _Oracle(grid, prior)
        # the engine's grid loop, one observation per call, as a third side
        runtimes = [_GridRuntime(spec, which) for which in StatisticKind]
        streams = [_Stream(grid.models[0], None) for _ in runtimes]
        for stream in streams:
            stream.buf = list(data)
        for y in data:
            ingest(s, grid, y)
            oracle.ingest(y)
            expected_belief = oracle.belief(s.estimated_belief)
            assert list(s.cum_ll) == oracle.cum.tolist()
            assert s.mle == oracle.mle
            assert s.max0 == oracle.restricted(Region.THETA0)
            assert s.max1 == oracle.restricted(Region.THETA1)
            assert s.alr_numerator == oracle.alr_numerator
            for declare in (0, 1):
                assert glr_statistic(s, declare) == oracle.glr(declare)
                assert alr_statistic(s, declare) == oracle.alr(declare)
            for which in StatisticKind:
                assert check_stop_composite(s, b, which) == oracle.verdict(b, which)
            assert estimated_belief_update(s, prior_log_odds(prior)) == expected_belief
            assert point_sizes(grid, b)[s.mle] == oracle.expected_size(b)
            for rt, stream in zip(runtimes, streams):
                steps, verdict, value = rt.advance(stream, 1, -math.inf)
                c = rt.cstate
                assert steps == 1
                assert (list(c.cum_ll), c.mle, c.max0, c.max1, c.alr_numerator, c.estimated_belief) == (
                    list(s.cum_ll), s.mle, s.max0, s.max1, s.alr_numerator, s.estimated_belief
                )
                assert verdict == check_stop_composite(s, b, rt.statistic)
                direct = index(s.estimated_belief, spec.cost_rate, point_sizes(grid, b)[s.mle])
                assert value == (0.0 if verdict.decided else direct)
    model = grid.models[0]
    if isinstance(model, Gaussian):
        assert grid.increments is None
        return
    # an observation log_density rejects raises and never enters the table
    bad = (2.5, -1) if isinstance(model, Poisson) else (2.5, -1, len(model.probs))
    for y in bad:
        with pytest.raises(ValueError):
            ingest(init_state(grid, prior), grid, y)
        assert y not in grid.increments
    assert set(grid.increments) == set(ys)
