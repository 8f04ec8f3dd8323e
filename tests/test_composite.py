"""Grid-test tests: the engine's grid path (``seqscan.engine._GridPath``)
fed observations by hand, one at a time, each step checked against a
direct recomputation; statistic formulas against hand sums, stop-rule
tie handling, belief against brute-force recomputation, estimate
consistency, and the frozen per-point sample-size quotients."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqscan.belief import index
from seqscan.composite import (
    CompositeBoundaries,
    ParameterGrid,
    Region,
    StatisticKind,
    _log_ratio,
    composite_boundaries,
    size_terms,
)
from seqscan.engine import ProcessSpec, _GridPath
from seqscan.models import Categorical, Gaussian, Poisson, finite_kl, log_density, sample
from seqscan.sprt import Verdict, update_llr

# error budgets so small that no test's data reaches a boundary
_NEVER = 1e-300


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


def glr(path, declare):
    """The GLR statistic for declaring abnormal (1) or normal (0): the
    unrestricted maximum minus the maximum over the rejected region."""
    return _log_ratio(path.cum_ll[path.mle], path.max0 if declare == 1 else path.max1)


def alr(path, declare):
    """The ALR statistic: the adaptive numerator minus the same maximum."""
    return _log_ratio(path.alr_numerator, path.max0 if declare == 1 else path.max1)


def grid_path(grid, prior, statistic=StatisticKind.GLR, alpha=_NEVER, beta=_NEVER):
    """The engine's path of one grid process, traced, fed by hand: it
    has no generator to draw from."""
    spec = ProcessSpec(prior=prior, cost_rate=2.0, alpha=alpha, beta=beta, grid=grid)
    return _GridPath(spec, grid.models[0], None, statistic, trace=True)


def steps(grid, prior, ys, statistic=StatisticKind.GLR, alpha=_NEVER, beta=_NEVER):
    """Extend a fresh path by one observation of ys at a time and yield it
    after each step, once the step equals the direct recomputation
    (``_Oracle``): the sums, the estimate, the regional maxima, the
    adaptive numerator, the belief, the stored GLR, the verdict and the
    stored index value (0.0 at the declaration, where the path ends)."""
    path = grid_path(grid, prior, statistic, alpha, beta)
    oracle = _Oracle(grid, prior)
    b = path.table.bounds
    for y in ys:
        before = path.estimated_belief
        assert path.fold([y]) == 1
        oracle.ingest(y)
        n, verdict = len(path.series) - 1, oracle.verdict(b, statistic)
        assert list(path.cum_ll) == oracle.cum.tolist()
        assert path.mle == oracle.mle
        assert (path.max0, path.max1) == (oracle.restricted(Region.THETA0), oracle.restricted(Region.THETA1))
        assert path.alr_numerator == oracle.alr_numerator
        assert path.estimated_belief == path.beliefs[n] == oracle.belief(before)
        assert path.stats[n] == oracle.glr(1)
        assert path.verdict is verdict
        if verdict.decided:
            assert (path.end, path.series[n]) == (n, 0.0)
        else:
            assert path.end is None
            assert path.series[n] == index(path.estimated_belief, 2.0, oracle.expected_size(b))
        yield path
        if verdict.decided:
            return


def folded(grid, prior, ys, **kwargs):
    """The path after ``steps`` has fed it every observation of ys."""
    for path in steps(grid, prior, ys, **kwargs):
        pass
    return path


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


def test_fold_tracks_mle_and_sums(binary_grid):
    s = grid_path(binary_grid, 0.5)
    assert s.mle == 0 and s.cum_ll == [0.0, 0.0]
    s = folded(binary_grid, 0.5, [16])
    assert s.cum_ll == [log_density(m, 16) for m in binary_grid.models]
    assert s.mle == 1  # 16 sits closer in likelihood to rate 15


def test_mle_tie_breaks_to_lowest_index():
    twin = ParameterGrid(
        models=(Poisson(10.0), Poisson(10.0)),
        regions=(Region.THETA0, Region.THETA1),
    )
    for path in steps(twin, 0.5, (8, 11, 10, 14)):
        assert path.mle == 0
        # identical models in both regions: the statistic has nothing to separate
        assert glr(path, 1) == 0.0
        assert glr(path, 0) == 0.0


def test_glr_constant_data_hand_sum(binary_grid):
    s = folded(binary_grid, 0.5, [15] * 5)
    # direct summation: gap per sample is log f(15|15) - log f(15|10) = 15 ln 1.5 - 5
    gap = log_density(Poisson(15.0), 15) - log_density(Poisson(10.0), 15)
    assert gap == pytest.approx(15 * math.log(1.5) - 5, abs=1e-12)
    assert glr(s, 1) == pytest.approx(5.409883108112328, abs=1e-10)
    assert glr(s, 1) == pytest.approx(5 * gap, abs=1e-12)
    # the declared-for side whose region holds the MLE is pinned at zero
    assert glr(s, 0) == 0.0


def test_glr_nonnegative_on_random_data(mixture_grid):
    rng = np.random.default_rng(3)
    for path in steps(mixture_grid, 0.5, [sample(Poisson(11.0), rng) for _ in range(60)]):
        assert glr(path, 0) >= 0.0
        assert glr(path, 1) >= 0.0


def test_alr_equals_glr_on_first_obs_when_initial_estimate_maximizes(binary_grid):
    # y=8 keeps the maximizer at index 0, which is also the initial estimate
    s = folded(binary_grid, 0.5, [8], statistic=StatisticKind.ALR)
    assert s.mle == 0
    assert alr(s, 1) == pytest.approx(glr(s, 1), abs=1e-12)
    assert alr(s, 0) == pytest.approx(glr(s, 0), abs=1e-12)


def test_alr_never_exceeds_glr(mixture_grid):
    rng = np.random.default_rng(11)
    for _ in range(20):
        true = Poisson(float(rng.choice([10.0, 12.0, 15.0])))
        ys = [sample(true, rng) for _ in range(int(rng.integers(1, 40)))]
        s = folded(mixture_grid, 0.5, ys, statistic=StatisticKind.ALR)
        for declare in (0, 1):
            assert alr(s, declare) <= glr(s, declare) + 1e-12


def test_alr_grows_linearly_once_estimate_stabilizes(binary_grid):
    values = [alr(p, 1) for p in steps(binary_grid, 0.5, [15] * 12, statistic=StatisticKind.ALR)]
    gap = log_density(Poisson(15.0), 15) - log_density(Poisson(10.0), 15)
    diffs = np.diff(values[1:])  # estimate locks onto rate 15 after the first obs
    assert np.allclose(diffs, gap, atol=1e-12)


def test_stop_rules(binary_grid):
    # alpha = beta, so both boundaries are one b. The path's sums are set
    # to the sums under test, then folds one observation whose row is all
    # zeros: the step's verdict is that of the sums as set
    b = composite_boundaries(1e-3, 1e-3).b1
    binary_grid.increments["zeros"] = [0.0, 0.0]

    def verdict(cum, statistic=StatisticKind.GLR, alr_numerator=0.0):
        path = grid_path(binary_grid, 0.5, statistic, alpha=1e-3, beta=1e-3)
        path.cum_ll, path.alr_numerator = list(cum), alr_numerator
        assert path.fold(["zeros"]) == 1
        assert path.end == (1 if path.verdict.decided else None)
        return path.verdict

    assert verdict((0.0, 0.0)) is Verdict.CONTINUE
    # abnormal side at its boundary exactly
    assert verdict((-b, 0.0)) is Verdict.DECLARE_ABNORMAL
    assert verdict((0.0, -b)) is Verdict.DECLARE_NORMAL
    # the GLR can only cross one side at a time (one side is always 0),
    # so drive the simultaneous-crossing branch through the adaptive
    # statistic with an engineered numerator: excess 2 for abnormal, 2.5
    # for normal, so normal wins
    assert verdict((-(b + 2.0), -(b + 2.5)), StatisticKind.ALR) is Verdict.DECLARE_NORMAL
    # both excesses equal: the tie declares abnormal
    assert verdict((-(b + 2.0), -(b + 2.0)), StatisticKind.ALR) is Verdict.DECLARE_ABNORMAL


def test_estimated_belief_frozen_value(binary_grid):
    path = folded(binary_grid, 0.5, [12])
    # posterior odds e^{-5} 1.5^{12} against the flat prior
    assert path.estimated_belief == pytest.approx(0.4664458315935051, abs=1e-10)


def test_estimated_belief_degenerate_priors(binary_grid):
    for prior in (0.0, 1.0):
        for path in steps(binary_grid, prior, (12, 18, 9)):
            assert path.estimated_belief == prior


def test_estimated_belief_identical_restricted_models():
    twin = ParameterGrid(
        models=(Poisson(10.0), Poisson(10.0)),
        regions=(Region.THETA0, Region.THETA1),
    )
    for path in steps(twin, 0.5, (9, 13, 10)):
        assert path.estimated_belief == pytest.approx(0.5, abs=1e-15)


def test_estimated_belief_matches_brute_force(mixture_grid):
    # oracle: recompute the odds from the raw observation list with the
    # current restricted maximum-likelihood models
    rng = np.random.default_rng(17)
    for trial in range(30):
        prior = float(rng.uniform(0.05, 0.95))
        true = Poisson(float(rng.choice([10.0, 12.0, 15.0])))
        ys = [sample(true, rng) for _ in range(int(rng.integers(1, 100)))]
        for n, path in enumerate(steps(mixture_grid, prior, ys), start=1):
            lls = [sum(log_density(m, o) for o in ys[:n]) for m in mixture_grid.models]
            l0 = max(lls[i] for i in mixture_grid.indices(Region.THETA0))
            l1 = max(lls[i] for i in mixture_grid.indices(Region.THETA1))
            num = prior * math.exp(l1 - max(l0, l1))
            den = num + (1 - prior) * math.exp(l0 - max(l0, l1))
            assert path.estimated_belief == pytest.approx(num / den, abs=1e-10)


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
    ys = [sample(Poisson(15.0), rng) for _ in range(40)]
    sum_llr = 0.0
    for y, path in zip(ys, steps(binary_grid, 0.5, ys)):
        sum_llr = update_llr(
            sum_llr, log_density(Poisson(15.0), y) - log_density(Poisson(10.0), y)
        )
        if path.mle == 1:
            assert glr(path, 1) == pytest.approx(sum_llr, abs=1e-9)


def test_mle_consistency_at_depth(mixture_grid):
    rng = np.random.default_rng(31)
    trials = 200
    hits = 0
    for _ in range(trials):
        ys = [sample(Poisson(15.0), rng) for _ in range(200)]
        hits += folded(mixture_grid, 0.5, ys).mle == 2
    assert hits / trials >= 0.99


# --- exact differential test of the grid path against the old numpy fold ---


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
def test_grid_path_equals_direct_recomputation(case):
    grid, ys, prior = case
    b = composite_boundaries(1e-3, 1e-5)
    # the second pass over the same grid object reads the rows the first
    # one put in its table
    seen = set()  # the observations folded, up to each path's declaration
    for data in (ys, ys[::-1]):
        for which in StatisticKind:
            # one observation per extension, each step checked by ``steps``,
            # against the whole prefix in one chunk
            for path in steps(grid, prior, data, which, alpha=1e-3, beta=1e-5):
                n = len(path.series) - 1
                for declare in (0, 1):
                    assert glr(path, declare) == _Oracle.glr(_replay(grid, prior, data[:n]), declare)
                    assert alr(path, declare) == _Oracle.alr(_replay(grid, prior, data[:n]), declare)
                assert point_sizes(grid, b)[path.mle] == _replay(grid, prior, data[:n]).expected_size(b)
            seen.update(data[:n])
            whole = grid_path(grid, prior, which, alpha=1e-3, beta=1e-5)
            assert whole.fold(list(data)) == n
            assert (whole.series, whole.beliefs, whole.stats, whole.end, whole.verdict) == (
                path.series, path.beliefs, path.stats, path.end, path.verdict
            )
            assert vars_of(whole) == vars_of(path)
    model = grid.models[0]
    if isinstance(model, Gaussian):
        assert grid.increments is None
        return
    # an observation log_density rejects raises and never enters the table
    bad = (2.5, -1) if isinstance(model, Poisson) else (2.5, -1, len(model.probs))
    for y in bad:
        with pytest.raises(ValueError):
            grid_path(grid, prior).fold([y])
        assert y not in grid.increments
    # a row for every observation some path folded, and no other
    assert set(grid.increments) == seen


def _replay(grid, prior, ys) -> _Oracle:
    oracle = _Oracle(grid, prior)
    for y in ys:
        oracle.ingest(y)
    return oracle


def vars_of(path):
    """A grid path's running sums, estimate, maxima, numerator and belief."""
    return (list(path.cum_ll), path.mle, path.max0, path.max1, path.alr_numerator, path.estimated_belief)
