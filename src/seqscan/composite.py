"""Sequential tests with unknown parameters over a finite grid.

Each process under test carries cumulative log-likelihoods for every
grid point. Those sums are sufficient for everything this module
serves: the generalized statistic (re-maximized over all data), the
adaptive statistic (plug-in estimate from the previous step), the
restricted maximum-likelihood estimates per region, the estimated
belief, and the estimated expected sample size.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum

from seqscan.belief import _sigmoid
from seqscan.models import KL_SATURATION, ObservationModel, Poisson, finite_kl, log_density
from seqscan.sprt import Verdict

# floor for divergences in sample-size denominators; identical models
# across regions would otherwise divide by zero
_MIN_KL = 1.0 / KL_SATURATION


class Region(Enum):
    THETA0 = "theta0"
    THETA1 = "theta1"
    INDIFFERENCE = "indifference"


class StatisticKind(Enum):
    GLR = "glr"
    ALR = "alr"


@dataclass(frozen=True)
class ParameterGrid:
    """Finite parameter set with a region label per point. Duplicate
    models are allowed (even across regions).

    The tables every observation would otherwise re-derive are built
    once here: the point indices of each region, and per point the
    smallest divergence to Theta0 and to Theta1 (``nearest_kl``)."""

    models: tuple[ObservationModel, ...]
    regions: tuple[Region, ...]
    region_indices: dict[Region, tuple[int, ...]] = field(init=False, repr=False, compare=False)
    nearest_kl: tuple[tuple[float, float], ...] = field(init=False, repr=False, compare=False)
    # (log rate, rate) per point when every point is Poisson, else None
    poisson_terms: tuple[tuple[float, float], ...] | None = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "models", tuple(self.models))
        object.__setattr__(self, "regions", tuple(self.regions))
        if len(self.models) != len(self.regions):
            raise ValueError("one region label per grid point required")
        if not any(r is Region.THETA0 for r in self.regions):
            raise ValueError("region Theta0 must be nonempty")
        if not any(r is Region.THETA1 for r in self.regions):
            raise ValueError("region Theta1 must be nonempty")
        region_indices = {
            region: tuple(i for i, r in enumerate(self.regions) if r is region)
            for region in Region
        }
        i0, i1 = region_indices[Region.THETA0], region_indices[Region.THETA1]
        nearest_kl = tuple(
            (
                min(finite_kl(m, self.models[j]) for j in i0),
                min(finite_kl(m, self.models[j]) for j in i1),
            )
            for m in self.models
        )
        poisson_terms = None
        if all(isinstance(m, Poisson) for m in self.models):
            poisson_terms = tuple((math.log(m.rate), m.rate) for m in self.models)
        object.__setattr__(self, "region_indices", region_indices)
        object.__setattr__(self, "nearest_kl", nearest_kl)
        object.__setattr__(self, "poisson_terms", poisson_terms)

    def __len__(self) -> int:
        return len(self.models)

    def indices(self, region: Region) -> tuple[int, ...]:
        return self.region_indices[region]


@dataclass
class CompositeState:
    """Running sufficient statistics for one process."""

    cum_ll: Sequence[float]     # cumulative log-likelihood per grid point
    n_obs: int
    mle: int                    # argmax of cum_ll, ties to lowest index
    mle_prev: int               # the estimate held before the latest observation
    alr_numerator: float        # sum of log f(y_r | estimate before y_r)
    prior: float
    estimated_belief: float

    @property
    def alr_numerators(self) -> tuple[float, float]:
        # one per hypothesis to reject; both sides share the same sum
        return (self.alr_numerator, self.alr_numerator)


@dataclass(frozen=True)
class CompositeBoundaries:
    b0: float  # declare normal at statistic >= b0
    b1: float  # declare abnormal at statistic >= b1

    def __post_init__(self) -> None:
        if not (self.b0 > 0 and self.b1 > 0):
            raise ValueError(f"boundaries must be positive, got ({self.b0}, {self.b1})")


def composite_boundaries(alpha: float, beta: float) -> CompositeBoundaries:
    """Boundaries from the error budgets: declaring abnormal is a false
    alarm when the process is normal, and the martingale bound puts that
    probability at exp(-b1), so b1 = log(1/alpha); symmetrically the
    miss-detect budget sets b0 = log(1/beta). This keeps the asymmetry
    consistent with the fully specified test at the same budgets."""
    if not (0 < alpha < 1 and 0 < beta < 1):
        raise ValueError(f"error probabilities must lie in (0,1), got alpha={alpha}, beta={beta}")
    return CompositeBoundaries(b0=math.log(1.0 / beta), b1=math.log(1.0 / alpha))


def init_state(grid: ParameterGrid, prior: float) -> CompositeState:
    """Fresh state. The pre-data estimate is grid index 0 (uniform prior
    plausibility, ties to the lowest index)."""
    if not 0.0 <= prior <= 1.0:
        raise ValueError(f"prior must be a probability, got {prior}")
    return CompositeState(
        cum_ll=[0.0] * len(grid),
        n_obs=0,
        mle=0,
        mle_prev=0,
        alr_numerator=0.0,
        prior=prior,
        estimated_belief=prior,
    )


def ingest(state: CompositeState, grid: ParameterGrid, y: float) -> CompositeState:
    """Fold one observation into every per-point sum. The adaptive
    numerator uses the estimate held before this observation.

    Poisson grids evaluate the log-pmf from the cached (log rate, rate)
    pairs in the same operation order as ``log_density``, so every term
    is bit-identical to it. Log-densities are never +inf or NaN, so the
    sums stay NaN-free and a plain ``max`` finds the estimate."""
    terms = grid.poisson_terms
    if terms is not None:
        k = int(y)
        if k != y or k < 0:
            raise ValueError(f"Poisson support is the nonnegative integers, got {y}")
        g = math.lgamma(k + 1)
        inc = [k * log_rate - rate - g for log_rate, rate in terms]
    else:
        inc = [log_density(m, y) for m in grid.models]
    state.alr_numerator += inc[state.mle]
    state.mle_prev = state.mle
    cum = [c + d for c, d in zip(state.cum_ll, inc)]
    state.cum_ll = cum
    state.n_obs += 1
    state.mle = cum.index(max(cum))  # first maximum: ties to the lowest index
    return state


def _restricted_max(state: CompositeState, grid: ParameterGrid, region: Region) -> float:
    cum = state.cum_ll
    return max([cum[i] for i in grid.region_indices[region]])


def glr_statistic(state: CompositeState, grid: ParameterGrid, declare: int) -> float:
    """Unrestricted maximum minus the maximum over the region being
    rejected (declare=1 rejects Theta0 and vice versa)."""
    rejected = Region.THETA0 if declare == 1 else Region.THETA1
    full = max(state.cum_ll)
    restricted = _restricted_max(state, grid, rejected)
    if math.isinf(full) and math.isinf(restricted):
        return 0.0
    return full - restricted


def alr_statistic(state: CompositeState, grid: ParameterGrid, declare: int) -> float:
    """Adaptive numerator minus the maximum over the rejected region."""
    rejected = Region.THETA0 if declare == 1 else Region.THETA1
    restricted = _restricted_max(state, grid, rejected)
    if math.isinf(state.alr_numerator) and math.isinf(restricted):
        return 0.0
    return state.alr_numerator - restricted


def check_stop_composite(
    state: CompositeState,
    grid: ParameterGrid,
    b: CompositeBoundaries,
    which: StatisticKind = StatisticKind.GLR,
) -> Verdict:
    """One-sided crossings; when both sides cross at once the larger
    boundary excess wins and an exact tie declares abnormal."""
    stat = glr_statistic if which is StatisticKind.GLR else alr_statistic
    excess1 = stat(state, grid, 1) - b.b1
    excess0 = stat(state, grid, 0) - b.b0
    if excess1 >= 0 and excess0 >= 0:
        return Verdict.DECLARE_ABNORMAL if excess1 >= excess0 else Verdict.DECLARE_NORMAL
    if excess1 >= 0:
        return Verdict.DECLARE_ABNORMAL
    if excess0 >= 0:
        return Verdict.DECLARE_NORMAL
    return Verdict.CONTINUE


def estimated_belief_update(state: CompositeState, grid: ParameterGrid) -> float:
    """Posterior-odds belief against the two restricted maximum-likelihood
    models. All past observations enter through the per-point sums, so the
    cost is O(grid), not O(n)."""
    if state.prior in (0.0, 1.0):
        state.estimated_belief = state.prior
        return state.prior
    l1 = _restricted_max(state, grid, Region.THETA1)
    l0 = _restricted_max(state, grid, Region.THETA0)
    if math.isinf(l1) and math.isinf(l0):
        return state.estimated_belief
    logit = math.log(state.prior / (1.0 - state.prior)) + l1 - l0
    state.estimated_belief = _sigmoid(logit)
    return state.estimated_belief


def estimated_expected_sample_size(
    state: CompositeState, grid: ParameterGrid, b: CompositeBoundaries
) -> float:
    """Boundary over the divergence from the current estimate to the
    opposing region. An estimate inside the indifference region counts
    as belonging to the nearer (smaller-divergence) region."""
    region = grid.regions[state.mle]
    d_to_t0, d_to_t1 = grid.nearest_kl[state.mle]
    if region is Region.INDIFFERENCE:
        region = Region.THETA0 if d_to_t0 <= d_to_t1 else Region.THETA1
    if region is Region.THETA0:
        return b.b0 / max(d_to_t1, _MIN_KL)
    return b.b1 / max(d_to_t0, _MIN_KL)
