"""Sequential tests with unknown parameters over a finite grid.

Each process under test carries cumulative log-likelihoods for every
grid point. Those sums are sufficient for everything a grid test needs:
the generalized statistic (re-maximized over all data), the adaptive
statistic (plug-in estimate from the previous step), the restricted
maximum-likelihood estimates per region and the estimated belief. The
engine's grid path (``seqscan.engine._GridPath``) holds the sums, folds
each observation into them and computes the statistics; this module
holds the grid, the boundaries and the per-point expected sample sizes
(``size_terms``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from seqscan.models import KL_SATURATION, Gaussian, ObservationModel, finite_kl, log_density

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
    once here: the point indices of Theta0 and of Theta1, and per point
    the smallest divergence to Theta0 and to Theta1 (``nearest_kl``).
    ``increments`` maps an observation to its row of log-densities, one
    per point, filled on first sight and kept for the grid's lifetime;
    it is None when a point is Gaussian."""

    models: tuple[ObservationModel, ...]
    regions: tuple[Region, ...]
    theta0: tuple[int, ...] = field(init=False, repr=False, compare=False)
    theta1: tuple[int, ...] = field(init=False, repr=False, compare=False)
    nearest_kl: tuple[tuple[float, float], ...] = field(init=False, repr=False, compare=False)
    increments: dict | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "models", tuple(self.models))
        object.__setattr__(self, "regions", tuple(self.regions))
        if len(self.models) != len(self.regions):
            raise ValueError("one region label per grid point required")
        i0, i1 = self.indices(Region.THETA0), self.indices(Region.THETA1)
        if not (i0 and i1):
            raise ValueError("regions Theta0 and Theta1 must be nonempty")
        nearest_kl = tuple(
            (
                min(finite_kl(m, self.models[j]) for j in i0),
                min(finite_kl(m, self.models[j]) for j in i1),
            )
            for m in self.models
        )
        gaussian = any(isinstance(m, Gaussian) for m in self.models)
        object.__setattr__(self, "theta0", i0)
        object.__setattr__(self, "theta1", i1)
        object.__setattr__(self, "nearest_kl", nearest_kl)
        object.__setattr__(self, "increments", None if gaussian else {})

    def __len__(self) -> int:
        return len(self.models)

    def indices(self, region: Region) -> tuple[int, ...]:
        return tuple(i for i, r in enumerate(self.regions) if r is region)

    def row(self, y: float) -> list[float]:
        """The log-density of ``y`` under every point, from ``increments``
        when the grid has one; a ``y`` that ``log_density`` rejects raises
        before any caching."""
        table = self.increments
        inc = None if table is None else table.get(y)
        if inc is None:
            inc = [log_density(m, y) for m in self.models]
            if table is not None:
                table[y] = inc
        return inc


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


def _log_ratio(numerator: float, restricted: float) -> float:
    """numerator - restricted, with 0.0 where both are -inf."""
    return 0.0 if math.isinf(numerator) and math.isinf(restricted) else numerator - restricted


def size_terms(grid: ParameterGrid, b: CompositeBoundaries) -> tuple[tuple[float, float], ...]:
    """Per grid point, the boundary and the floored divergence whose
    quotient is the expected sample size while that point is the
    estimate: the boundary of the point's region over the divergence to
    the opposing region. A point inside the indifference region counts
    as belonging to the nearer (smaller-divergence) region."""
    terms = []
    for region, (d_to_t0, d_to_t1) in zip(grid.regions, grid.nearest_kl):
        if region is Region.INDIFFERENCE:
            region = Region.THETA0 if d_to_t0 <= d_to_t1 else Region.THETA1
        normal = region is Region.THETA0
        terms.append((b.b0, max(d_to_t1, _MIN_KL)) if normal else (b.b1, max(d_to_t0, _MIN_KL)))
    return tuple(terms)
