"""Observation models: sampling, log-density evaluation, KL divergence.

Three families cover the simulator's needs: Poisson counts (the main
experimental setting), Gaussians, and finite categoricals, which make
small exact oracles cheap. Models are immutable value objects; every
simulation episode owns its own numpy Generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LOG_2PI = math.log(2.0 * math.pi)

# Stand-in for an infinite divergence when a finite number is required
# downstream (expected sample sizes, priority indices). Large enough to
# dominate every realistic divergence, small enough to stay well inside
# float range after the arithmetic that consumes it.
KL_SATURATION = 1e12


@dataclass(frozen=True)
class Poisson:
    rate: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.rate) and self.rate > 0):
            raise ValueError(f"Poisson rate must be positive and finite, got {self.rate}")


@dataclass(frozen=True)
class Gaussian:
    mean: float
    stddev: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.mean):
            raise ValueError(f"Gaussian mean must be finite, got {self.mean}")
        if not (math.isfinite(self.stddev) and self.stddev > 0):
            raise ValueError(f"Gaussian stddev must be positive and finite, got {self.stddev}")


@dataclass(frozen=True)
class Categorical:
    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "probs", tuple(float(p) for p in self.probs))
        if not self.probs:
            raise ValueError("Categorical needs at least one category")
        if any(not math.isfinite(p) or p < 0 for p in self.probs):
            raise ValueError("Categorical probabilities must be nonnegative and finite")
        if abs(sum(self.probs) - 1.0) > 1e-12:
            raise ValueError(f"Categorical probabilities must sum to 1, got {sum(self.probs)}")


ObservationModel = Poisson | Gaussian | Categorical


def sample(model: ObservationModel, rng: np.random.Generator) -> float:
    """Draw one observation. Exactly one generator call per draw, so the
    stream position after n draws is model-independent."""
    if isinstance(model, Poisson):
        return int(rng.poisson(model.rate))
    if isinstance(model, Gaussian):
        return float(rng.normal(model.mean, model.stddev))
    if isinstance(model, Categorical):
        return _category(model.probs, rng.random())
    raise TypeError(f"not an observation model: {model!r}")


def sample_many(model: ObservationModel, rng: np.random.Generator, n: int) -> list:
    """Draw n observations in one generator call, as a list equal to n
    calls of ``sample`` that leaves the generator where they would."""
    if isinstance(model, Poisson):
        return rng.poisson(model.rate, n).tolist()
    if isinstance(model, Gaussian):
        return rng.normal(model.mean, model.stddev, n).tolist()
    if isinstance(model, Categorical):
        probs = model.probs
        return [_category(probs, u) for u in rng.random(n).tolist()]
    raise TypeError(f"not an observation model: {model!r}")


def _category(probs: tuple[float, ...], u: float) -> int:
    """Inverse CDF of a categorical at one uniform."""
    acc = 0.0
    for i, p in enumerate(probs):
        acc += p
        if u < acc:
            return i
    return len(probs) - 1


def log_density(model: ObservationModel, y: float) -> float:
    """Log pmf/pdf at y. Out-of-support y is a caller bug, not a -inf."""
    if isinstance(model, Poisson):
        k = int(y)
        if k != y or k < 0:
            raise ValueError(f"Poisson support is the nonnegative integers, got {y}")
        return k * math.log(model.rate) - model.rate - math.lgamma(k + 1)
    if isinstance(model, Gaussian):
        if not math.isfinite(y):
            raise ValueError(f"Gaussian observation must be finite, got {y}")
        z = (y - model.mean) / model.stddev
        return -0.5 * (z * z + LOG_2PI) - math.log(model.stddev)
    if isinstance(model, Categorical):
        i = int(y)
        if i != y or not 0 <= i < len(model.probs):
            raise ValueError(f"invalid category {y} for {len(model.probs)} categories")
        p = model.probs[i]
        return math.log(p) if p > 0 else -math.inf
    raise TypeError(f"not an observation model: {model!r}")


def kl_divergence(p: ObservationModel, q: ObservationModel) -> float:
    """D(p||q) in nats. Same-family pairs only; +inf when q has a zero
    where p has mass (disjoint-support sentinel, never an exception)."""
    if type(p) is not type(q):
        raise TypeError(f"KL needs models of one family, got {type(p).__name__} vs {type(q).__name__}")
    if isinstance(p, Poisson):
        return p.rate * math.log(p.rate / q.rate) + q.rate - p.rate
    if isinstance(p, Gaussian):
        return (
            math.log(q.stddev / p.stddev)
            + (p.stddev**2 + (p.mean - q.mean) ** 2) / (2.0 * q.stddev**2)
            - 0.5
        )
    if isinstance(p, Categorical):
        if len(p.probs) != len(q.probs):
            raise TypeError("Categorical KL needs equal category counts")
        total = 0.0
        for pi, qi in zip(p.probs, q.probs):
            if pi == 0:
                continue
            if qi == 0:
                return math.inf
            total += pi * math.log(pi / qi)
        # clip the tiny negative float noise an identical pair can leave
        return max(total, 0.0)
    raise TypeError(f"not an observation model: {p!r}")


def finite_kl(p: ObservationModel, q: ObservationModel) -> float:
    """KL clamped to the saturation sentinel; keeps indices and expected
    sample sizes finite and comparable when supports are disjoint."""
    return min(kl_divergence(p, q), KL_SATURATION)
