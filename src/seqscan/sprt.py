"""Wald's sequential probability ratio test, one instance per process.

The state is just a float: the running sum of log-likelihood-ratio
increments over the instants the process was actually probed.
Boundaries and expected sample sizes use Wald's classical
approximations; exact boundary computation is out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum


class Verdict(Enum):
    CONTINUE = "continue"
    DECLARE_NORMAL = "declare_normal"
    DECLARE_ABNORMAL = "declare_abnormal"

    @property
    def decided(self) -> bool:
        return self is not Verdict.CONTINUE


@dataclass(frozen=True)
class SprtBoundaries:
    """Declaration thresholds: cross lower_a downward for normal,
    upper_b upward for abnormal."""

    lower_a: float
    upper_b: float

    def __post_init__(self) -> None:
        if not self.lower_a < 0 < self.upper_b:
            raise ValueError(f"need lower_a < 0 < upper_b, got ({self.lower_a}, {self.upper_b})")


def _check_error_budgets(alpha: float, beta: float) -> None:
    if not (0 < alpha < 1 and 0 < beta < 1):
        raise ValueError(f"error probabilities must lie in (0,1), got alpha={alpha}, beta={beta}")
    if alpha + beta >= 1:
        raise ValueError(f"need alpha + beta < 1, got {alpha + beta}")


def wald_boundaries(alpha: float, beta: float) -> SprtBoundaries:
    """A = log(beta/(1-alpha)), B = log((1-beta)/alpha)."""
    _check_error_budgets(alpha, beta)
    return SprtBoundaries(
        lower_a=math.log(beta / (1.0 - alpha)),
        upper_b=math.log((1.0 - beta) / alpha),
    )


def update_llr(sum_llr: float, llr_increment: float) -> float:
    """Fold one probed observation's LLR into the running sum. An
    infinite or NaN increment (an observation impossible under one model
    or both) is an error, not a saturated sum."""
    if not math.isfinite(llr_increment):
        raise ValueError(f"LLR increment must be finite, got {llr_increment}")
    return sum_llr + llr_increment


def check_stop(sum_llr: float, b: SprtBoundaries) -> Verdict:
    """Boundary hits declare (ties included); strictly inside continues."""
    if sum_llr >= b.upper_b:
        return Verdict.DECLARE_ABNORMAL
    if sum_llr <= b.lower_a:
        return Verdict.DECLARE_NORMAL
    return Verdict.CONTINUE


def expected_sample_sizes(
    alpha: float, beta: float, d01: float, d10: float
) -> tuple[float, float]:
    """Wald's approximate mean sample sizes (under H0, under H1).

    d01 and d10 are the KL divergences D(f0||f1) and D(f1||f0); both
    must be positive and finite (clamp infinite divergences upstream). A
    size rounded to 0 or below, as by budgets summing to just under 1, raises.
    """
    _check_error_budgets(alpha, beta)
    if not (math.isfinite(d01) and d01 > 0 and math.isfinite(d10) and d10 > 0):
        raise ValueError(f"divergences must be positive and finite, got d01={d01}, d10={d10}")
    log_accept = math.log((1.0 - alpha) / beta)
    log_reject = math.log((1.0 - beta) / alpha)
    e_n_h0 = ((1.0 - alpha) * log_accept - alpha * log_reject) / d01
    e_n_h1 = ((1.0 - beta) * log_reject - beta * log_accept) / d10
    if not (e_n_h0 > 0 and e_n_h1 > 0):
        raise ValueError(f"expected sample sizes must be positive, got ({e_n_h0}, {e_n_h1})")
    return e_n_h0, e_n_h1
