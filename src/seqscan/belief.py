"""Per-process priority arithmetic: posterior belief, expected detection
time, and the probe-priority index belief * cost / expected time.

The belief is carried as a log-odds sum rather than as a bare
probability: the prior log-odds plus the same summed LLR the sequential
test keeps. Posteriors a hair away from 0 or 1 keep their ordering in
log space where the probability form would saturate; the probability is
derived on demand.
"""

from __future__ import annotations

import math


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def prior_log_odds(prior: float) -> float | None:
    """log(prior / (1 - prior)), or None for the absorbing priors 0 and
    1, which no evidence moves."""
    if not 0.0 <= prior <= 1.0:
        raise ValueError(f"prior must be a probability, got {prior}")
    if prior == 0.0 or prior == 1.0:
        return None
    return math.log(prior / (1.0 - prior))


def posterior(prior: float, log_odds: float | None, sum_llr: float) -> float:
    """Posterior that the process is abnormal after evidence sum_llr;
    log_odds is prior_log_odds(prior)."""
    if log_odds is None:
        return prior
    return _sigmoid(log_odds + sum_llr)


def expected_detection_time(posterior: float, e_n_h0: float, e_n_h1: float) -> float:
    """Belief-weighted mean of the two conditional sample sizes."""
    if not (e_n_h0 > 0 and e_n_h1 > 0):
        raise ValueError(f"conditional sizes must be positive, got ({e_n_h0}, {e_n_h1})")
    return posterior * e_n_h1 + (1.0 - posterior) * e_n_h0


def index(posterior: float, cost: float, expected_time: float) -> float:
    """Priority of probing an undeclared process next. A declared
    process has no index; the engine holds 0.0 in its slot."""
    if cost < 0:
        raise ValueError(f"cost must be nonnegative, got {cost}")
    if not expected_time > 0:
        raise ValueError(f"expected time must be positive, got {expected_time}")
    return posterior * cost / expected_time
