"""Sequential anomaly scanning under a probe budget.

A library plus CLI for simulating the search for anomalous processes
among K independent alternatives when only M can be probed per time
unit: per-process sequential tests (SPRT for fully known models, GLR
and adaptive variants for parameter grids), a closed-loop priority
policy with sparse round-robin exploration, an open-loop baseline,
and a seeded Monte Carlo harness that writes plot-ready CSV.
"""

from seqscan.models import (
    Categorical,
    Gaussian,
    ObservationModel,
    Poisson,
    kl_divergence,
    log_density,
    sample,
)
from seqscan.sprt import (
    SprtBoundaries,
    Verdict,
    check_stop,
    expected_sample_sizes,
    update_llr,
    wald_boundaries,
)
from seqscan.composite import ParameterGrid, Region, StatisticKind
from seqscan.engine import (
    EpisodePaths,
    EpisodeResult,
    PolicyConfig,
    PolicyKind,
    ProcessSpec,
    lower_bound_oracle,
    run_episode,
)
from seqscan.harness import ExperimentConfig, figure_config, parse_config, run_experiment

__version__ = "0.1.0"

__all__ = [
    "Categorical",
    "EpisodePaths",
    "EpisodeResult",
    "ExperimentConfig",
    "Gaussian",
    "ObservationModel",
    "ParameterGrid",
    "Poisson",
    "PolicyConfig",
    "PolicyKind",
    "ProcessSpec",
    "Region",
    "SprtBoundaries",
    "StatisticKind",
    "Verdict",
    "check_stop",
    "expected_sample_sizes",
    "figure_config",
    "kl_divergence",
    "log_density",
    "lower_bound_oracle",
    "parse_config",
    "run_episode",
    "run_experiment",
    "sample",
    "update_llr",
    "wald_boundaries",
]
