"""Config-driven Monte Carlo experiments.

A config names a process set (explicit specs or a generator), a sweep
variable, the policies to compare, and an episode budget. Running it
produces one batch summary per (sweep point, policy), deterministic in
the master seed, ready to serialize as plot-ready CSV.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from seqscan.composite import ParameterGrid, Region, StatisticKind
from seqscan.engine import (
    PolicyConfig,
    PolicyKind,
    ProcessSpec,
    lower_bound_oracle,
    run_episode,
)
from seqscan.models import Categorical, Gaussian, ObservationModel, Poisson, finite_kl
from seqscan.sprt import expected_sample_sizes


class ConfigError(ValueError):
    """Bad experiment config; message says which field or process."""


POLICY_NAMES = ("CL", "OL", "CL-no-explore")
SWEEP_VARIABLES = ("K", "d2", "c_e", "alpha")
STATISTIC_NAMES = ("SPRT", "GLR", "ALR")
GENERATOR_KINDS = ("equally_spaced_mixture", "two_tier", "identical")
FIGURE_NAMES = ("fig1", "fig2", "fig3", "fig4", "fig5")

CSV_COLUMNS = (
    "sweep_value",
    "policy",
    "episodes",
    "mean_cost",
    "stderr_cost",
    "fa_rate",
    "md_rate",
    "mean_samples",
    "lower_bound",
    "cost_over_bound",
    "rho",
)
EPISODE_COLUMNS = (
    "sweep_value",
    "policy",
    "episode",
    "cost",
    "samples",
    "fa",
    "md",
    "abnormal",
    "abnormal_time",
    "bound",
)


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    episodes: int
    master_seed: int
    policies: tuple[str, ...]
    sweep_variable: str
    sweep_values: tuple[float, ...]
    m: int = 1
    zeta: float = 1.7
    statistic: str = "SPRT"
    generator: dict | None = None
    processes: tuple[ProcessSpec, ...] | None = None
    truth: tuple[bool, ...] | None = None
    alpha_match: dict | None = None


@dataclass
class BatchSummary:
    """Aggregates for one (sweep point, policy) batch."""

    sweep_value: float
    policy: str
    episodes: int
    mean_cost: float = math.nan
    stderr_cost: float = math.nan
    fa_rate: float = math.nan
    md_rate: float = math.nan
    mean_samples: float = math.nan
    lower_bound: float = math.nan
    cost_over_bound: float = math.nan
    rho: float | None = None
    rho_se: float | None = None
    fa_rates: tuple[float, ...] = ()
    md_rates: tuple[float, ...] = ()
    mean_samples_per_process: tuple[float, ...] = ()
    extra: dict = field(default_factory=dict)
    error: str | None = None
    episode_records: tuple[dict, ...] | None = None


# --- model / process (de)serialization ---------------------------------


def model_to_json(model: ObservationModel) -> dict:
    if isinstance(model, Poisson):
        return {"family": "poisson", "rate": model.rate}
    if isinstance(model, Gaussian):
        return {"family": "gaussian", "mean": model.mean, "stddev": model.stddev}
    if isinstance(model, Categorical):
        return {"family": "categorical", "probs": list(model.probs)}
    raise ConfigError(f"unknown model type {type(model).__name__}")


def model_from_json(obj) -> ObservationModel:
    if not isinstance(obj, dict) or "family" not in obj:
        raise ConfigError(f"model must be an object with a 'family' key, got {obj!r}")
    family = obj["family"]
    try:
        if family == "poisson":
            return Poisson(rate=float(obj["rate"]))
        if family == "gaussian":
            return Gaussian(mean=float(obj["mean"]), stddev=float(obj["stddev"]))
        if family == "categorical":
            return Categorical(probs=tuple(float(p) for p in obj["probs"]))
    except KeyError as exc:
        raise ConfigError(f"model {family!r} is missing field {exc}") from exc
    raise ConfigError(f"unknown model family {family!r}")


_REGION_NAMES = {r.value: r for r in Region}


def process_to_json(spec: ProcessSpec) -> dict:
    out: dict = {
        "prior": spec.prior,
        "cost_rate": spec.cost_rate,
        "alpha": spec.alpha,
        "beta": spec.beta,
        "switch_delay": spec.switch_delay,
    }
    if spec.is_composite:
        out["grid"] = {
            "models": [model_to_json(m) for m in spec.grid.models],
            "regions": [r.value for r in spec.grid.regions],
        }
        if spec.h0_weights is not None:
            out["h0_weights"] = list(spec.h0_weights)
        if spec.h1_weights is not None:
            out["h1_weights"] = list(spec.h1_weights)
    else:
        out["model_h0"] = model_to_json(spec.model_h0)
        out["model_h1"] = model_to_json(spec.model_h1)
    return out


_PROCESS_KEYS = {
    "prior", "cost_rate", "alpha", "beta", "switch_delay",
    "model_h0", "model_h1", "grid", "h0_weights", "h1_weights",
}


def process_from_json(obj: dict, pid: int) -> ProcessSpec:
    """Build one spec; errors carry the 1-based process id."""
    if not isinstance(obj, dict):
        raise ConfigError(f"process {pid}: expected an object, got {obj!r}")
    unknown = set(obj) - _PROCESS_KEYS
    if unknown:
        raise ConfigError(f"process {pid}: unknown keys {sorted(unknown)}")
    try:
        grid = None
        if "grid" in obj:
            gobj = obj["grid"]
            regions = tuple(_REGION_NAMES[r] for r in gobj["regions"])
            grid = ParameterGrid(
                models=tuple(model_from_json(m) for m in gobj["models"]),
                regions=regions,
            )
        return ProcessSpec(
            prior=float(obj["prior"]),
            cost_rate=float(obj["cost_rate"]),
            alpha=float(obj["alpha"]),
            beta=float(obj["beta"]),
            model_h0=model_from_json(obj["model_h0"]) if "model_h0" in obj else None,
            model_h1=model_from_json(obj["model_h1"]) if "model_h1" in obj else None,
            grid=grid,
            h0_weights=tuple(obj["h0_weights"]) if "h0_weights" in obj else None,
            h1_weights=tuple(obj["h1_weights"]) if "h1_weights" in obj else None,
            switch_delay=int(obj.get("switch_delay", 0)),
        )
    except KeyError as exc:
        raise ConfigError(f"process {pid}: missing field {exc}") from exc
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"process {pid}: {exc}") from exc


# --- config (de)serialization and validation ---------------------------

_CONFIG_KEYS = {
    "name", "episodes", "master_seed", "m", "zeta", "statistic",
    "policies", "sweep", "generator", "processes", "truth", "alpha_match",
}

_GENERATOR_KEYS = {
    "equally_spaced_mixture": {
        "kind", "K", "low", "high", "ratios", "weights", "prior", "alpha", "beta",
    },
    "two_tier": {
        "kind", "K", "low", "high", "ratio", "prior", "alpha", "beta",
        "equal_cost", "d1", "d2",
    },
    "identical": {"kind", "K", "rate0", "rate1", "cost", "prior", "alpha", "beta"},
}


def parse_config(text: str) -> ExperimentConfig:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys {sorted(unknown)}")
    sweep = raw.get("sweep")
    if not isinstance(sweep, dict) or set(sweep) != {"variable", "values"}:
        raise ConfigError("sweep must be an object with keys 'variable' and 'values'")
    processes = None
    if raw.get("processes") is not None:
        processes = tuple(
            process_from_json(p, i + 1) for i, p in enumerate(raw["processes"])
        )
    try:
        cfg = ExperimentConfig(
            name=raw["name"],
            episodes=int(raw["episodes"]),
            master_seed=int(raw["master_seed"]),
            policies=tuple(raw["policies"]),
            sweep_variable=sweep["variable"],
            sweep_values=tuple(float(v) for v in sweep["values"]),
            m=int(raw.get("m", 1)),
            zeta=float(raw.get("zeta", 1.7)),
            statistic=raw.get("statistic", "SPRT"),
            generator=raw.get("generator"),
            processes=processes,
            truth=tuple(bool(b) for b in raw["truth"]) if raw.get("truth") is not None else None,
            alpha_match=raw.get("alpha_match"),
        )
    except KeyError as exc:
        raise ConfigError(f"missing config field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    validate_config(cfg)
    return cfg


def serialize_config(cfg: ExperimentConfig) -> str:
    out: dict = {
        "name": cfg.name,
        "episodes": cfg.episodes,
        "master_seed": cfg.master_seed,
        "m": cfg.m,
        "zeta": cfg.zeta,
        "statistic": cfg.statistic,
        "policies": list(cfg.policies),
        "sweep": {"variable": cfg.sweep_variable, "values": list(cfg.sweep_values)},
    }
    if cfg.generator is not None:
        out["generator"] = cfg.generator
    if cfg.processes is not None:
        out["processes"] = [process_to_json(p) for p in cfg.processes]
    if cfg.truth is not None:
        out["truth"] = list(cfg.truth)
    if cfg.alpha_match is not None:
        out["alpha_match"] = cfg.alpha_match
    return json.dumps(out, indent=2, sort_keys=True)


def _known_process_count(cfg: ExperimentConfig) -> int | None:
    if cfg.processes is not None:
        return len(cfg.processes)
    if cfg.sweep_variable != "K" and cfg.generator is not None:
        k = cfg.generator.get("K")
        return int(k) if k is not None else None
    return None


def validate_config(cfg: ExperimentConfig) -> None:
    if not isinstance(cfg.name, str) or not cfg.name:
        raise ConfigError("name must be a nonempty string")
    if cfg.episodes < 0:
        raise ConfigError(f"episodes must be >= 0, got {cfg.episodes}")
    if cfg.master_seed < 0:
        raise ConfigError(f"master_seed must be >= 0, got {cfg.master_seed}")
    if cfg.m < 1:
        raise ConfigError(f"m must be >= 1, got {cfg.m}")
    if not (math.isfinite(cfg.zeta) and cfg.zeta > 1.0):
        raise ConfigError(f"zeta must be finite and > 1, got {cfg.zeta}")
    if cfg.statistic not in STATISTIC_NAMES:
        raise ConfigError(f"statistic must be one of {STATISTIC_NAMES}, got {cfg.statistic!r}")
    if not cfg.policies:
        raise ConfigError("policies must be nonempty")
    if len(set(cfg.policies)) != len(cfg.policies):
        raise ConfigError("policies must not repeat")
    for p in cfg.policies:
        if p not in POLICY_NAMES:
            raise ConfigError(f"unknown policy {p!r}; choose from {POLICY_NAMES}")
    if cfg.sweep_variable not in SWEEP_VARIABLES:
        raise ConfigError(
            f"sweep variable must be one of {SWEEP_VARIABLES}, got {cfg.sweep_variable!r}"
        )
    if not cfg.sweep_values:
        raise ConfigError("sweep values must be nonempty")

    if (cfg.generator is None) == (cfg.processes is None):
        raise ConfigError("give exactly one of 'generator' or 'processes'")
    if cfg.generator is not None:
        _validate_generator(cfg.generator, needs_k=cfg.sweep_variable != "K")

    var = cfg.sweep_variable
    if var == "K":
        if cfg.generator is None:
            raise ConfigError("a K sweep needs a generator to rebuild the process set")
        for v in cfg.sweep_values:
            if v != int(v) or v < 1:
                raise ConfigError(f"K sweep values must be positive integers, got {v}")
    elif var == "d2":
        if cfg.generator is None or cfg.generator.get("kind") != "two_tier":
            raise ConfigError("a d2 sweep needs the two_tier generator")
        for v in cfg.sweep_values:
            if v != int(v) or v < 0:
                raise ConfigError(f"d2 sweep values must be nonnegative integers, got {v}")
    elif var == "c_e":
        # alpha = beta = 1/c_e must leave alpha + beta < 1
        for v in cfg.sweep_values:
            if not v > 2:
                raise ConfigError(f"c_e sweep values must exceed 2, got {v}")
    elif var == "alpha":
        for v in cfg.sweep_values:
            if not 0 < v < 0.5:
                raise ConfigError(f"alpha sweep values must lie in (0, 0.5), got {v}")

    if cfg.alpha_match is not None:
        if var != "alpha":
            raise ConfigError("alpha_match only applies to an alpha sweep")
        if set(cfg.alpha_match) != {"index_ratio"}:
            raise ConfigError("alpha_match must have exactly the key 'index_ratio'")
        if not cfg.alpha_match["index_ratio"] > 0:
            raise ConfigError("alpha_match index_ratio must be positive")
        if cfg.processes is None or len(cfg.processes) != 2:
            raise ConfigError("alpha_match needs exactly 2 explicit processes")
        if any(p.is_composite for p in cfg.processes):
            raise ConfigError("alpha_match only supports fully specified model pairs")

    if cfg.truth is not None:
        if cfg.processes is None:
            raise ConfigError("a forced truth vector needs explicit processes")
        if len(cfg.truth) != len(cfg.processes):
            raise ConfigError(
                f"truth length {len(cfg.truth)} != process count {len(cfg.processes)}"
            )

    composite = False
    if cfg.processes is not None:
        composite = any(p.is_composite for p in cfg.processes)
    elif cfg.generator is not None:
        composite = cfg.generator.get("kind") == "equally_spaced_mixture"
    if composite and cfg.statistic == "SPRT":
        raise ConfigError("parameter-grid processes need the GLR or ALR statistic")
    for pid, spec in enumerate(cfg.processes or (), start=1):
        if spec.is_composite:
            _validate_grid_decidable(spec, pid)

    k = _known_process_count(cfg)
    if k is not None and cfg.m > k:
        raise ConfigError(f"m={cfg.m} exceeds the process count {k}")


def _validate_grid_decidable(spec: ProcessSpec, pid: int) -> None:
    """A truth point that can be drawn (positive weight; no weights means
    uniform) and sits at zero divergence from the opposite region gives
    its test no drift, so episodes would only end at the time cap."""
    grid = spec.grid
    for region, weights, opposite, side in (
        (Region.THETA0, spec.h0_weights, Region.THETA1, 1),
        (Region.THETA1, spec.h1_weights, Region.THETA0, 0),
    ):
        idxs = grid.indices(region)
        for i, w in zip(idxs, weights or (1.0,) * len(idxs)):
            if w > 0 and grid.nearest_kl[i][side] == 0:
                raise ConfigError(
                    f"process {pid}: grid point {i} ({grid.models[i]}) in {region.value} "
                    f"has zero divergence to {opposite.value}; its test can never decide"
                )


def _validate_generator(gen: dict, needs_k: bool) -> None:
    if not isinstance(gen, dict) or "kind" not in gen:
        raise ConfigError("generator must be an object with a 'kind' key")
    kind = gen["kind"]
    if kind not in GENERATOR_KINDS:
        raise ConfigError(f"unknown generator kind {kind!r}; choose from {GENERATOR_KINDS}")
    unknown = set(gen) - _GENERATOR_KEYS[kind]
    if unknown:
        raise ConfigError(f"generator {kind}: unknown keys {sorted(unknown)}")
    if needs_k:
        k = gen.get("K")
        if k is None or int(k) < 1:
            raise ConfigError(f"generator {kind}: K must be given and positive")
        if kind == "two_tier" and int(k) % 2:
            raise ConfigError(f"generator two_tier: K must be even, got {k}")
    if kind == "equally_spaced_mixture":
        ratios = tuple(gen.get("ratios", (1.5, 1.2)))
        weights = tuple(gen.get("weights", (0.5, 0.5)))
        if len(ratios) != len(weights) or not ratios:
            raise ConfigError("generator equally_spaced_mixture: ratios and weights must align")
        if any(r <= 0 or r == 1.0 for r in ratios):
            raise ConfigError("generator equally_spaced_mixture: ratios must be positive and != 1")
        if any(w < 0 for w in weights) or abs(sum(weights) - 1.0) > 1e-9:
            raise ConfigError("generator equally_spaced_mixture: weights must be a probability vector")


# --- process-set generators --------------------------------------------


def _gen_equally_spaced_mixture(gen: dict, k: int) -> tuple[ProcessSpec, ...]:
    low = float(gen.get("low", 10.0))
    high = float(gen.get("high", 20.0))
    ratios = tuple(float(r) for r in gen.get("ratios", (1.5, 1.2)))
    weights = tuple(float(w) for w in gen.get("weights", (0.5, 0.5)))
    prior = float(gen.get("prior", 0.5))
    alpha = float(gen.get("alpha", 1e-3))
    beta = float(gen.get("beta", 1e-6))
    rates = np.linspace(low, high, k) if k > 1 else np.array([low])
    specs = []
    for r0 in rates:
        models = (Poisson(float(r0)),) + tuple(Poisson(float(r0 * r)) for r in ratios)
        regions = (Region.THETA0,) + (Region.THETA1,) * len(ratios)
        specs.append(
            ProcessSpec(
                prior=prior,
                cost_rate=float(r0),
                alpha=alpha,
                beta=beta,
                grid=ParameterGrid(models=models, regions=regions),
                h1_weights=weights,
            )
        )
    return tuple(specs)


def _gen_two_tier(gen: dict, k: int) -> tuple[ProcessSpec, ...]:
    if k % 2:
        raise ConfigError(f"generator two_tier: K must be even, got {k}")
    low = float(gen.get("low", 10.0))
    high = float(gen.get("high", 20.0))
    ratio = float(gen.get("ratio", 1.5))
    prior = float(gen.get("prior", 0.5))
    alpha = float(gen.get("alpha", 1e-3))
    beta = float(gen.get("beta", 1e-6))
    equal_cost = bool(gen.get("equal_cost", False))
    d1 = int(gen.get("d1", 0))
    d2 = int(gen.get("d2", 0))
    specs = []
    for i in range(k):
        r0 = low if i < k // 2 else high
        specs.append(
            ProcessSpec(
                prior=prior,
                cost_rate=1.0 if equal_cost else r0,
                alpha=alpha,
                beta=beta,
                model_h0=Poisson(r0),
                model_h1=Poisson(ratio * r0),
                switch_delay=d1 if i < k // 2 else d2,
            )
        )
    return tuple(specs)


def _gen_identical(gen: dict, k: int) -> tuple[ProcessSpec, ...]:
    rate0 = float(gen.get("rate0", 10.0))
    rate1 = float(gen.get("rate1", 15.0))
    cost = float(gen.get("cost", 1.0))
    prior = float(gen.get("prior", 0.5))
    alpha = float(gen.get("alpha", 1e-3))
    beta = float(gen.get("beta", 1e-6))
    spec = ProcessSpec(
        prior=prior,
        cost_rate=cost,
        alpha=alpha,
        beta=beta,
        model_h0=Poisson(rate0),
        model_h1=Poisson(rate1),
    )
    return (spec,) * k


_GENERATORS = {
    "equally_spaced_mixture": _gen_equally_spaced_mixture,
    "two_tier": _gen_two_tier,
    "identical": _gen_identical,
}


def initial_priority(spec: ProcessSpec) -> float:
    """Pre-data priority of a fully specified process: prior times cost
    rate over the prior-weighted first-order sample size."""
    if spec.is_composite:
        raise ValueError("initial priority is only defined for model-pair processes")
    e0, e1 = expected_sample_sizes(
        spec.alpha,
        spec.beta,
        finite_kl(spec.model_h0, spec.model_h1),
        finite_kl(spec.model_h1, spec.model_h0),
    )
    return spec.prior * spec.cost_rate / (spec.prior * e1 + (1.0 - spec.prior) * e0)


def match_error_budget(
    template: ProcessSpec, target_priority: float, lo: float = 1e-15, hi: float = 0.499
) -> float:
    """Symmetric error budget e with initial_priority(template at
    alpha=beta=e) equal to target_priority, by bisection in log e. The
    priority grows with e, so the root is unique."""
    if not target_priority > 0:
        raise ConfigError(f"target priority must be positive, got {target_priority}")

    def priority(e: float) -> float:
        return initial_priority(replace(template, alpha=e, beta=e))

    if priority(hi) < target_priority or priority(lo) > target_priority:
        raise ConfigError(
            f"no symmetric error budget in [{lo}, {hi}] reaches priority {target_priority}"
        )
    llo, lhi = math.log(lo), math.log(hi)
    for _ in range(200):
        mid = 0.5 * (llo + lhi)
        if priority(math.exp(mid)) < target_priority:
            llo = mid
        else:
            lhi = mid
    return math.exp(0.5 * (llo + lhi))


def materialize_processes(cfg: ExperimentConfig, sweep_value: float) -> tuple[ProcessSpec, ...]:
    """Process set for one sweep point, overrides applied."""
    var = cfg.sweep_variable
    gen = dict(cfg.generator) if cfg.generator is not None else None
    if var == "d2" and gen is not None:
        gen["d2"] = int(sweep_value)

    if gen is not None:
        k = int(sweep_value) if var == "K" else int(gen["K"])
        specs = _GENERATORS[gen["kind"]](gen, k)
    else:
        specs = cfg.processes

    try:
        if var == "c_e":
            e = 1.0 / float(sweep_value)
            specs = tuple(replace(s, alpha=e, beta=e) for s in specs)
        elif var == "alpha":
            v = float(sweep_value)
            if cfg.alpha_match is not None:
                first = replace(specs[0], alpha=v, beta=v)
                target = initial_priority(first) / float(cfg.alpha_match["index_ratio"])
                e2 = match_error_budget(specs[1], target)
                specs = (first, replace(specs[1], alpha=e2, beta=e2)) + specs[2:]
            else:
                specs = tuple(replace(s, alpha=v, beta=v) for s in specs)
    except ValueError as exc:
        raise ConfigError(f"sweep point {sweep_value}: {exc}") from exc

    if cfg.m > len(specs):
        raise ConfigError(f"m={cfg.m} exceeds the process count {len(specs)} at this sweep point")
    return specs


# --- sweep execution ----------------------------------------------------

_STATISTIC_KINDS = {"SPRT": StatisticKind.GLR, "GLR": StatisticKind.GLR, "ALR": StatisticKind.ALR}


def _policy_config(cfg: ExperimentConfig, name: str) -> PolicyConfig:
    stat = _STATISTIC_KINDS[cfg.statistic]
    if name == "OL":
        return PolicyConfig(kind=PolicyKind.OL, m=cfg.m, statistic=stat)
    if name == "CL-no-explore":
        return PolicyConfig(kind=PolicyKind.CL, m=cfg.m, zeta=math.inf, statistic=stat)
    return PolicyConfig(kind=PolicyKind.CL, m=cfg.m, zeta=cfg.zeta, statistic=stat)


def scaled_sweep_values(cfg: ExperimentConfig, scale: int) -> tuple[float, ...]:
    """Desk-scale shrink: K values divide by the scale factor (floor 2,
    even for two_tier, deduplicated); other variables pass through."""
    if scale <= 1 or cfg.sweep_variable != "K":
        return cfg.sweep_values
    even = cfg.generator is not None and cfg.generator.get("kind") == "two_tier"
    floor = max(2, cfg.m)
    out: list[float] = []
    seen: set[int] = set()
    for v in cfg.sweep_values:
        w = max(floor, round(v / scale))
        if even and w % 2:
            w += 1
        if w not in seen:
            seen.add(w)
            out.append(float(w))
    return tuple(out)


def apply_scale(cfg: ExperimentConfig, scale: int) -> ExperimentConfig:
    if scale < 1:
        raise ConfigError(f"scale must be >= 1, got {scale}")
    if scale == 1:
        return cfg
    gen = cfg.generator
    if gen is not None and cfg.sweep_variable != "K" and gen.get("K") is not None:
        k = max(2, cfg.m, round(int(gen["K"]) / scale))
        if gen.get("kind") == "two_tier" and k % 2:
            k += 1
        gen = dict(gen, K=k)
    return replace(
        cfg,
        episodes=max(1, cfg.episodes // scale) if cfg.episodes else 0,
        sweep_values=scaled_sweep_values(cfg, scale),
        generator=gen,
    )


def _ratio_stderr(num: np.ndarray, den: np.ndarray) -> float | None:
    """Delta-method standard error for mean(num)/mean(den) with paired
    (common-random-number) samples."""
    n = len(num)
    if n < 2:
        return None
    mx, my = float(num.mean()), float(den.mean())
    if my == 0:
        return None
    cov = np.cov(num, den, ddof=1)
    var = (
        cov[0, 0] / my**2
        - 2.0 * mx * cov[0, 1] / my**3
        + mx**2 * cov[1, 1] / my**4
    ) / n
    return math.sqrt(max(float(var), 0.0))


def _run_batch(
    cfg: ExperimentConfig,
    sweep_idx: int,
    sweep_value: float,
    policy_name: str,
    specs: tuple[ProcessSpec, ...],
    episodes: int,
) -> BatchSummary:
    policy = _policy_config(cfg, policy_name)
    k = len(specs)
    costs = np.empty(episodes)
    totals = np.zeros(k)
    fa_counts = np.zeros(k, dtype=int)
    md_counts = np.zeros(k, dtype=int)
    normal_counts = np.zeros(k, dtype=int)
    abnormal_counts = np.zeros(k, dtype=int)
    bounds = np.empty(episodes)
    bounds_ok = True
    records: list[dict] = []

    for ep in range(episodes):
        seed = np.random.SeedSequence(cfg.master_seed, spawn_key=(sweep_idx, ep))
        res = run_episode(specs, policy, seed, forced_truth=cfg.truth)
        costs[ep] = res.cost
        totals += np.asarray(res.samples)
        for i in range(k):
            if res.truth[i]:
                abnormal_counts[i] += 1
                md_counts[i] += res.miss_detects[i]
            else:
                normal_counts[i] += 1
                fa_counts[i] += res.false_alarms[i]
        if bounds_ok:
            try:
                bounds[ep] = lower_bound_oracle(specs, res.truth, res.truth_models, m=cfg.m)
            except ValueError:
                bounds_ok = False
        abnormal = sum(res.truth)
        records.append(
            {
                "episode": ep,
                "cost": res.cost,
                "samples": int(sum(res.samples)),
                "fa": int(sum(res.false_alarms)),
                "md": int(sum(res.miss_detects)),
                "abnormal": int(abnormal),
                "abnormal_time": int(
                    sum(t for t, ab in zip(res.stop_times, res.truth) if ab)
                ),
                "bound": float(bounds[ep]) if bounds_ok else math.nan,
            }
        )

    mean_cost = float(costs.mean())
    stderr = float(costs.std(ddof=1) / math.sqrt(episodes)) if episodes > 1 else math.nan
    fa_total, md_total = int(fa_counts.sum()), int(md_counts.sum())
    normal_total, abnormal_total = int(normal_counts.sum()), int(abnormal_counts.sum())
    mean_bound = float(bounds.mean()) if bounds_ok else math.nan

    def rate(count: int, denom: int) -> float:
        return count / denom if denom else math.nan

    summary = BatchSummary(
        sweep_value=sweep_value,
        policy=policy_name,
        episodes=episodes,
        mean_cost=mean_cost,
        stderr_cost=stderr,
        fa_rate=rate(fa_total, normal_total),
        md_rate=rate(md_total, abnormal_total),
        mean_samples=float(totals.sum() / episodes),
        lower_bound=mean_bound,
        cost_over_bound=mean_cost / mean_bound if mean_bound and mean_bound > 0 else math.nan,
        fa_rates=tuple(rate(int(fa_counts[i]), int(normal_counts[i])) for i in range(k)),
        md_rates=tuple(rate(int(md_counts[i]), int(abnormal_counts[i])) for i in range(k)),
        mean_samples_per_process=tuple(float(t / episodes) for t in totals),
    )

    if cfg.sweep_variable == "c_e":
        c_e = float(sweep_value)
        err = summary.fa_rate + summary.md_rate
        if math.isnan(err):
            err = 0.0
        risks = np.array(
            [r["abnormal_time"] / c_e + r["abnormal"] * err for r in records]
        )
        for r in records:
            r["risk"] = r["abnormal_time"] / c_e + r["abnormal"] * err
        mean_risk = float(risks.mean())
        summary.extra = {
            "mean_risk": mean_risk,
            "stderr_risk": float(risks.std(ddof=1) / math.sqrt(episodes))
            if episodes > 1
            else math.nan,
            "log_ce": math.log(c_e),
            "log_R": math.log(mean_risk) if mean_risk > 0 else math.nan,
        }

    summary.episode_records = tuple(records)
    return summary


def run_experiment(
    cfg: ExperimentConfig,
    scale: int = 1,
    episodes_override: int | None = None,
    seed_override: int | None = None,
    per_episode: bool = False,
) -> list[BatchSummary]:
    """Execute the sweep: one batch per (sweep point, policy).

    Deterministic in the master seed; episodes share RNG substreams
    across policies at a sweep point, so comparisons are paired. A
    failing sweep point is reported in its summaries' error field while
    the rest of the sweep proceeds.
    """
    validate_config(cfg)
    if episodes_override is not None:
        cfg = replace(cfg, episodes=int(episodes_override))
    if seed_override is not None:
        cfg = replace(cfg, master_seed=int(seed_override))
    cfg = apply_scale(cfg, scale)
    validate_config(cfg)
    if cfg.episodes == 0:
        return []

    baseline = next((p for p in ("OL", "CL-no-explore") if p in cfg.policies), None)

    out: list[BatchSummary] = []
    for sweep_idx, value in enumerate(cfg.sweep_values):
        point: list[BatchSummary] = []
        try:
            specs = materialize_processes(cfg, value)
        except (ConfigError, ValueError) as exc:
            for name in cfg.policies:
                point.append(
                    BatchSummary(sweep_value=value, policy=name, episodes=0, error=str(exc))
                )
            out.extend(point)
            continue
        for name in cfg.policies:
            try:
                point.append(_run_batch(cfg, sweep_idx, value, name, specs, cfg.episodes))
            except Exception as exc:  # noqa: BLE001  (isolation boundary)
                point.append(
                    BatchSummary(sweep_value=value, policy=name, episodes=0, error=str(exc))
                )
        base = next((s for s in point if s.policy == baseline and s.error is None), None)
        if base is not None and base.mean_cost and not math.isnan(base.mean_cost):
            base_costs = np.array([r["cost"] for r in base.episode_records])
            for s in point:
                if s is base or s.error is not None:
                    continue
                s.rho = s.mean_cost / base.mean_cost
                own = np.array([r["cost"] for r in s.episode_records])
                s.rho_se = _ratio_stderr(own, base_costs)
        if not per_episode:
            for s in point:
                s.episode_records = None
        out.extend(point)
    return out


# --- CSV emission -------------------------------------------------------


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    xf = float(x)
    if math.isnan(xf):
        return ""
    return f"{xf:.10g}"


def emit_csv(summaries: list[BatchSummary], path_or_file) -> None:
    """Header plus one row per batch, 10 significant digits, stable row
    order. Rows for failed batches keep their numeric cells empty."""
    risk_sweep = any("log_ce" in s.extra for s in summaries)
    columns = CSV_COLUMNS + (("log_ce", "log_R") if risk_sweep else ())
    lines = [",".join(columns)]
    for s in summaries:
        row = [
            _fmt(s.sweep_value),
            s.policy,
            _fmt(s.episodes),
            _fmt(s.mean_cost),
            _fmt(s.stderr_cost),
            _fmt(s.fa_rate),
            _fmt(s.md_rate),
            _fmt(s.mean_samples),
            _fmt(s.lower_bound),
            _fmt(s.cost_over_bound),
            _fmt(s.rho),
        ]
        if risk_sweep:
            row.append(_fmt(s.extra.get("log_ce", math.nan)))
            row.append(_fmt(s.extra.get("log_R", math.nan)))
        lines.append(",".join(row))
    text = "\n".join(lines) + "\n"
    if hasattr(path_or_file, "write"):
        path_or_file.write(text)
        return
    try:
        with open(path_or_file, "w", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path_or_file}: {exc}") from exc


def emit_per_episode_csv(summaries: list[BatchSummary], path_or_file) -> None:
    """One row per episode for every batch that retained its records."""
    risk = any(
        s.episode_records and any("risk" in r for r in s.episode_records) for s in summaries
    )
    columns = EPISODE_COLUMNS + (("risk",) if risk else ())
    lines = [",".join(columns)]
    for s in summaries:
        if not s.episode_records:
            continue
        for r in s.episode_records:
            row = [
                _fmt(s.sweep_value),
                s.policy,
                _fmt(r["episode"]),
                _fmt(r["cost"]),
                _fmt(r["samples"]),
                _fmt(r["fa"]),
                _fmt(r["md"]),
                _fmt(r["abnormal"]),
                _fmt(r["abnormal_time"]),
                _fmt(r["bound"]),
            ]
            if risk:
                row.append(_fmt(r.get("risk", math.nan)))
            lines.append(",".join(row))
    text = "\n".join(lines) + "\n"
    if hasattr(path_or_file, "write"):
        path_or_file.write(text)
        return
    try:
        with open(path_or_file, "w", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path_or_file}: {exc}") from exc


# --- bundled studies ----------------------------------------------------


def figure_config(name: str) -> ExperimentConfig:
    """Bundled experiment recipes, runnable at full or desk scale."""
    if name == "fig1":
        # equally spaced normal rates, two-level deviation mixture,
        # grid tests, cost proportional to normal traffic
        return ExperimentConfig(
            name="fig1",
            episodes=10_000,
            master_seed=0,
            policies=("CL", "OL"),
            sweep_variable="K",
            sweep_values=(4.0, 8.0, 12.0, 16.0),
            statistic="GLR",
            generator={"kind": "equally_spaced_mixture"},
        )
    if name == "fig2":
        # five probes at a time, two rate tiers, equal costs
        return ExperimentConfig(
            name="fig2",
            episodes=10_000,
            master_seed=0,
            policies=("CL", "OL"),
            sweep_variable="K",
            sweep_values=(10.0, 20.0),
            m=5,
            generator={"kind": "two_tier", "equal_cost": True},
        )
    if name == "fig3":
        # switching-delay sensitivity: slow tier delay swept upward
        return ExperimentConfig(
            name="fig3",
            episodes=10_000,
            master_seed=0,
            policies=("CL", "OL"),
            sweep_variable="d2",
            sweep_values=tuple(float(d) for d in range(9)),
            generator={"kind": "two_tier", "K": 8, "d1": 1},
        )
    if name == "fig4":
        # normalized risk versus the declaration-error cost
        return ExperimentConfig(
            name="fig4",
            episodes=10_000,
            master_seed=0,
            policies=("CL",),
            sweep_variable="c_e",
            sweep_values=tuple(10.0 ** (1.0 + 0.5 * i) for i in range(7)),
            generator={"kind": "identical", "K": 10},
        )
    if name == "fig5":
        # two barely separated processes; frequent exploration versus
        # none, second error budget matched to halve the initial priority
        p1 = ProcessSpec(
            prior=0.9, cost_rate=1.0, alpha=1e-2, beta=1e-2,
            model_h0=Poisson(10.0), model_h1=Poisson(10.1),
        )
        p2 = ProcessSpec(
            prior=0.1, cost_rate=1.0, alpha=1e-2, beta=1e-2,
            model_h0=Poisson(10.0), model_h1=Poisson(10.3),
        )
        return ExperimentConfig(
            name="fig5",
            episodes=10_000,
            master_seed=0,
            policies=("CL", "CL-no-explore"),
            sweep_variable="alpha",
            sweep_values=(1e-1, 3e-2, 1e-2, 3e-3),
            zeta=1.005,
            processes=(p1, p2),
            alpha_match={"index_ratio": 2.0},
        )
    raise ConfigError(f"unknown figure {name!r}; choose from {FIGURE_NAMES}")
